"""Symmetric-power traces of a holonomy spectrum.

For eigenvalues lambda_1..lambda_n the trace of the k-th symmetric power is
the complete homogeneous symmetric polynomial h_k, and the generating series
sum_k h_k t^k equals prod_i (1 - lambda_i t)^{-1}.  The series variable t
stands for e^{-x}.  Coefficients are computed from power sums through
Newton's identity k h_k = sum_{j=1..k} p_j h_{k-j}, on Gaussian integers
once the eigenvalues are scaled by their common denominator, and verified in
place against the independent geometric-series product expansion, a running
recurrence on the same scaled Gaussian integers that shares no code with the
power sums.  Every order or degree above ``MAX_TRACE_ORDER`` raises
``ResourceLimitError`` before any work, checked by ``_trace_order`` in each
kernel where the work starts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm, prod
from typing import Iterable

from .errors import DomainError, VerificationError, check_count
from .laurent import _denominator
from .scalars import ONE, ZERO, Scalar
from .series import FormalSeries, _parts

SERIES_VARIABLE = "t"

# Newton's identity makes about order^2/2 Gaussian-integer products and the
# product check n * order: order 100 of four eigenvalues takes about 0.004 s
# on a shared 2-vCPU VM, the check about 0.0002 s of it
MAX_TRACE_ORDER = 100


def _trace_order(value, what: str = "order") -> int:
    return check_count(value, what, cap=MAX_TRACE_ORDER, cap_name="trace order cap")


class HolonomySpectrum:
    """Nonzero eigenvalues of a holonomy matrix."""

    __slots__ = ("eigenvalues",)

    def __init__(self, eigenvalues: Iterable[Scalar | int | Fraction]) -> None:
        values = tuple(Scalar.of(v) for v in eigenvalues)
        if not values:
            raise DomainError("a holonomy spectrum needs at least one eigenvalue")
        for idx, value in enumerate(values):
            if value.is_zero():
                raise DomainError(f"eigenvalue {idx} is zero; holonomies are invertible")
        object.__setattr__(self, "eigenvalues", values)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("HolonomySpectrum is immutable")

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _gaussian_power_sums(spectrum: HolonomySpectrum, order: int) -> tuple[int, list]:
    """The common denominator D of the eigenvalues and P_1..P_order, where
    P_j = D^j p_j is the power sum of the Gaussian integers D lambda_i, as
    (re, im) pairs of ints."""
    _trace_order(order)
    d = _denominator(spectrum.eigenvalues)
    bases = [_parts(value, d) for value in spectrum.eigenvalues]
    powers, sums = bases, []
    for j in range(order):
        if j:
            powers = [(x * u - y * v, x * v + y * u) for (x, y), (u, v) in zip(powers, bases)]
        sums.append((sum(x for x, _ in powers), sum(y for _, y in powers)))
    return d, sums


def power_sums(spectrum: HolonomySpectrum, order: int) -> list[Scalar]:
    """p_1..p_order with p_j = sum of j-th powers."""
    d, sums = _gaussian_power_sums(spectrum, order)
    return [Scalar(Fraction(re, d**j), Fraction(im, d**j)) for j, (re, im) in enumerate(sums, 1)]


def _newton_traces(spectrum: HolonomySpectrum, order: int) -> tuple[int, list]:
    """D and H_0..H_order with H_k = D^k h_k, as (re, im) pairs of ints, by
    Newton's identity from ``_gaussian_power_sums``: k H_k =
    sum_{j=1..k} P_j H_(k-j) divides exactly by k."""
    d, sums = _gaussian_power_sums(spectrum, order)
    h = [(1, 0)]
    for k in range(1, order + 1):
        re = im = 0
        for (x, y), (u, v) in zip(sums, h[::-1]):
            re += x * u - y * v
            im += x * v + y * u
        h.append((re // k, im // k))
    return d, h


def _product_traces(spectrum: HolonomySpectrum, order: int) -> tuple[int, list]:
    """D and C_0..C_order with C_k = D^k c_k for the expansion c of
    prod_i (1 - lambda_i t)^{-1}, as (re, im) pairs of ints.

    Multiplying a series c by the geometric series 1/(1 - lambda t) is the
    running recurrence c_k += lambda c_(k-1), taken upward in k; scaled by
    D^k it is C_k += Lambda C_(k-1) for the Gaussian integer Lambda =
    D lambda.  O(n * order) products in all, and nothing shared with the
    power sums.
    """
    _trace_order(order)
    values = spectrum.eigenvalues
    d = lcm(*(part.denominator for value in values for part in (value.re, value.im)))
    re, im = [1] + [0] * order, [0] * (order + 1)
    for value in values:
        u = value.re.numerator * (d // value.re.denominator)
        v = value.im.numerator * (d // value.im.denominator)
        for k in range(1, order + 1):
            x, y = re[k - 1], im[k - 1]
            re[k] += u * x - v * y
            im[k] += u * y + v * x
    return d, list(zip(re, im))


def _scalars(d: int, pairs: list) -> list[Scalar]:
    """The Scalars (re + im i) / D^k of the k-th (re, im) pair."""
    return [Scalar(Fraction(re, d**k), Fraction(im, d**k)) for k, (re, im) in enumerate(pairs)]


def complete_homogeneous(spectrum: HolonomySpectrum, order: int) -> list[Scalar]:
    """h_0..h_order by Newton's identity from power sums, on Gaussian integers.

    With the eigenvalues scaled by their common denominator D, the power
    sums P_j and the traces H_k = D^k h_k are Gaussian integers.
    """
    return _scalars(*_newton_traces(spectrum, order))


def complete_homogeneous_direct(spectrum: HolonomySpectrum, k: int) -> Scalar:
    """h_k straight from the definition: sum over degree-k monomial multisets."""
    _trace_order(k, "degree")
    monomials = combinations_with_replacement(spectrum.eigenvalues, k)
    return sum((prod(combo, start=ONE) for combo in monomials), ZERO)


def determinant_product_series(spectrum: HolonomySpectrum, order: int) -> FormalSeries:
    """Expansion of prod_i (1 - lambda_i t)^{-1}, one factor at a time, by
    the running recurrence of ``_product_traces``: no series product."""
    return FormalSeries.from_scalars(SERIES_VARIABLE, _scalars(*_product_traces(spectrum, order)))


def symmetric_trace_series(spectrum: HolonomySpectrum, order: int) -> FormalSeries:
    """sum_k h_k t^k, asserted equal to the determinant-inverse expansion."""
    traces = _newton_traces(spectrum, order)
    if traces != _product_traces(spectrum, order):
        raise VerificationError(
            "Newton-identity traces disagree with the determinant product expansion"
        )
    return FormalSeries.from_scalars(SERIES_VARIABLE, _scalars(*traces))

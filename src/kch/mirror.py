"""Branches of a mirror/augmentation curve and the disk potential.

A curve A(X, P) with Laurent coefficients in remaining parameters (typically
Q) vanishes along branches P(X).  Near X = 0 a simple root P0 extends to a
unique power series P(X) = P0 + c1 X + ..., solved order by order from the
linearization: if A(X, S + c X^k) = A(X, S) + c X^k dA/dP(0, P0) + O(X^{k+1}),
each residual coefficient divides out against d = dA/dP(0, P0).

The solve is online: the curve is split once into its X^a P^b coefficients,
and the X-coefficients of each power P^b are kept and grown by one order per
step.  At order k the unknown c_k enters P^b only as b P0^(b-1) c_k, so the
residual r_k is read off the powers with c_k = 0, c_k = -r_k / d is solved,
and the powers are corrected.  Nothing is substituted twice; the cost is one
convolution per power and order, each summed into one coefficient map by
``laurent._dot``, so order k of a curve of P-degree d makes about d k^2 / 2
polynomial products.  ``verify_on_curve`` checks the result by its own full
substitution of P0 exp(p) into the curve.

The logarithm p(X) = log(P(X)/P0) is the momentum series; integrating it
coefficientwise (divide X^k by k) gives the disk potential W with
p = x-derivative of W, where the derivative acts as X d/dX on series in
X = e^x.  Any constant log(P0) is carried symbolically, never numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .laurent import LaurentPolynomial, _dot, _make
from .scalars import Scalar
from .series import FormalSeries

# the online solve makes O(order^2) coefficient products per power of P, but
# the coefficients themselves grow with the order: order 150 of
# 1 - X - P + Q*X*P takes about 0.01 s on a shared 2-vCPU VM, while order 60
# of P - 1 + Q*X*P^2 - 3*X*P^2, whose coefficients are dense in Q, takes 0.5 s
MAX_BRANCH_ORDER = 200
# the solve keeps one coefficient list per power of P and extends each at
# every order: order 2 of 1 - P + X*P^d takes about 0.15 ms per unit of d on
# a shared 2-vCPU VM (0.3 s at d = 2000)
MAX_BRANCH_P_DEGREE = 2000
# each cap above bounds one input, but the solve makes one convolution per
# power of P and order, so their product is capped too.  At a product of
# 4000, 1 - P + X*P^d takes 0.1-0.6 s on a shared 2-vCPU VM (order 200 the
# costliest), while order 20 of 1 - P + X*P^2000 takes about 1 s.  Curves
# dense in Q cost more than the product counts: their coefficients lengthen
# with the order.
MAX_BRANCH_WORK = 4000


@dataclass(frozen=True)
class BranchSeries:
    """A local parameterization P(X) of a curve branch at X = 0."""

    curve: LaurentPolynomial
    x_variable: str
    p_variable: str
    base: Scalar
    series: FormalSeries

    @property
    def order(self) -> int:
        return self.series.order

    @property
    def parameters(self) -> tuple[str, ...]:
        return self.series.ring


@dataclass(frozen=True)
class PotentialSeries:
    """Disk potential: linear-in-x coefficient plus a series in X = e^x."""

    linear_coefficient: LaurentPolynomial
    series: FormalSeries


@dataclass(frozen=True)
class CurveResidualReport:
    ok: bool
    first_failure: int | None
    residual: FormalSeries


def _split_curve(
    curve: LaurentPolynomial, x_variable: str, p_variable: str
) -> tuple[tuple[str, ...], LaurentPolynomial]:
    if x_variable not in curve.variables or p_variable not in curve.variables:
        raise DomainError(
            f"curve ring {curve.variables!r} must contain {x_variable!r} and {p_variable!r}"
        )
    if x_variable == p_variable:
        raise DomainError("x and p variables must differ")
    parameters = tuple(v for v in curve.variables if v not in (x_variable, p_variable))
    # negative exponents are monomial units on the torus; strip them so the
    # series substitution never needs an inverse
    stripped, _ = curve.strip_monomial_factor()
    return parameters, stripped


def _substitute_branch(
    curve: LaurentPolynomial,
    x_variable: str,
    p_variable: str,
    parameters: tuple[str, ...],
    branch: FormalSeries,
) -> FormalSeries:
    """A(X, branch(X)) as a series; exponents were normalized nonnegative."""
    order = branch.order
    x_index = curve.variables.index(x_variable)
    p_index = curve.variables.index(p_variable)
    param_positions = [curve.variables.index(v) for v in parameters]
    # powers[e] = branch^e, extended by one product per new power on demand
    powers = [FormalSeries.one("X", order, parameters)]
    total = FormalSeries.zero("X", order, parameters)
    for exps, coeff in curve._terms:
        e_x = exps[x_index]
        e_p = exps[p_index]
        if e_x < 0 or e_p < 0:
            raise DomainError("curve exponents must be normalized nonnegative")
        if e_x > order:
            continue
        param_exps = tuple(exps[pos] for pos in param_positions)
        scale = _make(parameters, {param_exps: coeff})
        while len(powers) <= e_p:
            powers.append(powers[-1] * branch)
        total = total + (powers[e_p] * scale).shifted(e_x)
    return total


def _terms_by_power(
    curve: LaurentPolynomial,
    x_variable: str,
    p_variable: str,
    parameters: tuple[str, ...],
    order: int,
) -> list[tuple[int, int, LaurentPolynomial]]:
    """(e_x, e_p, coefficient) with A = sum coefficient * X^e_x * P^e_p, for
    e_x <= order; coefficients live in the parameter ring."""
    x_index = curve.variables.index(x_variable)
    p_index = curve.variables.index(p_variable)
    param_positions = [curve.variables.index(v) for v in parameters]
    grouped: dict[tuple[int, int], dict] = {}
    for exps, coeff in curve._terms:
        if exps[x_index] <= order:
            param_exps = tuple(exps[pos] for pos in param_positions)
            grouped.setdefault((exps[x_index], exps[p_index]), {})[param_exps] = coeff
    return [
        (e_x, e_p, _make(parameters, by_parameters))
        for (e_x, e_p), by_parameters in grouped.items()
    ]


def branch_series(
    curve: LaurentPolynomial,
    base: Scalar | int | Fraction,
    order: int,
    *,
    x_variable: str = "X",
    p_variable: str = "P",
) -> BranchSeries:
    """The unique series branch P(X) with P(0) = base, A(X, P(X)) = O(X^{order+1}).

    The base must be a simple root of A(0, P): a root where dA/dP does not
    vanish.  Each coefficient is obtained by exact division against that
    derivative value, which must divide exactly in the parameter ring; base
    points making it a nonconstant polynomial may therefore be rejected even
    off a branch point, reported as such.  Orders above ``MAX_BRANCH_ORDER``,
    curves of P-degree above ``MAX_BRANCH_P_DEGREE``, and an order times
    P-degree above ``MAX_BRANCH_WORK`` raise ``ResourceLimitError`` before any
    work.
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    if order > MAX_BRANCH_ORDER:
        raise ResourceLimitError(f"order {order} exceeds the branch order cap {MAX_BRANCH_ORDER}")
    base = Scalar.of(base)
    if base.is_zero():
        raise DomainError("branch base P(0) must be nonzero on the torus")
    parameters, stripped = _split_curve(curve, x_variable, p_variable)
    p_index = stripped.variables.index(p_variable)
    p_degree = max((exps[p_index] for exps, _ in stripped._terms), default=0)
    if p_degree > MAX_BRANCH_P_DEGREE:
        raise ResourceLimitError(
            f"curve has {p_variable}-degree {p_degree}, above the cap {MAX_BRANCH_P_DEGREE}"
        )
    if order * p_degree > MAX_BRANCH_WORK:
        raise ResourceLimitError(
            f"order {order} times {p_variable}-degree {p_degree} exceeds the branch "
            f"work cap {MAX_BRANCH_WORK}"
        )

    at_origin = stripped.substitute(x_variable, 0).substitute(p_variable, base)
    if not at_origin.is_zero():
        raise DomainError(
            f"base {base} is not a root of the curve at {x_variable} = 0"
        )
    derivative = (
        stripped.derivative(p_variable)
        .substitute(x_variable, 0)
        .substitute(p_variable, base)
    )
    if derivative.is_zero():
        raise DomainError(
            f"base {base} is a branch point: dA/d{p_variable} vanishes at {x_variable} = 0"
        )

    zero = LaurentPolynomial.zero(parameters)
    terms = _terms_by_power(stripped, x_variable, p_variable, parameters, order)
    top = max(e_p for _, e_p, _ in terms)
    coefficients = [LaurentPolynomial.constant(parameters, base)]
    # powers[e][j] is the X^j coefficient of P(X)^e; powers[1] is the branch
    powers = [[LaurentPolynomial.one(parameters)], coefficients]
    powers += [[LaurentPolynomial.constant(parameters, base**e)] for e in range(2, top + 1)]
    # c_k enters the X^k coefficient of P^e only as e * P0^(e-1) * c_k
    lift = {e: e * base ** (e - 1) for e in range(2, top + 1)}
    for k in range(1, order + 1):
        # extend every power by its X^k coefficient with the unknown c_k = 0
        powers[0].append(zero)
        coefficients.append(zero)
        for e in range(2, top + 1):
            lower = powers[e - 1]
            powers[e].append(_dot(parameters, [(coefficients[j], lower[k - j]) for j in range(k)]))
        # the X^k coefficient of A(X, P0 + ... + c_(k-1) X^(k-1))
        r_k = _dot(parameters, [(c, powers[e_p][k - e_x]) for e_x, e_p, c in terms if e_x <= k])
        if r_k.is_zero():
            continue
        try:
            correction = r_k.exact_divide(derivative)
        except DomainError as exc:
            raise DomainError(
                f"coefficient of {x_variable}^{k} does not separate: "
                f"dA/d{p_variable} = {derivative} does not divide {r_k} "
                "in the parameter ring"
            ) from exc
        coefficients[k] = -correction
        for e in range(2, top + 1):
            powers[e][k] = powers[e][k] + coefficients[k].scale(lift[e])
    series = FormalSeries("X", order, coefficients)
    return BranchSeries(curve, x_variable, p_variable, base, series)


def p_series(branch: BranchSeries) -> FormalSeries:
    """log(P(X)/P0) as an exact series with zero constant term.

    The constant log(P0) is not a series coefficient; report it symbolically
    when P0 is not 1.
    """
    inverse_base = LaurentPolynomial.constant(branch.parameters, branch.base.inverse())
    return (branch.series * inverse_base).log()


def potential_series(p: FormalSeries) -> PotentialSeries:
    """Integrate: the X^k coefficient divides by k; the constant becomes linear in x."""
    coefficients = [LaurentPolynomial.zero(p.ring)]
    for k in range(1, p.order + 1):
        coefficients.append(p.coefficient(k).scale(Fraction(1, k)))
    return PotentialSeries(
        linear_coefficient=p.coefficient(0),
        series=FormalSeries(p.variable, p.order, coefficients),
    )


def potential_x_derivative(potential: PotentialSeries) -> FormalSeries:
    """x-derivative (X d/dX plus the linear part) recovering the p series."""
    series = potential.series
    coefficients = [potential.linear_coefficient]
    for k in range(1, series.order + 1):
        coefficients.append(series.coefficient(k).scale(k))
    return FormalSeries(series.variable, series.order, coefficients)


def verify_on_curve(
    curve: LaurentPolynomial, branch: BranchSeries, order: int | None = None
) -> CurveResidualReport:
    """Substitute P0 * exp(p_series) back into the curve; residual must vanish.

    The branch is recomputed through exp of its own logarithm, so the check
    exercises the log/exp round trip as well as the root solving.
    """
    if order is None:
        order = branch.order
    if order > branch.order:
        raise DomainError(
            f"cannot verify to order {order}: branch only carries order {branch.order}"
        )
    parameters, stripped = _split_curve(curve, branch.x_variable, branch.p_variable)
    if parameters != branch.parameters:
        raise DomainError("branch was built from a curve with different parameters")
    reconstructed = p_series(branch).truncate(order).exp() * LaurentPolynomial.constant(
        parameters, branch.base
    )
    residual = _substitute_branch(
        stripped, branch.x_variable, branch.p_variable, parameters, reconstructed
    )
    first_failure = None
    for k in range(order + 1):
        if not residual.coefficient(k).is_zero():
            first_failure = k
            break
    return CurveResidualReport(first_failure is None, first_failure, residual)

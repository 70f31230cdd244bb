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
convolution per power and order, so order k of a curve of P-degree d makes
about d k^2 / 2 polynomial products.

The whole solve is one run of the packed kernel (``kch._packed``): every
coefficient is a Kronecker-packed integer and each product one int product
(or, where d is not a monomial or packing is estimated the costlier, every
coefficient a polynomial with integer coefficients).  To keep every value
integral, the curve is scaled by its common denominator, P by the
denominator of P0 and X by a square of the content of d, which Hensel
lifting shows to clear every denominator of the c_k (see ``branch_series``).

The logarithm p(X) = log(P(X)/P0) is the momentum series, derived once per
branch by ``p_series`` and kept on it; integrating it coefficientwise
(divide X^k by k) gives the disk potential W with p = x-derivative of W,
where the derivative acts as X d/dX on series in X = e^x.  Any constant
log(P0) is carried symbolically, never numerically.  ``verify_on_curve``
checks the kept p by its own exp and full substitution of P0 exp(p) into
the curve, one more packed run on integers in divided powers: it reads only
p and the curve, and a residual that vanishes is never unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import factorial, gcd, perm

from .errors import DomainError, ResourceLimitError, check_count
from .laurent import LaurentPolynomial, _denominator, _make, _narrow
from .scalars import Scalar
from .series import FormalSeries, _kernel, _parts, _record_exp, _series_denominator

# the online solve makes O(order^2) coefficient products per power of P, but
# the coefficients themselves grow with the order: order 150 of
# 1 - X - P + Q*X*P takes about 0.005 s on a shared 2-vCPU VM, while order 60
# of P - 1 + Q*X*P^2 - 3*X*P^2, whose coefficients are dense in Q, takes 0.08 s
MAX_BRANCH_ORDER = 200
# the solve keeps one coefficient list per power of P and extends each at
# every order: order 2 of 1 - P + X*P^d takes about 0.25 ms per unit of d on
# a shared 2-vCPU VM (0.5 s at d = 2000)
MAX_BRANCH_P_DEGREE = 2000
# each cap above bounds one input, but the solve makes one convolution per
# power of P and order, so their product is capped too.  At a product of
# 4000, 1 - P + X*P^d takes 0.1-0.7 s on a shared 2-vCPU VM (order 200 the
# costliest), while order 20 of 1 - P + X*P^2000 takes about 1.5 s.  Curves
# dense in Q cost more than the product counts: their coefficients lengthen
# with the order (1 - P + Q*X*P^40 - 3*X*P^40 + X*P takes 0.06 s at order 20
# and 1.2 s at order 40), which no cap here bounds.
MAX_BRANCH_WORK = 4000


@dataclass(frozen=True)
class BranchSeries:
    """A local parameterization P(X) of a curve branch at X = 0."""

    curve: LaurentPolynomial
    x_variable: str
    p_variable: str
    base: Scalar
    series: FormalSeries
    # the p series, kept by ``p_series`` on its first call
    _p: FormalSeries | None = field(default=None, init=False, compare=False, repr=False)

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


def _record_curve(kernel, scaled, powers: dict, order: int) -> list[int]:
    """Record a curve at a series F in divided powers: the nodes of k! times
    the X^k coefficient of sum c X^e_x F^e_p, for k = 0 .. order, over the
    scaled curve terms (e_x, e_p, node of c), from powers[e], the nodes of
    k! (F^e)_k for every e > 0 the terms use.  X^e_x F^e_p enters the X^k
    coefficient with the factor k!/(k - e_x)!."""
    zero = kernel.input(LaurentPolynomial.zero(kernel.variables))
    powers = {0: [kernel.input(LaurentPolynomial.one(kernel.variables))] + [zero] * order, **powers}
    total = []
    for k in range(order + 1):
        used = [(perm(k, e_x), node, powers[e_p][k - e_x]) for e_x, e_p, node in scaled if e_x <= k]
        factors, xs, ys = zip(*used)
        total.append(kernel.dot(xs, ys, factors))
    return total


def _on_curve_residual(
    curve: LaurentPolynomial,
    x_variable: str,
    p_variable: str,
    parameters: tuple[str, ...],
    base: Scalar,
    p: FormalSeries,
) -> FormalSeries:
    """A(X, base * exp(p)) as a series, in one packed run that reads only
    the curve and p.

    Each power exp(p)^e = exp(e p) that the curve uses is recorded in
    divided powers k! E_k D^k, with X scaled by D (``kch.series._record_exp``),
    and the curve is summed over them by ``_record_curve``.  For the base
    b/q (b a Gaussian integer), q^top (base E)^e is q^(top-e) b^e E^e, so
    each curve term X^a P^e is scaled by the curve's common denominator,
    q^(top-e) b^e and D^a.  A packed value is zero exactly when its
    polynomial is, so a vanishing residual is returned without an unpack.
    """
    order = p.order
    terms = _terms_by_power(curve, x_variable, p_variable, parameters, order)
    exponents = sorted({e_p for _, e_p, _ in terms} - {0})
    top = max(exponents, default=0)
    d_curve = _series_denominator(c for _, _, c in terms)
    base = _narrow(base)
    q = _denominator((base,))
    b = base * q
    kernel = _kernel(parameters)
    d, exps = _record_exp(kernel, p.coefficients, exponents)
    scaled = [
        (e_x, e_p, kernel.input(c.scale(b**e_p), d_curve * q ** (top - e_p) * d**e_x))
        for e_x, e_p, c in terms
    ]
    total = _record_curve(kernel, scaled, dict(zip(exponents, exps)), order)
    kernel.run(total)
    if all(map(kernel.is_zero, total)):
        return FormalSeries.zero(x_variable, order, parameters)
    denominator = d_curve * q**top
    denominators = [factorial(k) * d**k * denominator for k in range(order + 1)]
    return FormalSeries(x_variable, order, kernel.unpack(total, denominators))


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
    check_count(order, "order", cap=MAX_BRANCH_ORDER, cap_name="branch order cap")
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

    terms = _terms_by_power(stripped, x_variable, p_variable, parameters, order)
    # A(0, P0) and dA/dP(0, P0): the sums of c P0^e and of e c P0^(e-1) over
    # the X^0 terms c P^e
    at_x0 = [(e_p, c) for e_x, e_p, c in terms if e_x == 0]
    zero = LaurentPolynomial.zero(parameters)
    if not sum((c.scale(base**e) for e, c in at_x0), zero).is_zero():
        raise DomainError(f"base {base} is not a root of the curve at {x_variable} = 0")
    derivative = sum((c.scale(e * base ** (e - 1)) for e, c in at_x0 if e), zero)
    if derivative.is_zero():
        raise DomainError(
            f"base {base} is a branch point: dA/d{p_variable} vanishes at {x_variable} = 0"
        )

    top = max(e_p for _, e_p, _ in terms)
    # the solve runs on integers: the curve times its common denominator
    # d_curve, P = P'/q for the base p/q, and the X^k coefficient scaled by
    # lam^k.  Then A becomes G(X, P') = d_curve q^top A(X, P'/q) with
    # integral coefficients and dG/dP' = eps at P' = p, and the unknowns are
    # C_k = q lam^k c_k.  Hensel lifting shows that q c_k eps^(2k-1) is
    # integral, and by Gauss's lemma so is q c_k g^(2k-1) for the content g
    # of eps.  lam is g^2 for real eps, else the square of the gcd of the
    # norms of its coefficients, a multiple of |g|^4; either way C_k is
    # integral.
    d_curve = _series_denominator(c for _, _, c in terms)
    q = _denominator((_narrow(base),))
    eps = derivative.scale(d_curve * q ** (top - 1))
    parts = [_parts(c) for _, c in eps._terms]
    if any(im for _, im in parts):
        lam = gcd(*(re * re + im * im for re, im in parts)) ** 2
    else:
        lam = gcd(*(re for re, _ in parts)) ** 2

    def not_separating(k, residual):
        r_k = residual.scale(Fraction(1, d_curve * q**top * lam**k))
        return DomainError(
            f"coefficient of {x_variable}^{k} does not separate: "
            f"dA/d{p_variable} = {derivative} does not divide {r_k} "
            "in the parameter ring"
        )

    scales = [d_curve * q ** (top - e_p) * lam**e_x for e_x, e_p, _ in terms]
    kernel, nodes = _solve_branch(parameters, terms, scales, base * q, eps, order, not_separating)
    coefficients = kernel.unpack(nodes, [q * lam**k for k in range(order + 1)])
    series = FormalSeries(x_variable, order, coefficients)
    return BranchSeries(curve, x_variable, p_variable, base, series)


def _solve_branch(parameters, terms, scales, p, eps, order, not_separating):
    """The online solve of ``branch_series`` on one packed kernel, in the
    integral form described there: each curve term scaled to an integer
    one, the base p integral and dG/dP' = eps.  A monomial eps divides each
    slot; any other divisor runs the solve on term dicts (see
    ``_Kernel.divide``).  Returns the run kernel and the nodes of
    C_0 .. C_order."""
    kernel = _kernel(parameters)
    one = kernel.input(LaurentPolynomial.one(parameters))
    zero = kernel.input(LaurentPolynomial.zero(parameters))
    scaled = [(e_x, e_p, kernel.input(c, f)) for (e_x, e_p, c), f in zip(terms, scales)]
    top = max(e_p for _, e_p, _ in terms)
    origin = (0,) * len(parameters)

    def constant(value):
        return kernel.input(_make(parameters, {origin: value}))

    coefficients = [constant(p)]
    # powers[e][j] is the X^j coefficient of P'(X)^e; powers[1] is the branch
    powers = [[one], coefficients] + [[constant(p**e)] for e in range(2, top + 1)]
    # C_k enters the X^k coefficient of P'^e only as e * p^(e-1) * C_k
    lift = {e: constant(e * p ** (e - 1)) for e in range(2, top + 1)}
    divisor = -eps
    for k in range(1, order + 1):
        # extend every power by its X^k coefficient with the unknown C_k = 0
        powers[0].append(zero)
        coefficients.append(zero)
        for e in range(2, top + 1):
            lower = powers[e - 1]
            powers[e].append(kernel.dot(coefficients[:k], lower[k:0:-1]))
        # the X^k coefficient of G(X, p + ... + C_(k-1) X^(k-1)), then C_k
        used = [(node, powers[e_p][k - e_x]) for e_x, e_p, node in scaled if e_x <= k]
        residual = kernel.dot(*zip(*used))
        fail = partial(not_separating, k)
        coefficients[k] = kernel.divide(residual, divisor, fail)
        for e in range(2, top + 1):
            powers[e][k] = kernel.dot((powers[e][k], coefficients[k]), (one, lift[e]))
    kernel.run(coefficients)
    return kernel, coefficients


def p_series(branch: BranchSeries) -> FormalSeries:
    """log(P(X)/P0) as an exact series with zero constant term.

    The constant log(P0) is not a series coefficient; report it symbolically
    when P0 is not 1.  The series is derived once per branch and kept on it,
    so every later call (``verify_on_curve`` among them) returns the same
    object.
    """
    if branch._p is None:
        object.__setattr__(branch, "_p", branch.series.scale(branch.base.inverse()).log())
    return branch._p


def potential_series(p: FormalSeries) -> PotentialSeries:
    """Integrate: the X^k coefficient divides by k; the constant becomes linear in x."""
    coefficients = [LaurentPolynomial.zero(p.ring)]
    coefficients += [poly.scale(Fraction(1, k)) for k, poly in enumerate(p.coefficients) if k]
    return PotentialSeries(p.coefficient(0), FormalSeries(p.variable, p.order, coefficients))


def potential_x_derivative(potential: PotentialSeries) -> FormalSeries:
    """x-derivative (X d/dX plus the linear part) recovering the p series."""
    series = potential.series
    coefficients = [potential.linear_coefficient]
    coefficients += [poly.scale(k) for k, poly in enumerate(series.coefficients) if k]
    return FormalSeries(series.variable, series.order, coefficients)


def verify_on_curve(
    curve: LaurentPolynomial,
    branch: BranchSeries,
    order: int | None = None,
    *,
    p: FormalSeries | None = None,
) -> CurveResidualReport:
    """Substitute P0 * exp(p) back into the curve; residual must vanish.

    ``p`` is the momentum series to check, by default ``p_series(branch)``:
    the p the branch keeps, so no log runs twice.  The branch is rebuilt
    from p through its own exp and substitution, which checks the log as
    well as the root solving.
    """
    order = branch.order if order is None else check_count(order, "order")
    if order > branch.order:
        raise DomainError(
            f"cannot verify to order {order}: branch only carries order {branch.order}"
        )
    parameters, stripped = _split_curve(curve, branch.x_variable, branch.p_variable)
    if parameters != branch.parameters:
        raise DomainError("branch was built from a curve with different parameters")
    if p is None:
        p = p_series(branch)
    elif p.ring != parameters:
        raise DomainError(f"p series ring {p.ring!r} differs from the branch's {parameters!r}")
    elif p.variable != branch.x_variable:
        raise DomainError(
            f"p series variable {p.variable!r} differs from the branch's {branch.x_variable!r}"
        )
    residual = _on_curve_residual(
        stripped, branch.x_variable, branch.p_variable, parameters, branch.base, p.truncate(order)
    )
    failures = (k for k, c in enumerate(residual.coefficients) if not c.is_zero())
    first_failure = next(failures, None)
    return CurveResidualReport(first_failure is None, first_failure, residual)

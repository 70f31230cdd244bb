"""The two-variable skein polynomial of an oriented link diagram.

Convention: a * P(+) - a^{-1} * P(-) = z * P(0) with P(unknot) = 1, so

    P(+) = a^{-1} z P(0) + a^{-2} P(-)
    P(-) = a^2 P(+) - a z P(0).

The recursion walks each diagram it is called on once, component by
component from fixed base points, for both its memo key and its wrong
crossings: those whose first passage runs under.  Switching one leaves the
strand cycles and every other first-passage untouched, so the wrong
crossings are resolved along one switch chain in walking order: each adds
its smoothing times the rule's monomial times a^shift, then is switched,
and shift steps by -2 (positive) or +2 (negative).  The chain ends
descending, an unlink worth a^shift * delta^(components-1) with
delta = (a - a^{-1}) z^{-1}.  Switched intermediates are neither walked nor
memoised.  Smoothing drops a crossing, so the recursion terminates.

``resolution`` rotates each component's base point, reordering the chain;
the result must not change, which the test suite exercises.

The recursion runs on integer coefficients: a polynomial is a dict
{(e_a, e_z): int}, each rule term is an exponent shift with a signed integer
add, and the result becomes a ``LaurentPolynomial`` once, at the end, which
stores the integers as they are.  A skein step, capped by ``KCH_MAX_STEPS``,
is one diagram recursed on or one switch followed.  The finished polynomial
is stored on the (immutable) diagram per resolution, so the Wilson
evaluations of a diagram that already has it make no skein step; the
crossing cap is still checked on every call.  Distinct diagram objects share
nothing, even when they are equal.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError, ResourceLimitError, max_steps_limit
from .laurent import LaurentPolynomial, _make
from .pd import LinkDiagram, _cycles, smooth_crossing, switch_crossing

HOMFLY_VARIABLES = ("a", "z")

DEFAULT_MAX_CROSSINGS = 12
DEFAULT_SKEIN_STEPS = 200000

BUNDLED_DIAGRAMS: dict[str, str] = {
    "unknot": "UNKNOT",
    "two_unlink": "UNKNOT;UNKNOT",
    "right_trefoil": "X[1,5,2,4];X[5,3,6,2];X[3,1,4,6]",
    "left_trefoil": "X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]",
    "positive_hopf": "X[1,4,2,3];X[4,1,3,2]",
    "twisted_unlink": "X[1,4,2,3];X[2,4,1,3]",
    "positive_kink": "X[1,1,2,2]",
    "negative_kink": "X[1,2,2,1]",
    "kinked_right_trefoil": "X[1,8,7,7];X[8,5,2,4];X[5,3,6,2];X[3,1,4,6]",
}


def delta() -> LaurentPolynomial:
    """Value of one extra unlinked circle: (a - a^{-1}) z^{-1}."""
    return _to_laurent(_unlink(2))


def _to_laurent(poly: dict[tuple[int, int], int]) -> LaurentPolynomial:
    return _make(HOMFLY_VARIABLES, poly)


def _unlink(components: int) -> dict[tuple[int, int], int]:
    """delta^(components-1) = z^-n sum_j C(n, j) (-1)^j a^(n-2j), n = components-1."""
    n = components - 1
    return {(n - 2 * j, -n): (-1) ** j * comb(n, j) for j in range(n + 1)}


def _add_shifted(acc: dict, poly: dict, d_a: int, d_z: int, sign: int) -> None:
    """acc += sign * a^d_a z^d_z * poly, on integer coefficients."""
    for (e_a, e_z), c in poly.items():
        key = (e_a + d_a, e_z + d_z)
        acc[key] = acc.get(key, 0) + sign * c


def _walk(diagram: LinkDiagram, rotation: int):
    """Successor map, strand count, and arcs in walking order: components
    sorted by least arc, each base rotated by ``rotation``."""
    successor = diagram.successor_map()
    cycles = _cycles(successor)
    order = []
    for cycle in cycles:
        offset = rotation % len(cycle)
        order.extend(cycle[offset:] + cycle[:offset])
    return successor, len(cycles), order


def _canonical_key(diagram: LinkDiagram, order: list[int]):
    relabel = {arc: idx + 1 for idx, arc in enumerate(order)}
    records = tuple(
        sorted(
            (tuple(relabel[label] for label in record), sign)
            for record, sign in zip(diagram.crossings, diagram.signs)
        )
    )
    return records, diagram.circles


def homfly(
    diagram: LinkDiagram,
    *,
    resolution: int = 0,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> LaurentPolynomial:
    """Skein polynomial in (a, z); independent of the resolution order.

    The finished polynomial is kept on the diagram per resolution, so asking
    again for the same diagram object makes no skein step.
    """
    if type(resolution) is not int or type(max_crossings) is not int:
        raise DomainError("resolution and max_crossings must be integers")
    if diagram.crossing_count > max_crossings:
        raise ResourceLimitError(
            f"diagram has {diagram.crossing_count} crossings; limit is {max_crossings}"
        )
    known = diagram._homfly.get(resolution)
    if known is not None:
        return known
    budget = max_steps_limit(DEFAULT_SKEIN_STEPS)
    memo: dict = {}
    steps = 0

    def step() -> None:
        nonlocal steps
        steps += 1
        if steps > budget:
            raise ResourceLimitError(
                f"skein recursion reached {steps} steps on a diagram of "
                f"{diagram.crossing_count} crossings; limit is {budget} "
                "(set KCH_MAX_STEPS to raise)"
            )

    def compute(d: LinkDiagram) -> dict[tuple[int, int], int]:
        step()
        if d.crossing_count == 0:
            return _unlink(d.circles)
        successor, strands, order = _walk(d, resolution)
        key = _canonical_key(d, order)
        known = memo.get(key)
        if known is not None:
            return known
        value: dict[tuple[int, int], int] = {}
        shift = 0
        visited: set[int] = set()
        for arc in order:
            _, crossing, under = successor[arc]
            if crossing in visited:
                continue
            visited.add(crossing)
            if not under:
                continue
            # P(+) = a^-1 z P(0) + a^-2 P(-) and P(-) = a^2 P(+) - a z P(0)
            sign = d.signs[crossing]
            _add_shifted(value, compute(smooth_crossing(d, crossing)), shift - sign, 1, sign)
            shift -= 2 * sign
            step()
            d = switch_crossing(d, crossing)
        _add_shifted(value, _unlink(strands + d.circles), shift, 0, 1)
        value = {exps: c for exps, c in value.items() if c}
        memo[key] = value
        return value

    result = _to_laurent(compute(diagram))
    diagram._homfly[resolution] = result
    return result

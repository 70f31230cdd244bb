"""The two-variable skein polynomial of an oriented link diagram.

Convention: a * P(+) - a^{-1} * P(-) = z * P(0) with P(unknot) = 1, so

    P(+) = a^{-1} z P(0) + a^{-2} P(-)
    P(-) = a^2 P(+) - a z P(0).

The recursion walks the diagram component by component from fixed base
points; the first crossing whose first passage runs under is resolved by the
matching rule above.  Switching that crossing leaves the strand cycles and
every earlier first-passage untouched while making the pivot descending, and
smoothing drops a crossing, so the recursion terminates.  A fully descending
diagram is an unlink and contributes delta^(components-1) with
delta = (a - a^{-1}) z^{-1}.

``resolution`` rotates each component's base point, reordering the pivots;
the result must not change, which the test suite exercises.

The recursion runs on integer coefficients: a polynomial is a dict
{(e_a, e_z): int}, each rule term is an exponent shift with a signed integer
add, and the result becomes a ``LaurentPolynomial`` once, at the end, which
stores the integers as they are.  Every node walks its strands once, for both
its memo key and its pivot.  The finished polynomial is stored on the
(immutable) diagram per resolution, so the Wilson evaluations of a diagram
that already has it make no skein step; the crossing cap is still checked on
every call.  Distinct diagram objects share nothing, even when they are
equal.
"""

from __future__ import annotations

from math import comb

from .errors import ResourceLimitError, max_steps_limit
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


def _first_wrong_crossing(successor: dict, order: list[int]) -> int | None:
    """Index of the first crossing met underneath on its first passage."""
    visited: set[int] = set()
    for arc in order:
        _, crossing, under = successor[arc]
        if crossing in visited:
            continue
        visited.add(crossing)
        if under:
            return crossing
    return None


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

    def compute(d: LinkDiagram) -> dict[tuple[int, int], int]:
        nonlocal steps
        steps += 1
        if steps > budget:
            raise ResourceLimitError(
                f"skein recursion exceeded {budget} steps (set KCH_MAX_STEPS to raise)"
            )
        if d.crossing_count == 0:
            return _unlink(d.circles)
        successor, strands, order = _walk(d, resolution)
        key = _canonical_key(d, order)
        known = memo.get(key)
        if known is not None:
            return known
        pivot = _first_wrong_crossing(successor, order)
        if pivot is None:
            value = _unlink(strands + d.circles)
        else:
            value = {}
            if d.signs[pivot] > 0:
                # P(+) = a^-1 z P(0) + a^-2 P(-)
                _add_shifted(value, compute(smooth_crossing(d, pivot)), -1, 1, 1)
                _add_shifted(value, compute(switch_crossing(d, pivot)), -2, 0, 1)
            else:
                # P(-) = a^2 P(+) - a z P(0)
                _add_shifted(value, compute(switch_crossing(d, pivot)), 2, 0, 1)
                _add_shifted(value, compute(smooth_crossing(d, pivot)), 1, 1, -1)
            value = {exps: c for exps, c in value.items() if c}
        memo[key] = value
        return value

    result = _to_laurent(compute(diagram))
    diagram._homfly[resolution] = result
    return result

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
"""

from __future__ import annotations

from .errors import ResourceLimitError, max_steps_limit
from .laurent import LaurentPolynomial
from .pd import LinkDiagram, smooth_crossing, switch_crossing
from .scalars import Scalar

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
    return LaurentPolynomial(
        HOMFLY_VARIABLES,
        {(1, -1): Scalar.of(1), (-1, -1): Scalar.of(-1)},
    )


def _traversal_order(diagram: LinkDiagram, rotation: int) -> list[int]:
    """Arcs in walking order: components sorted by least arc, bases rotated."""
    order = []
    for cycle in diagram.component_cycles():
        offset = rotation % len(cycle)
        order.extend(cycle[offset:] + cycle[:offset])
    return order


def _canonical_key(diagram: LinkDiagram, rotation: int):
    relabel = {arc: idx + 1 for idx, arc in enumerate(_traversal_order(diagram, rotation))}
    records = tuple(
        sorted(
            (tuple(relabel[label] for label in record), sign)
            for record, sign in zip(diagram.crossings, diagram.signs)
        )
    )
    return records, diagram.circles


def _first_wrong_crossing(diagram: LinkDiagram, rotation: int) -> int | None:
    """Index of the first crossing met underneath on its first passage."""
    successor = diagram.successor_map()
    visited: set[int] = set()
    for arc in _traversal_order(diagram, rotation):
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
    """Skein polynomial in (a, z); independent of the resolution order."""
    if diagram.crossing_count > max_crossings:
        raise ResourceLimitError(
            f"diagram has {diagram.crossing_count} crossings; limit is {max_crossings}"
        )
    budget = max_steps_limit(DEFAULT_SKEIN_STEPS)
    memo: dict = {}
    one = LaurentPolynomial.one(HOMFLY_VARIABLES)
    unlink_extra = delta()

    a_pow = {
        exp: LaurentPolynomial.monomial(HOMFLY_VARIABLES, (exp, 0)) for exp in (-2, -1, 1, 2)
    }
    z_poly = LaurentPolynomial.monomial(HOMFLY_VARIABLES, (0, 1))

    steps = 0

    def compute(d: LinkDiagram) -> LaurentPolynomial:
        nonlocal steps
        steps += 1
        if steps > budget:
            raise ResourceLimitError(
                f"skein recursion exceeded {budget} steps (set KCH_MAX_STEPS to raise)"
            )
        if d.crossing_count == 0:
            return unlink_extra ** (d.circles - 1) if d.circles > 1 else one
        key = _canonical_key(d, resolution)
        known = memo.get(key)
        if known is not None:
            return known
        pivot = _first_wrong_crossing(d, resolution)
        if pivot is None:
            count = d.component_count
            value = unlink_extra ** (count - 1) if count > 1 else one
        elif d.signs[pivot] > 0:
            value = a_pow[-1] * z_poly * compute(smooth_crossing(d, pivot)) + a_pow[
                -2
            ] * compute(switch_crossing(d, pivot))
        else:
            value = a_pow[2] * compute(switch_crossing(d, pivot)) - a_pow[
                1
            ] * z_poly * compute(smooth_crossing(d, pivot))
        memo[key] = value
        return value

    return compute(diagram)

"""The two-variable skein polynomial of an oriented link diagram.

Convention: a * P(+) - a^{-1} * P(-) = z * P(0) with P(unknot) = 1, so

    P(+) = a^{-1} z P(0) + a^{-2} P(-)
    P(-) = a^2 P(+) - a z P(0).

The recursion runs on raw parts (crossings, signs, circles) and builds no
``LinkDiagram`` past the one it is given.  Before it starts, the kinks and
cancelling bigons of a planar diagram are taken out once, by Reidemeister I
and II moves (``kch.pd._reduced``); the crossing cap reads the diagram as
given.  Each diagram's memo key numbers its arcs component by component
from each least arc, whatever the ``resolution``.  Its wrong crossings
(first passage under) are read along a descending walk chosen per diagram
to leave few of them: each component from its best base point, the search
starting ``resolution`` arcs past its least arc, components topmost first
(``_descending_walk``); any walk gives the same result.  Switching one
leaves the strand cycles and every other first passage untouched, so they
are resolved along one chain in walking order: each adds its smoothing
times the rule's monomial times a^shift, shift steps by -2 (positive) or +2
(negative), and all but the last (nothing reads it) are switched in place on
the chain's own lists.  The chain ends descending, an unlink worth
a^shift * delta^(components-1), delta = (a - a^{-1}) z^{-1}.  Strands come
from ``kch.pd._strands`` and edits from its kernels ``_smoothed`` and
``_switch``, the rules of its public edits.

Coefficients are integers: a polynomial is a dict {(e_a, e_z): int} until it
becomes a ``LaurentPolynomial``.  A skein step, capped by ``KCH_MAX_STEPS``,
is one diagram recursed on or one wrong crossing followed.  The result is
kept on the diagram per resolution (the crossing cap is checked on every
call); distinct diagram objects share nothing.  ``SKEIN_COUNTERS`` sums the
work of every call, added once per call from locals, the crossings the moves
removed included.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import lru_cache
from itertools import accumulate, chain, count
from math import comb
from types import MappingProxyType

from .errors import DomainError, ResourceLimitError, check_count, max_steps_limit
from .laurent import LaurentPolynomial, _make
from .pd import LinkDiagram, _cycles, _reduced, _smoothed, _strands, _switch
# unused: perfbench's tracer wraps and restores these two names in this module
from .pd import smooth_crossing, switch_crossing  # noqa: F401

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


# skein work summed over all ``homfly`` calls: "crossings_removed" by the
# moves made first, "nodes" (diagrams walked), "memo_hits" among them,
# "smoothings" and "switches"
SKEIN_COUNTERS: Counter = Counter()


def delta() -> LaurentPolynomial:
    """Value of one extra unlinked circle: (a - a^{-1}) z^{-1}."""
    return _make(HOMFLY_VARIABLES, _unlink(2))


@lru_cache(maxsize=64)
def _unlink(components: int) -> MappingProxyType:
    """delta^(components-1) = z^-n sum_j C(n, j) (-1)^j a^(n-2j), n = components-1;
    one shared read-only view per count."""
    n = components - 1
    return MappingProxyType({(n - 2 * j, -n): (-1) ** j * comb(n, j) for j in range(n + 1)})


def _add_shifted(acc: dict, poly: Mapping, d_a: int, d_z: int, sign: int) -> None:
    """acc += sign * a^d_a z^d_z * poly, on integer coefficients."""
    for (e_a, e_z), c in poly.items():
        key = (e_a + d_a, e_z + d_z)
        acc[key] = acc.get(key, 0) + sign * c


def _descending_walk(cycles, crossings, over_in, resolution: int) -> dict[int, int]:
    """Arc -> position along a walk that meets few crossings under-first.

    Each component starts at the base with the fewest self-crossings met
    under-first, searched from ``resolution`` arcs past its least arc (a tie
    goes to the first found): moving the base past an arc changes that count
    by -1 if the arc arrives under at a self-crossing, +1 if over.  Components
    go topmost first, greedily: each time the one under the fewest crossings
    with those left.
    """
    owner = {arc: c for c, cycle in enumerate(cycles) for arc in cycle}
    moved = dict.fromkeys(owner, 0)
    # under[i][j]: crossings at which component i passes under component j
    under = [[0] * len(cycles) for _ in cycles]
    for record, over in zip(crossings, over_in):
        low, high = owner[record[0]], owner[over]
        if low == high:
            moved[record[0]], moved[over] = -1, 1
        else:
            under[low][high] += 1
    left = list(range(len(cycles)))
    cost = [sum(row) for row in under]
    walk: dict[int, int] = {}
    while left:
        top = min(left, key=cost.__getitem__)
        left.remove(top)
        for c in left:
            cost[c] -= under[c][top]
        cycle = cycles[top]
        start = resolution % len(cycle)
        cycle = cycle[start:] + cycle[:start]
        wrong = list(accumulate([moved[arc] for arc in cycle[:-1]], initial=0))
        base = wrong.index(min(wrong))
        walk.update(zip(cycle[base:] + cycle[:base], count(len(walk))))
    return walk


def homfly(
    diagram: LinkDiagram,
    *,
    resolution: int = 0,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> LaurentPolynomial:
    """Skein polynomial in (a, z); independent of ``resolution``.

    The finished polynomial is kept on the diagram per resolution, so asking
    again for the same diagram object makes no skein step.
    """
    if not isinstance(diagram, LinkDiagram):
        raise DomainError(f"expected a LinkDiagram, got {type(diagram).__name__}")
    check_count(resolution, "resolution", least=None)
    check_count(max_crossings, "max_crossings")
    if diagram.crossing_count > max_crossings:
        raise ResourceLimitError(
            f"diagram has {diagram.crossing_count} crossings; limit is {max_crossings}"
        )
    known = diagram._homfly.get(resolution)
    if known is not None:
        return known
    root = _reduced(diagram.crossings, diagram.signs, diagram.circles)
    budget = max_steps_limit(DEFAULT_SKEIN_STEPS)
    memo: dict = {}
    steps = nodes = hits = smoothings = switches = 0

    def step() -> None:
        nonlocal steps
        steps += 1
        if steps > budget:
            raise ResourceLimitError(
                f"skein recursion reached {steps} steps on a diagram of "
                f"{diagram.crossing_count} crossings ({len(root[0])} after Reidemeister "
                f"I/II moves); limit is {budget} "
                "(set KCH_MAX_STEPS to raise)"
            )

    def compute(crossings, signs, circles: int) -> Mapping[tuple[int, int], int]:
        nonlocal nodes, hits, smoothings, switches
        step()
        if not crossings:
            return _unlink(circles)
        nodes += 1
        # the key's walk: components sorted by least arc, each from its least
        # arc; ``position`` numbers the arcs in that order
        successor, over_in = _strands(crossings, signs)
        cycles = _cycles(successor)
        position = {arc: i for i, arc in enumerate(chain.from_iterable(cycles), 1)}
        records = sorted(
            [((position[a], position[b], position[c], position[d]), sign)
             for (a, b, c, d), sign in zip(crossings, signs)]
        )
        key = tuple(records), circles
        known = memo.get(key)
        if known is not None:
            hits += 1
            return known
        # wrong crossings, in descending walk order: under-strand arrival first
        walk = _descending_walk(cycles, crossings, over_in, resolution)
        wrong = sorted(
            [(walk[record[0]], k)
             for k, (record, arrive) in enumerate(zip(crossings, over_in))
             if walk[record[0]] < walk[arrive]]
        )
        value, shift = {}, 0
        if wrong:
            crossings, signs = list(crossings), list(signs)
            last = wrong[-1][1]
        for _, k in wrong:
            # P(+) = a^-1 z P(0) + a^-2 P(-) and P(-) = a^2 P(+) - a z P(0)
            sign = signs[k]
            smoothings += 1
            smoothed = compute(*_smoothed(crossings, signs, circles, k))
            _add_shifted(value, smoothed, shift - sign, 1, sign)
            shift -= 2 * sign
            step()
            if k != last:
                switches += 1
                _switch(crossings, signs, k)
        _add_shifted(value, _unlink(len(cycles) + circles), shift, 0, 1)
        value = {exps: c for exps, c in value.items() if c}
        memo[key] = value
        return value

    try:
        value = compute(*root)
    finally:
        SKEIN_COUNTERS.update(
            crossings_removed=diagram.crossing_count - len(root[0]),
            nodes=nodes,
            memo_hits=hits,
            smoothings=smoothings,
            switches=switches,
        )
    result = diagram._homfly[resolution] = _make(HOMFLY_VARIABLES, value)
    return result

"""Planar diagram codes for oriented links.

Input format: statements separated by ``;``, each either the literal
``UNKNOT`` (a crossing-free circle) or ``X[a,b,c,d]`` with positive integer
arc labels listed counterclockwise starting from the incoming under-strand;
labels are ASCII digits and whitespace is ``string.whitespace``.
Slot 0 is therefore the under-strand arriving, slot 2 the under-strand
leaving, and slots 1 and 3 carry the over-strand.  The over-strand direction
is not written down; it is inferred by walking each strand.  Slot k of
crossing i is the position 4i + k.  A strand that enters at position p
leaves at p ^ 2 and enters next at the other end of the arc it leaves on.
A walk starts at every crossing's slot 0; an over-strand that enters at
slot 3 makes its crossing positive, at slot 1 negative.  A component whose
arcs touch only over-slots admits both orientations: a walk then starts at
slot 3 of each crossing no walk has reached, lowest first, so that crossing
is positive and parsing is deterministic.  A strand entered from both
sides is an orientation inconsistency.

A ``LinkDiagram`` is immutable.  The public constructor checks every arc;
``switch_crossing`` and ``smooth_crossing`` check only the crossing index and
build their result through ``_make``, because an edit of a valid diagram is
valid by construction.  Each edit rule lives in one private kernel on raw
parts, ``_switch`` (in place on lists) and ``_smoothed`` (crossings, signs,
circles), which the skein recursion of ``kch.homfly`` calls as well, and the
slot rule of the strands lives in ``_strands``, which it reads too.  Each
diagram carries a private slot in which ``kch.homfly`` keeps the polynomials
it has finished for it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from string import whitespace

from .errors import DomainError, ParseError, check_count

Crossing = tuple[int, int, int, int]

_X_STATEMENT = re.compile(
    r"X\s*\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]", re.ASCII
)


@dataclass(frozen=True)
class LinkDiagram:
    """An oriented link diagram: crossing records, their signs, free circles."""

    crossings: tuple[Crossing, ...]
    signs: tuple[int, ...]
    circles: int = 0
    # resolution -> finished skein polynomial, filled by ``kch.homfly``
    _homfly: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if type(self.crossings) is not tuple or type(self.signs) is not tuple:
            raise DomainError("crossings and signs must be tuples")
        if len(self.signs) != len(self.crossings):
            raise DomainError("need exactly one sign per crossing")
        if any(type(s) is not int or s not in (-1, 1) for s in self.signs):
            raise DomainError("crossing signs must be +1 or -1")
        check_count(self.circles, "circle count")
        if self.circles == 0 and not self.crossings:
            raise DomainError("a diagram needs at least one component")
        for record in self.crossings:
            if type(record) is not tuple or len(record) != 4 or any(
                type(label) is not int or label <= 0 for label in record
            ):
                raise DomainError("a crossing is a tuple of four positive integer arc labels")
        # each crossing has two arrivals; a repeated one loses a key, and a
        # repeated departure leaves a key that no arc leads to
        successor = _strands(self.crossings, self.signs)[0]
        if len(successor) != 2 * len(self.crossings) or successor.keys() != set(
            successor.values()
        ):
            raise DomainError("every arc must enter one crossing and leave one crossing")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def writhe(self) -> int:
        return sum(self.signs)

    def component_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Arc cycles of the strands, each starting at its smallest label."""
        return tuple(map(tuple, _cycles(_strands(self.crossings, self.signs)[0])))

    @property
    def component_count(self) -> int:
        return len(self.component_cycles()) + self.circles


def _strands(crossings, signs) -> tuple[dict[int, int], list[int]]:
    """The strands of raw parts: arc -> next arc, and the arc on which each
    crossing's over-strand arrives.  The under-strand runs slot 0 -> 2, the
    over-strand 3 -> 1 when the crossing is positive, 1 -> 3 when negative."""
    successor: dict[int, int] = {}
    over_in = []
    for (a, b, c, d), sign in zip(crossings, signs):
        arrive, leave = (d, b) if sign > 0 else (b, d)
        successor[a] = c
        successor[arrive] = leave
        over_in.append(arrive)
    return successor, over_in


def _cycles(successor: dict[int, int]) -> list[list[int]]:
    """Arc cycles of a successor map, sorted by their smallest label, each
    starting there."""
    seen: set[int] = set()
    cycles = []
    for start in sorted(successor):
        if start in seen:
            continue
        cycle = [start]
        arc = successor[start]
        while arc != start:
            cycle.append(arc)
            arc = successor[arc]
        seen.update(cycle)
        cycles.append(cycle)
    return cycles


def _make(crossings: tuple[Crossing, ...], signs: tuple[int, ...], circles: int) -> LinkDiagram:
    """A diagram from parts known to be valid; checks nothing."""
    diagram = object.__new__(LinkDiagram)
    object.__setattr__(diagram, "crossings", crossings)
    object.__setattr__(diagram, "signs", signs)
    object.__setattr__(diagram, "circles", circles)
    object.__setattr__(diagram, "_homfly", {})
    return diagram


def parse_pd(text: str) -> LinkDiagram:
    """Parse the PD format, inferring orientations and crossing signs."""
    statements = [piece.strip(whitespace) for piece in text.split(";")]
    statements = [piece for piece in statements if piece]
    if not statements:
        raise ParseError("empty diagram text")
    crossings: list[Crossing] = []
    circles = 0
    for idx, statement in enumerate(statements, start=1):
        if statement == "UNKNOT":
            circles += 1
            continue
        match = _X_STATEMENT.fullmatch(statement)
        if match is None:
            raise ParseError(f"statement {idx}: expected X[a,b,c,d] or UNKNOT, got {statement!r}")
        try:
            labels = tuple(map(int, match.groups()))
        except ValueError:  # past Python's int conversion limit
            raise ParseError(f"statement {idx}: arc label too long to convert") from None
        if 0 in labels:
            raise ParseError(f"statement {idx}: arc labels must be positive")
        crossings.append(labels)

    ends: dict[int, list[int]] = {}  # arc -> the positions 4k + slot of its two ends
    for k, record in enumerate(crossings):
        for slot, label in enumerate(record):
            ends.setdefault(label, []).append(4 * k + slot)
    for label, found in sorted(ends.items()):
        if len(found) != 2:
            raise ParseError(f"arc {label} appears {len(found)} times; every arc appears exactly twice")

    return LinkDiagram(tuple(crossings), _infer_signs(crossings, ends), circles)


def _infer_signs(crossings: list[Crossing], ends: dict[int, list[int]]) -> tuple[int, ...]:
    """Each crossing's sign from one walk along each strand (see the module
    docstring).  A strand is keyed by its lower slot position (slot 0 or 1)
    and records the position at which the walk entered it."""
    entered: dict[int, int] = {}
    signs = [0] * len(crossings)

    def walk(position: int) -> None:
        while (known := entered.get(position & ~2)) != position:
            if known is not None:
                raise ParseError(f"orientation inconsistency at crossing {position // 4 + 1}")
            entered[position & ~2] = position
            if position & 1:
                signs[position // 4] = 1 if position & 2 else -1
            leave = position ^ 2
            position = sum(ends[crossings[leave // 4][leave % 4]]) - leave

    for k in range(len(crossings)):
        walk(4 * k)
    for k in range(len(crossings)):
        if not signs[k]:
            walk(4 * k + 3)
    return tuple(signs)


def _check_index(diagram: LinkDiagram, index: int) -> None:
    check_count(index, "crossing index")
    if index >= diagram.crossing_count:
        raise DomainError(f"no crossing {index}")


def _switch(crossings: list, signs: list, index: int) -> None:
    """Switch one crossing in place: its record is rotated so the new
    under-strand arrival sits in slot 0, and its sign flips."""
    a, b, c, d = crossings[index]
    crossings[index] = (d, a, b, c) if signs[index] > 0 else (b, c, d, a)
    signs[index] = -signs[index]


def switch_crossing(diagram: LinkDiagram, index: int) -> LinkDiagram:
    """Exchange over- and under-strand at one crossing, flipping its sign.

    All other crossings and the inferred orientations are untouched.
    """
    _check_index(diagram, index)
    crossings, signs = list(diagram.crossings), list(diagram.signs)
    _switch(crossings, signs, index)
    return _make(tuple(crossings), tuple(signs), diagram.circles)


def smooth_crossing(diagram: LinkDiagram, index: int) -> LinkDiagram:
    """Replace one crossing by the oriented smoothing (see ``_smoothed``)."""
    _check_index(diagram, index)
    return _make(*_smoothed(diagram.crossings, diagram.signs, diagram.circles, index))


def _smoothed(crossings, signs, circles: int, index: int):
    """Parts (crossings, signs, circles) of the oriented smoothing at ``index``;
    ``crossings`` and ``signs`` may be tuples or lists, tuples come back.

    Entering and leaving arcs are joined respecting orientation (positive:
    slot 0 to slot 1 and slot 3 to slot 2; negative: slot 0 to slot 3 and
    slot 1 to slot 2).  Each join renames the higher of its two labels to the
    lower, after the earlier join's rename; a join whose two ends already
    carry one label closes a free circle.  The at most two renames are then
    applied to the other crossings that carry a renamed label.
    """
    a, b, c, d = crossings[index]
    joins = ((a, b), (d, c)) if signs[index] > 0 else ((a, d), (b, c))
    rename: dict[int, int] = {}
    for x, y in joins:
        x, y = rename.get(x, x), rename.get(y, y)
        if x == y:
            circles += 1
            continue
        low, high = (x, y) if x < y else (y, x)
        for label, target in rename.items():
            if target == high:
                rename[label] = low
        rename[high] = low
    renamed, get = rename.keys(), rename.get
    kept = [
        record if renamed.isdisjoint(record) else tuple(map(get, record, record))
        for record in (*crossings[:index], *crossings[index + 1 :])
    ]
    return tuple(kept), (*signs[:index], *signs[index + 1 :]), circles

"""Frozen skein polynomials and a reference oriented smoothing.

The strings were printed by a recursion that walked every diagram it met,
switched intermediates included, with one recursive call per switch and a
union-find smoothing; they hold at every resolution.  Any later recursion
must print the same text byte for byte.  The strata diagrams are braid
closures from the benchmark's knot table, one from the middle of each of its
15 cost strata, copied here as PD text.
"""

import pytest

from kch.homfly import homfly
from kch.pd import LinkDiagram, parse_pd, smooth_crossing
from test_homfly import BRAID_CLOSURES, all_diagrams

RESOLUTIONS = (0, 1, 3)

BRAID_CLOSURE_POLYNOMIALS = [
    '1',
    'a^-4 - 2*a^-2 + 2 + a^-4*z^2 - 3*a^-2*z^2 + z^2 - a^-2*z^4',
    '-2*a*z^-1 + 3*a^3*z^-1 - a^5*z^-1 - 2*a*z + 3*a^3*z - a^5*z + a^3*z^3',
    '-a^5*z^-1 + 2*a^9*z^-1 - a^11*z^-1 - 5*a^5*z + a^7*z + 2*a^9*z - 5*a^5*z^3 - a^5*z^5',
]

# (strands, braid word), PD text of its closure, polynomial
STRATA = [
    (
        # (4, [-3, 3, -3, 3, -1, 1, 2, -1, -3])
        'X[4,6,5,3];X[5,6,8,7];X[8,10,9,7];X[9,10,12,11];X[2,14,13,1];'
        'X[13,14,16,15];X[16,11,18,17];X[17,2,1,15];X[12,4,3,18]',
        '1',
    ),
    (
        # (3, [2, -2, -2, -1, -2, -2, -2, 2])
        'X[2,3,5,4];X[5,7,6,4];X[7,9,8,6];X[8,10,1,1];X[9,12,11,10];'
        'X[12,14,13,11];X[14,16,15,13];X[15,16,3,2]',
        '-a^-4 + 2*a^-2 + a^-2*z^2',
    ),
    (
        # (4, [-1, 3, 3, 3, 1, -2, -2, 3])
        'X[2,6,5,1];X[3,4,8,7];X[7,8,10,9];X[9,10,12,11];X[5,6,13,1];'
        'X[11,15,14,13];X[15,16,2,14];X[16,12,4,3]',
        (
            '-a^-1*z^-3 + 3*a*z^-3 - 3*a^3*z^-3 + a^5*z^-3 - 3*a^-1*z^-1'
            ' + 8*a*z^-1 - 7*a^3*z^-1 + 2*a^5*z^-1 - a^-1*z + 5*a*z - 5*a^3*z'
            ' + a^5*z + a*z^3 - a^3*z^3'
        ),
    ),
    (
        # (4, [1, 3, 3, 3, -1, 1, -2, 1, -1, -3, 3])
        'X[1,2,6,5];X[3,4,8,7];X[7,8,10,9];X[9,10,12,11];X[6,14,13,5];'
        'X[13,14,16,15];X[11,18,17,16];X[15,17,20,19];X[20,2,1,19];'
        'X[12,22,21,18];X[21,22,4,3]',
        '2*a^2 - a^4 + a^2*z^2',
    ),
    (
        # (5, [-1, -2, -2, -4, -4, 3, 3, 1, 4])
        'X[2,7,6,1];X[3,9,8,7];X[9,11,10,8];X[5,13,12,4];X[13,15,14,12];'
        'X[11,14,17,16];X[16,17,18,3];X[6,10,2,1];X[18,15,5,4]',
        (
            '-a^-3*z^-3 + 3*a^-1*z^-3 - 3*a*z^-3 + a^3*z^-3 - a^-3*z^-1'
            ' + 3*a^-1*z^-1 - 3*a*z^-1 + a^3*z^-1 + a^-1*z - a*z'
        ),
    ),
    (
        # (4, [-1, -2, 2, -1, -2, -3, -2, 1, -1, 2, 1, -2])
        'X[2,6,5,1];X[3,8,7,6];X[7,8,10,9];X[9,12,11,5];X[10,14,13,12];'
        'X[4,4,15,14];X[15,17,16,13];X[11,16,19,18];X[19,21,20,18];'
        'X[21,17,23,22];X[20,22,24,1];X[23,3,2,24]',
        '-a^-5*z^-1 + a^-3*z^-1 + a^-3*z + a^-1*z',
    ),
    (
        # (5, [1, -4, -3, 2, 2, -4, -3, -3])
        'X[1,2,6,1];X[5,8,7,4];X[7,10,9,3];X[6,9,12,11];X[11,12,13,2];'
        'X[8,5,14,10];X[14,16,15,13];X[16,4,3,15]',
        (
            'a^-4*z^-2 - 2*a^-2*z^-2 + z^-2 + 2*a^-4 - 5*a^-2 + 3 + a^-4*z^2'
            ' - 4*a^-2*z^2 + z^2 - a^-2*z^4'
        ),
    ),
    (
        # (4, [-1, 1, 1, -3, -2, -2, 1, 2, -2, -1, 3])
        'X[2,6,5,1];X[5,6,8,7];X[7,8,10,9];X[4,12,11,3];X[11,14,13,10];'
        'X[14,16,15,13];X[9,15,18,17];X[18,16,20,19];X[20,22,21,19];'
        'X[21,2,1,17];X[22,12,4,3]',
        'a^-4*z^-2 - 2*a^-2*z^-2 + z^-2 - a^-2 + 1',
    ),
    (
        # (3, [1, -2, 1, 2, -1, 2, -1, -1])
        'X[1,2,5,4];X[3,7,6,5];X[4,6,9,8];X[9,7,11,10];X[10,13,12,8];'
        'X[13,11,3,14];X[14,16,15,12];X[16,2,1,15]',
        'a^-2*z^-2 - 2*z^-2 + a^2*z^-2 + a^-2 - 2 + a^2 - z^2',
    ),
    (
        # (5, [4, 2, 2, -1, 4, -3, 2, 4, -1])
        'X[4,5,7,6];X[2,3,9,8];X[8,9,11,10];X[10,13,12,1];X[6,7,15,14];'
        'X[14,17,16,11];X[13,16,3,18];X[17,15,5,4];X[18,2,1,12]',
        (
            '-2*a*z^-1 + 3*a^3*z^-1 - a^5*z^-1 - 3*a*z + 6*a^3*z - 4*a^5*z'
            ' + a^7*z - a*z^3 + 4*a^3*z^3 - 2*a^5*z^3 + a^3*z^5'
        ),
    ),
    (
        # (4, [3, -2, -2, -2, 3, 1, -1, 2, 1])
        'X[3,4,6,5];X[5,8,7,2];X[8,10,9,7];X[10,12,11,9];X[12,6,4,13];'
        'X[1,11,15,14];X[15,17,16,14];X[17,13,3,18];X[16,18,2,1]',
        '1',
    ),
    (
        # (4, [3, -3, -3, 1, -3, 1, -1, 2, -3, 2])
        'X[3,4,6,5];X[6,8,7,5];X[8,10,9,7];X[1,2,12,11];X[10,14,13,9];'
        'X[11,12,16,15];X[16,17,1,15];X[17,13,19,18];X[14,4,20,19];'
        'X[18,20,3,2]',
        '-a^-1*z^-1 + a*z^-1 + a^-3*z - 2*a^-1*z + a*z - a^-1*z^3',
    ),
    (
        # (3, [2, -1, -1, 1, -2, -2, -2, 1, 2, -1, 2])
        'X[2,3,5,4];X[4,7,6,1];X[7,9,8,6];X[8,9,11,10];X[5,13,12,11];'
        'X[13,15,14,12];X[15,17,16,14];X[10,16,19,18];X[19,17,21,20];'
        'X[20,22,1,18];X[22,21,3,2]',
        (
            '-2*a^-3*z^-1 + 3*a^-1*z^-1 - a*z^-1 - 3*a^-3*z + 8*a^-1*z'
            ' - 3*a*z - a^-3*z^3 + 5*a^-1*z^3 - a*z^3 + a^-1*z^5'
        ),
    ),
    (
        # (5, [4, -1, -4, -4, 3, 3, 2, 2, -4, -1, -3, -2])
        'X[4,5,7,6];X[2,9,8,1];X[7,11,10,6];X[11,13,12,10];X[3,12,15,14];'
        'X[14,15,17,16];X[9,16,19,18];X[18,19,21,20];X[13,5,22,17];'
        'X[20,23,1,8];X[22,4,24,21];X[24,3,2,23]',
        'a^-2*z^-2 - 2*z^-2 + a^2*z^-2 - a^-2*z^2 + 2*z^2 - a^2*z^2 + z^4',
    ),
    (
        # (4, [2, 3, 2, 2, -2, -3, -1, -1, -1, 2, -1, -3])
        'X[2,3,6,5];X[6,4,8,7];X[5,7,10,9];X[9,10,12,11];X[12,14,13,11];'
        'X[8,16,15,14];X[13,18,17,1];X[18,20,19,17];X[20,22,21,19];'
        'X[22,15,24,23];X[23,2,1,21];X[16,4,3,24]',
        (
            '-a^-5*z^-1 + 3*a^-3*z^-1 - 4*a^-1*z^-1 + 2*a*z^-1 - a^-5*z'
            ' + 4*a^-3*z - 4*a^-1*z + a*z + a^-3*z^3 - a^-1*z^3'
        ),
    ),
]


def union_find_smoothing(diagram, index):
    """(crossings, signs, circles) of the oriented smoothing, joining labels
    by union-find: each join links the two roots, the lower one kept."""
    a, b, c, d = diagram.crossings[index]
    joins = ((a, b), (d, c)) if diagram.signs[index] > 0 else ((a, d), (b, c))
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    circles = diagram.circles
    for x, y in joins:
        rx, ry = find(x), find(y)
        if rx == ry:
            circles += 1
        else:
            parent[max(rx, ry)] = min(rx, ry)
    kept = [k for k in range(diagram.crossing_count) if k != index]
    crossings = tuple(tuple(find(label) for label in diagram.crossings[k]) for k in kept)
    signs = tuple(diagram.signs[k] for k in kept)
    return crossings, signs, circles


def strata_diagrams():
    return [parse_pd(text) for text, _ in STRATA]


@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_braid_closures_print_frozen(resolution):
    for text, expected in zip(BRAID_CLOSURES, BRAID_CLOSURE_POLYNOMIALS):
        assert str(homfly(parse_pd(text), resolution=resolution)) == expected, text


@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_knot_table_strata_print_frozen(resolution):
    for text, expected in STRATA:
        assert str(homfly(parse_pd(text), resolution=resolution)) == expected, text


def test_smoothing_matches_union_find_reference(skein_edits):
    diagrams = all_diagrams() + strata_diagrams()
    for d in diagrams:
        homfly(d)
    # The recursion's own edits bring in diagrams with merged and kinked arcs.
    # A planar diagram has no arc from a crossing back to the same strand's
    # other end there; this non-planar one, which the constructor accepts,
    # has, so smoothing crossing 0 renames 3 to 2 and then 2 to 1.
    nonplanar = LinkDiagram(((2, 3, 2, 1), (3, 1, 4, 4)), (1, 1))
    for d in diagrams + list(skein_edits) + [nonplanar]:
        for index in range(d.crossing_count):
            smoothed = smooth_crossing(d, index)
            assert (smoothed.crossings, smoothed.signs, smoothed.circles) == (
                union_find_smoothing(d, index)
            ), (d, index)

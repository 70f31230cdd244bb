import random
import re
from itertools import product

import pytest

from kch.errors import DomainError, ParseError
from kch.homfly import BUNDLED_DIAGRAMS
from kch.pd import LinkDiagram, _strands, parse_pd, smooth_crossing, switch_crossing

RIGHT_TREFOIL = BUNDLED_DIAGRAMS["right_trefoil"]
LEFT_TREFOIL = BUNDLED_DIAGRAMS["left_trefoil"]
POSITIVE_HOPF = BUNDLED_DIAGRAMS["positive_hopf"]


def test_unknot_literal():
    d = parse_pd("UNKNOT")
    assert d.crossing_count == 0
    assert d.circles == 1
    assert d.component_count == 1
    two = parse_pd("UNKNOT;UNKNOT")
    assert two.circles == 2
    assert two.component_count == 2


def test_right_trefoil_parses_positive():
    d = parse_pd(RIGHT_TREFOIL)
    assert d.crossing_count == 3
    assert d.signs == (1, 1, 1)
    assert d.writhe() == 3
    assert d.component_count == 1


def test_left_trefoil_parses_negative():
    d = parse_pd(LEFT_TREFOIL)
    assert d.signs == (-1, -1, -1)
    assert d.writhe() == -3
    assert d.component_count == 1


def test_positive_hopf_link():
    d = parse_pd(POSITIVE_HOPF)
    assert d.signs == (1, 1)
    assert d.component_count == 2
    assert d.writhe() == 2


def test_kinks():
    pos = parse_pd(BUNDLED_DIAGRAMS["positive_kink"])
    neg = parse_pd(BUNDLED_DIAGRAMS["negative_kink"])
    assert pos.signs == (1,) and pos.writhe() == 1
    assert neg.signs == (-1,) and neg.writhe() == -1
    assert pos.component_count == neg.component_count == 1


def test_whitespace_and_separators():
    d = parse_pd("  X[1,4,2,3] ;\n X[4,1,3,2] ")
    assert d.crossing_count == 2


def test_successor_map_is_a_permutation():
    for text in BUNDLED_DIAGRAMS.values():
        d = parse_pd(text)
        succ = _strands(d.crossings, d.signs)[0]
        arcs = {label for record in d.crossings for label in record}
        assert sorted(succ) == sorted(arcs)
        assert sorted(succ.values()) == sorted(arcs)


def test_component_cycles_partition_arcs():
    d = parse_pd(RIGHT_TREFOIL)
    cycles = d.component_cycles()
    assert len(cycles) == 1
    assert sorted(cycles[0]) == sorted({label for record in d.crossings for label in record})
    hopf = parse_pd(POSITIVE_HOPF)
    assert len(hopf.component_cycles()) == 2


def test_three_component_example():
    # consistently oriented but a 3-component link, not a knot
    d = parse_pd("X[1,4,2,3];X[3,6,4,5];X[5,2,6,1]")
    assert d.crossing_count == 3
    assert d.component_count == 3
    assert {frozenset(c) for c in d.component_cycles()} == {
        frozenset({1, 2}),
        frozenset({3, 4}),
        frozenset({5, 6}),
    }


@pytest.mark.parametrize(
    "text",
    [
        "",
        "X[1,2,3]",
        "X[0,1,2,3]",
        "X[1,2,3,4]",  # arcs appear once
        "X[1,1,1,1]",
        "garbage",
        "X[1,4,2,3];X[4,1,3,2];X[1,4,2,3]",  # arcs appear three times
        # the grammar is ASCII: no Arabic-Indic digit or ideographic space
        "X[\u0661,\u0664,\u0662,\u0665];X[\u0665,\u0663,\u0666,\u0662];X[\u0663,\u0661,\u0664,\u0666]",
        "X[1,4,2,3];X[4,1,3,\u0662]",
        "\u3000X[1,4,2,3];X[4,1,3,2]",
        "X[1,4,2,3];X[4,1,3,2]\u3000",
        "X[1,\u30004,2,3];X[4,1,3,2]",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_pd(text)


def test_orientation_inconsistency_detected():
    # arc 1 would have to enter at both crossings (both slot-0 occurrences)
    with pytest.raises(ParseError) as err:
        parse_pd("X[1,2,3,4];X[1,4,3,2]")
    assert "orientation" in str(err.value)


INCONSISTENCY = re.compile(r"orientation inconsistency at crossing (\d+)")


def test_inconsistency_names_a_crossing():
    with pytest.raises(ParseError) as err:
        parse_pd("X[1,2,3,4];X[1,4,3,2]")
    match = INCONSISTENCY.fullmatch(str(err.value))
    assert match is not None and 1 <= int(match[1]) <= 2


def random_pairing(rng, n):
    """Records of n crossings whose 4n slots are paired into 2n arcs at random."""
    slots = rng.sample(range(4 * n), 4 * n)
    labels = [0] * (4 * n)
    for arc in range(2 * n):
        labels[slots[2 * arc]] = labels[slots[2 * arc + 1]] = arc + 1
    return tuple(tuple(labels[4 * k : 4 * k + 4]) for k in range(n))


def valid_signs(crossings):
    """Every sign vector the validating constructor accepts for ``crossings``."""
    found = []
    for signs in product((-1, 1), repeat=len(crossings)):
        try:
            LinkDiagram(crossings, signs)
        except DomainError:
            continue
        found.append(signs)
    return found


def test_orientation_matches_a_brute_force_search():
    # a pairing parses exactly when some sign vector orients every arc from
    # an exit to an entry; among those, the lowest crossing of each free
    # component is positive, which is the lexicographic maximum
    rng = random.Random(25)
    accepted = 0
    for _ in range(2000):
        n = rng.randint(1, 5)
        crossings = random_pairing(rng, n)
        text = ";".join("X[%d,%d,%d,%d]" % record for record in crossings)
        expected = valid_signs(crossings)
        try:
            d = parse_pd(text)
        except ParseError as err:
            assert expected == [], text
            match = INCONSISTENCY.fullmatch(str(err))
            assert match is not None and 1 <= int(match[1]) <= n, (text, str(err))
            continue
        accepted += 1
        assert d.crossings == crossings
        assert d.signs == max(expected), text
    assert 0 < accepted < 2000


def test_ambiguous_over_component_defaults_positive():
    # two-crossing diagram whose over strands leave the orientation free:
    # the lowest-index crossing is declared positive and the rest propagates
    d = parse_pd("X[1,3,2,4];X[2,3,1,4]")
    assert d.signs[0] == 1


def test_switch_crossing_signs_and_records():
    d = parse_pd(RIGHT_TREFOIL)
    flipped = switch_crossing(d, 0)
    assert flipped.signs[0] == -1
    assert flipped.signs[1:] == d.signs[1:]
    a, b, c, dd = d.crossings[0]
    assert flipped.crossings[0] == (dd, a, b, c)
    back = switch_crossing(flipped, 0)
    assert back.crossings == d.crossings
    assert back.signs == d.signs


def test_switch_negative_crossing():
    d = parse_pd(LEFT_TREFOIL)
    flipped = switch_crossing(d, 1)
    assert flipped.signs[1] == 1
    a, b, c, dd = d.crossings[1]
    assert flipped.crossings[1] == (b, c, dd, a)


def test_smooth_positive_crossing_merges_components():
    d = parse_pd(POSITIVE_HOPF)
    smoothed = smooth_crossing(d, 0)
    assert smoothed.crossing_count == 1
    assert smoothed.component_count == 1


def test_smooth_to_free_circle():
    d = parse_pd(BUNDLED_DIAGRAMS["positive_kink"])
    smoothed = smooth_crossing(d, 0)
    assert smoothed.crossing_count == 0
    assert smoothed.circles == 2 or smoothed.component_count == 2


def test_smooth_trefoil_gives_hopf_shape():
    d = parse_pd(RIGHT_TREFOIL)
    smoothed = smooth_crossing(d, 0)
    assert smoothed.crossing_count == 2
    assert smoothed.component_count == 2
    assert smoothed.signs == (1, 1)


def test_diagram_validation():
    with pytest.raises(DomainError):
        LinkDiagram(crossings=((1, 2, 3, 4),), signs=(1,), circles=0)
    with pytest.raises(DomainError):
        LinkDiagram(crossings=(), signs=(), circles=0)  # no components at all
    with pytest.raises(DomainError):
        LinkDiagram(crossings=(), signs=(1,), circles=1)  # sign count mismatch


@pytest.mark.parametrize(
    "crossings",
    [((1, 2, 3),), ((1, 2, "a", 4),), ((1, 2, 3, 4.0),), ([2, 1, 2, 1],), ((1, True, 1, True),)],
)
def test_malformed_crossing_records_are_domain_errors(crossings):
    with pytest.raises(DomainError):
        LinkDiagram(crossings, (1,))


@pytest.mark.parametrize(
    "crossings, signs",
    [(((1, 1, 2, 2),), (True,)), (((1, 1, 2, 2),), (1.0,)), ([(1, 1, 2, 2)], (1,)), (((1, 1, 2, 2),), [1])],
)
def test_non_integer_signs_and_untupled_parts_are_domain_errors(crossings, signs):
    with pytest.raises(DomainError):
        LinkDiagram(crossings, signs)


@pytest.mark.parametrize("circles", [1.0, "1", None])
def test_non_integer_circle_count_is_a_domain_error(circles):
    with pytest.raises(DomainError):
        LinkDiagram((), (), circles)


def test_writhe_of_twisted_unlink():
    d = parse_pd(BUNDLED_DIAGRAMS["twisted_unlink"])
    assert d.component_count == 2
    assert sorted(d.signs) == [-1, 1]
    assert d.writhe() == 0


@pytest.mark.parametrize("index", [1.0, "1", True, None])
def test_non_integer_crossing_index_is_a_domain_error(index):
    d = parse_pd("X[1,5,2,4];X[5,3,6,2];X[3,1,4,6]")
    for edit in (switch_crossing, smooth_crossing):
        with pytest.raises(DomainError, match="integer"):
            edit(d, index)

import random
import sys
import time
from itertools import chain

import pytest

from kch.errors import DomainError, ParseError, ResourceLimitError
from kch.homfly import BUNDLED_DIAGRAMS, DEFAULT_MAX_CROSSINGS, delta, homfly
from kch.laurent import LaurentPolynomial, parse_polynomial
from kch.pd import (
    LinkDiagram,
    _move,
    _planar,
    _reduced,
    parse_pd,
    smooth_crossing,
    switch_crossing,
)
from kch.scalars import Scalar
from test_pd import random_pairing

VARS = ("a", "z")

# closures of the braid words (5 strands) -2 -3 -2 3 2 -2 -1 -4,
# (3) -2 -2 -2 1 -1 1 -2 1, (3) -2 1 1 2 -1 -1 2 1 2 and
# (4) 3 3 1 2 -3 -3 3 2 3 1 2 2
BRAID_CLOSURES = [
    "X[3,7,6,2];X[4,9,8,7];X[8,11,10,6];X[11,9,13,12];X[10,12,15,14];X[15,3,16,14];"
    "X[16,2,1,1];X[5,5,4,13]",
    "X[3,5,4,2];X[5,7,6,4];X[7,9,8,6];X[1,8,11,10];X[11,13,12,10];X[12,13,15,14];"
    "X[9,3,16,15];X[14,16,2,1]",
    "X[3,5,4,2];X[1,4,7,6];X[6,7,9,8];X[9,5,11,10];X[10,13,12,8];X[13,15,14,12];"
    "X[15,11,17,16];X[14,16,18,1];X[18,17,3,2]",
    "X[3,4,6,5];X[5,6,8,7];X[1,2,10,9];X[10,7,12,11];X[8,14,13,12];X[14,16,15,13];"
    "X[15,16,18,17];X[11,17,20,19];X[20,18,4,21];X[9,19,22,1];X[22,21,24,23];X[23,24,3,2]",
]


def lp(text):
    return parse_polynomial(text, VARS)


def bundled(name):
    return parse_pd(BUNDLED_DIAGRAMS[name])


def all_diagrams():
    return [parse_pd(text) for text in [*BUNDLED_DIAGRAMS.values(), *BRAID_CLOSURES]]


def test_unknot_is_one():
    assert homfly(bundled("unknot")) == lp("1")


def test_two_component_unlink_is_delta():
    d = delta()
    assert d == lp("a*z^-1 - a^-1*z^-1")
    assert homfly(bundled("two_unlink")) == d
    assert homfly(parse_pd("UNKNOT;UNKNOT;UNKNOT")) == d * d


def test_right_trefoil_frozen():
    assert homfly(bundled("right_trefoil")) == lp("2*a^-2 - a^-4 + a^-2*z^2")


def test_left_trefoil_is_mirror():
    value = homfly(bundled("left_trefoil"))
    assert value == lp("2*a^2 - a^4 + a^2*z^2")


def test_positive_hopf_frozen():
    assert homfly(bundled("positive_hopf")) == lp("a^-1*z + a^-1*z^-1 - a^-3*z^-1")


def test_kinks_are_unknots():
    assert homfly(bundled("positive_kink")) == lp("1")
    assert homfly(bundled("negative_kink")) == lp("1")


def test_invariance_under_kinking():
    # adding a kink changes writhe but not the polynomial
    assert homfly(bundled("kinked_right_trefoil")) == homfly(bundled("right_trefoil"))


def test_twisted_unlink_is_unlink():
    assert homfly(bundled("twisted_unlink")) == delta()


def test_resolution_order_independence():
    for name, text in BUNDLED_DIAGRAMS.items():
        d = parse_pd(text)
        reference = homfly(d)
        for resolution in (1, 2, 3, 5):
            assert homfly(d, resolution=resolution) == reference, (name, resolution)


def test_skein_relation_at_every_crossing():
    a = lp("a")
    a_inv = lp("a^-1")
    z = lp("z")
    for name in ("right_trefoil", "left_trefoil", "positive_hopf", "twisted_unlink"):
        d = bundled(name)
        for i in range(d.crossing_count):
            smoothed = homfly(smooth_crossing(d, i))
            switched = homfly(switch_crossing(d, i))
            original = homfly(d)
            if d.signs[i] > 0:
                positive, negative = original, switched
            else:
                positive, negative = switched, original
            assert a * positive - a_inv * negative == z * smoothed, (name, i)


def test_max_crossings_budget():
    d = bundled("right_trefoil")
    with pytest.raises(ResourceLimitError):
        homfly(d, max_crossings=2)
    assert homfly(d, max_crossings=3) == homfly(d)
    assert DEFAULT_MAX_CROSSINGS >= 12


def test_skein_step_budget(monkeypatch):
    monkeypatch.setenv("KCH_MAX_STEPS", "1")
    with pytest.raises(ResourceLimitError):
        homfly(bundled("right_trefoil"))


def test_skein_budget_bounds_the_same_work(monkeypatch, skein_counters):
    reference = homfly(parse_pd(BRAID_CLOSURES[3]))
    # a step per diagram recursed on (the root and each smoothing) and per
    # wrong crossing followed, switched or not (the last of a chain is not):
    # 23 + 22 once the moves have taken out one bigon, against 54 + 53 on all
    # 12 crossings, and 283 + 282 = 565 when every diagram was walked from its
    # least arcs in least-arc order
    assert skein_counters["nodes"] == 1 + skein_counters["smoothings"]
    needed = skein_counters["nodes"] + skein_counters["smoothings"]
    assert needed == 45
    monkeypatch.setenv("KCH_MAX_STEPS", str(needed))
    assert homfly(parse_pd(BRAID_CLOSURES[3])) == reference
    monkeypatch.setenv("KCH_MAX_STEPS", str(needed - 1))
    message = (
        r"reached 45 steps on a diagram of 12 crossings \(10 after Reidemeister I/II "
        r"moves\); limit is 44 .*KCH_MAX_STEPS"
    )
    with pytest.raises(ResourceLimitError, match=message):
        homfly(parse_pd(BRAID_CLOSURES[3]))


# smoothings one homfly call makes on each BRAID_CLOSURES diagram, and
# switches: one per wrong crossing but the last of each chain, whose result
# nothing reads; the moves leave the first an unknot with no crossing
BRAID_CLOSURE_SMOOTHINGS = [0, 9, 11, 22]
BRAID_CLOSURE_SWITCHES = [0, 3, 4, 9]


def test_every_skein_edit_goes_through_the_pd_names(skein_counters, skein_edits):
    # every smoothing runs through the pd kernel, and the library counts it
    for text, smoothings, switches in zip(
        BRAID_CLOSURES, BRAID_CLOSURE_SMOOTHINGS, BRAID_CLOSURE_SWITCHES
    ):
        before = skein_counters["smoothings"], skein_counters["switches"], len(skein_edits)
        homfly(parse_pd(text))
        assert skein_counters["smoothings"] - before[0] == smoothings, text
        assert skein_counters["switches"] - before[1] == switches, text
        assert len(skein_edits) - before[2] == 2 * smoothings, text


def test_homfly_leaves_the_shared_unlink_values_unchanged():
    unlink = sys.modules["kch.homfly"]._unlink
    before = {n: dict(unlink(n)) for n in (1, 2, 3)}
    for _ in range(2):
        for name in ("unknot", "two_unlink", "positive_kink", "negative_kink"):
            homfly(bundled(name))
    assert {n: dict(unlink(n)) for n in (1, 2, 3)} == before
    with pytest.raises(TypeError):
        unlink(2)[(0, 0)] = 1


def test_skein_counters_keep_the_work_a_stopped_recursion_did(monkeypatch, skein_counters):
    monkeypatch.setenv("KCH_MAX_STEPS", "44")
    with pytest.raises(ResourceLimitError, match="reached 45 steps"):
        homfly(parse_pd(BRAID_CLOSURES[3]))
    # the step that stops it is the last wrong crossing of the root's chain
    assert (skein_counters["nodes"], skein_counters["smoothings"]) == (23, 22)
    assert (skein_counters["memo_hits"], skein_counters["switches"]) == (0, 9)
    assert skein_counters["crossings_removed"] == 2


@pytest.mark.parametrize(
    "options",
    [
        {"resolution": 1.5},
        {"resolution": "x"},
        {"resolution": True},
        {"max_crossings": None},
        {"max_crossings": "3"},
        {"max_crossings": False},
    ],
)
def test_non_integer_options_are_domain_errors(options):
    with pytest.raises(DomainError):
        homfly(bundled("right_trefoil"), **options)


def test_connected_sum_multiplies():
    # trefoil # trefoil via a shared strand relabeling
    text = "X[1,5,2,4];X[5,3,6,2];X[3,1,4,6]"
    t2 = "X[7,11,8,10];X[11,9,12,8];X[9,7,10,12]"
    # joining arc 1 and arc 7 into one strand: rename 7 -> 1 is not a valid
    # connected sum on PD codes without resplicing, so instead check the
    # disjoint union against delta * P^2
    union = parse_pd(text + ";" + t2)
    p = homfly(parse_pd(text))
    assert homfly(union, max_crossings=6) == delta() * p * p


def test_memoization_returns_fresh_equal_objects():
    d = bundled("right_trefoil")
    first = homfly(d)
    second = homfly(d)
    assert first == second


def test_memo_keeps_each_resolution_its_own_recursion(skein_counters):
    d = parse_pd(BRAID_CLOSURES[1])
    reference = homfly(d)
    walked = skein_counters["nodes"]
    assert homfly(d) == reference
    assert skein_counters["nodes"] == walked
    for resolution in (1, 2, 3, 5):
        before = skein_counters["smoothings"]
        assert homfly(d, resolution=resolution) == reference
        assert skein_counters["smoothings"] > before, resolution


def test_crossing_cap_holds_after_a_memo_hit():
    d = bundled("right_trefoil")
    homfly(d)
    with pytest.raises(ResourceLimitError):
        homfly(d, max_crossings=2)


def test_equal_diagrams_do_not_share_the_memo(skein_counters):
    homfly(parse_pd(BRAID_CLOSURES[1]))
    first = skein_counters["smoothings"]
    assert first
    homfly(parse_pd(BRAID_CLOSURES[1]))
    assert skein_counters["smoothings"] == 2 * first


def test_edits_equal_a_validated_rebuild(skein_edits, skein_counters):
    from test_frozen_homfly import STRATA  # which imports this module

    # the recursion starts from the parts the moves leave, so those are checked too
    for d in [*all_diagrams(), *(parse_pd(text) for text, _ in STRATA)]:
        homfly(d)
    assert len(skein_edits) == 2 * skein_counters["smoothings"] > 100
    for edited in skein_edits:
        rebuilt = LinkDiagram(edited.crossings, edited.signs, edited.circles)
        assert rebuilt == edited
        assert hash(rebuilt) == hash(edited)


def test_coefficients_are_integers():
    for d in all_diagrams():
        for _, coeff in homfly(d).terms():
            assert isinstance(coeff, Scalar)
            assert coeff.im == 0 and coeff.re.denominator == 1, coeff


def test_mirror_is_p_at_inverse_a_and_negative_z():
    for d in all_diagrams():
        mirror = d
        for index in range(d.crossing_count):
            mirror = switch_crossing(mirror, index)
        expected = LaurentPolynomial(
            VARS,
            [((-ea, ez), coeff if ez % 2 == 0 else -coeff) for (ea, ez), coeff in homfly(d).terms()],
        )
        assert homfly(mirror) == expected, d


def braid_closure(strands, word):
    """PD text of the closure of a braid word; +i is sigma_i, whose strand
    rising left to right runs under, and -i its inverse."""
    top = list(range(1, strands + 1))
    label = strands
    records = []
    for letter in word:
        i = abs(letter) - 1
        left, right = top[i], top[i + 1]
        label += 2
        top[i], top[i + 1] = label - 1, label
        records.append((left, right, label, label - 1) if letter > 0 else (right, label, label - 1, left))
    bottom = dict(zip(top, range(1, strands + 1)))
    return ";".join(
        "X[" + ",".join(str(bottom.get(arc, arc)) for arc in record) + "]" for record in records
    )


def random_braid_closures(count, seed):
    """Closures of seeded braids of 2-6 strands and 6-12 crossings, each
    generator used, so every strand meets a crossing."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        strands, crossings = rng.randint(2, 6), rng.randint(6, 12)
        word = list(range(1, strands)) + [
            rng.randrange(1, strands) for _ in range(crossings - strands + 1)
        ]
        rng.shuffle(word)
        texts.append(braid_closure(strands, [g if rng.random() < 0.5 else -g for g in word]))
    return texts


def reducible_braid_closures(count, seed):
    """Closures of seeded braids of 3-5 strands and 6-12 crossings with
    kinks and bigons to take out: each generator but the last used, one to
    three cancelling pairs sigma_i sigma_i^-1 put in, and the last generator
    used once more, so the last strand always ends in a kink."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        strands = rng.randint(3, 5)
        word = list(range(1, strands - 1)) + [
            rng.randrange(1, strands - 1) for _ in range(rng.randint(0, 2))
        ]
        rng.shuffle(word)
        word = [g if rng.random() < 0.5 else -g for g in word]
        for _ in range(rng.randint(1, 3)):
            g = rng.choice((1, -1)) * rng.randrange(1, strands)
            at = rng.randint(0, len(word))
            word[at:at] = [g, -g]
        word.insert(rng.randint(0, len(word)), rng.choice((1, -1)) * (strands - 1))
        texts.append(braid_closure(strands, word))
    return texts


# the skein rule's monomials: P(+) = a^-1 z P(0) + a^-2 P(-) and
# P(-) = a^2 P(+) - a z P(0); an extra unlinked circle is worth (a - a^-1)/z
POSITIVE_RULE = lp("a^-1*z"), lp("a^-2")
NEGATIVE_RULE = lp("-a*z"), lp("a^2")
CIRCLE = lp("a*z^-1 - a^-1*z^-1")


def fixed_base_homfly(d, resolution, known=None):
    """The skein recursion from fixed base points, shared with nothing:
    components in least-arc order, each walked from ``resolution`` arcs past
    its least arc; the first crossing met under-first costs one call for its
    smoothing and one for its switch.  ``known`` keeps the values of this one
    computation, keyed by the diagram as it stands."""
    known = {} if known is None else known
    if d in known:
        return known[d]
    cycles = [c[resolution % len(c):] + c[: resolution % len(c)] for c in d.component_cycles()]
    position = {arc: i for i, arc in enumerate(chain.from_iterable(cycles))}
    wrong = [
        k for k, ((under, b, _, over), sign) in enumerate(zip(d.crossings, d.signs))
        if position[under] < position[over if sign > 0 else b]
    ]
    if wrong:
        k = min(wrong, key=lambda k: position[d.crossings[k][0]])
        smoothing, switch = POSITIVE_RULE if d.signs[k] > 0 else NEGATIVE_RULE
        value = smoothing * fixed_base_homfly(
            smooth_crossing(d, k), resolution, known
        ) + switch * fixed_base_homfly(switch_crossing(d, k), resolution, known)
    else:
        value = CIRCLE ** (len(cycles) + d.circles - 1)
    known[d] = value
    return value


@pytest.mark.parametrize("resolution", range(4))
def test_descending_walks_agree_with_a_fixed_base_chain(resolution):
    for text in random_braid_closures(30, "fixed-base"):
        d = parse_pd(text)
        assert homfly(d, resolution=resolution) == fixed_base_homfly(d, resolution), text


def test_many_components_are_ordered_in_polynomial_time(skein_counters):
    # 6 disjoint Hopf links: 12 crossings, 12 components; the components are
    # ordered greedily, never over all 12! orders
    hopf = BUNDLED_DIAGRAMS["positive_hopf"]
    text = ";".join(
        "X[%d,%d,%d,%d];X[%d,%d,%d,%d]" % tuple(4 * i + arc for arc in (1, 4, 2, 3, 4, 1, 3, 2))
        for i in range(6)
    )
    d = parse_pd(text)
    assert d.component_count == 12
    started = time.perf_counter()
    value = homfly(d, max_crossings=12)
    assert time.perf_counter() - started < 1.0
    assert skein_counters["nodes"] == 64
    assert value == delta() ** 5 * homfly(parse_pd(hopf)) ** 6


def test_moves_take_out_a_kink_and_a_bigon():
    d = bundled("kinked_right_trefoil")
    trefoil = bundled("right_trefoil")
    assert _reduced(d.crossings, d.signs, d.circles) == (trefoil.crossings, trefoil.signs, 0)
    # closure of (2 strands) -1 -1 1 -1 -1: the middle pair is a bigon
    d = parse_pd("X[2,4,3,1];X[4,6,5,3];X[5,6,8,7];X[8,10,9,7];X[10,2,1,9]")
    assert d.signs == (1, 1, -1, 1, 1)
    assert _reduced(d.crossings, d.signs, d.circles) == (
        ((2, 4, 3, 1), (4, 10, 9, 3), (10, 2, 1, 9)), (1, 1, 1), 0
    )
    # a bigon between two circles: each join closes one
    d = bundled("twisted_unlink")
    assert _reduced(d.crossings, d.signs, d.circles) == ((), (), 2)


def test_moves_keep_the_polynomial_of_reducible_braid_closures(skein_counters):
    texts = reducible_braid_closures(40, "moves")
    for text in texts:
        d = parse_pd(text)
        assert homfly(d) == fixed_base_homfly(d, 0), text
    # every closure has a kink at least; most lose more
    assert skein_counters["crossings_removed"] >= 2 * len(texts)


def test_moves_keep_the_polynomial_of_random_pairings(monkeypatch):
    # random codes of 1-5 crossings that parse_pd accepts, planar or not.  The
    # recursion's value on a non-planar code depends on its walk, so the
    # reference is the same recursion with no moves; a planar code must also
    # match the fixed-base chain
    homfly_module = sys.modules["kch.homfly"]
    pd_module = sys.modules["kch.pd"]
    rng = random.Random("moves")
    accepted, planar, gated = [], 0, []
    for _ in range(1500):
        records = random_pairing(rng, rng.randint(1, 5))
        text = ";".join("X[%d,%d,%d,%d]" % record for record in records)
        try:
            d = parse_pd(text)
        except ParseError:
            continue
        value = homfly(d)
        accepted.append((text, value))
        if _planar(d.crossings):
            planar += 1
            assert value == fixed_base_homfly(d, 0), text
        elif _move(d.crossings, d.signs) is not None:
            gated.append((text, value))
    with monkeypatch.context() as patch:
        patch.setattr(homfly_module, "_reduced", lambda *parts: parts)
        for text, value in accepted:
            assert homfly(parse_pd(text)) == value, text
    assert len(accepted) == 742 and planar == 305 and len(gated) == 236
    # the face count is what keeps these: without it some polynomials change
    monkeypatch.setattr(pd_module, "_planar", lambda crossings: True)
    changed = [text for text, value in gated if homfly(parse_pd(text)) != value]
    assert len(changed) == 4


def test_planarity_is_counted_in_faces():
    # a braid closure draws on the sphere; X[1,2,1,2] has one face, not three
    closures = [*BRAID_CLOSURES, *reducible_braid_closures(20, "faces")]
    for text in [*BUNDLED_DIAGRAMS.values(), *closures]:
        assert _planar(parse_pd(text).crossings), text
    assert not _planar(parse_pd("X[1,2,1,2]").crossings)
    # two planar parts are planar together, a planar and a non-planar part are not
    assert _planar(parse_pd("X[1,1,2,2];X[3,4,4,3]").crossings)
    assert not _planar(parse_pd("X[1,1,2,2];X[3,4,3,4]").crossings)


def test_crossing_cap_holds_on_the_diagram_as_given(skein_counters):
    # 14 crossings, closure of (3 strands) -1 -1 -1, five pairs -1 1, then 2:
    # the moves leave the right trefoil, but the cap reads the given diagram
    d = parse_pd(braid_closure(3, [-1, -1, -1] + [-1, 1] * 5 + [2]))
    assert d.crossing_count == 14
    with pytest.raises(ResourceLimitError, match="diagram has 14 crossings; limit is 12"):
        homfly(d, max_crossings=12)
    assert skein_counters["crossings_removed"] == 0
    assert homfly(d, max_crossings=14) == homfly(bundled("right_trefoil"))
    assert skein_counters["crossings_removed"] == 11

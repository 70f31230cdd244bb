"""Generators and oracles of the benchmark, checked against the library and sympy."""

import collections
import itertools
import json
import random
from fractions import Fraction

import pytest

import generators as gen
import knot_table
import workloads
import kch


def first_requests(cls, seed, count):
    stream = cls(seed).requests()
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_same_seed_same_inputs(cls):
    assert first_requests(cls, 7, 2 * cls.cycle) == first_requests(cls, 7, 2 * cls.cycle)
    assert first_requests(cls, 7, cls.cycle) != first_requests(cls, 8, cls.cycle)


def test_cycles_keep_their_mix():
    knots = first_requests(workloads.KnotInvariants, 3, 40)
    texts = [r.payload[0] for r in knots]
    # one diagram of each of the 15 strata and 5 repeats per cycle
    assert len(set(texts)) == 30
    stratum_of = {text: k for k, stratum in enumerate(knot_table.load()) for text in stratum}
    for start in (0, 20):
        strata = [stratum_of[t] for t in texts[start : start + 20]]
        assert set(strata) == set(range(knot_table.STRATA))
        # three fresh diagrams and one repeat in each group of three strata
        assert collections.Counter(s // 3 for s in strata) == {g: 4 for g in range(5)}
    bands = [sorted(abs(n + k) for n, k in r.payload[1]) for r in knots]
    assert all(2 <= a <= 5 and 6 <= b <= 9 and 10 <= c <= 12 for a, b, c in bands)
    series = first_requests(workloads.SeriesExpansions, 3, 20)
    for start in (0, 10):
        kinds = sorted(r.kind for r in series[start : start + 10])
        assert kinds == ["matrix"] + ["mirror"] * 5 + ["scalar"] * 2 + ["symtrace"] * 2
    dgas = first_requests(workloads.AugmentationVarieties, 3, 6)
    assert [len(r.payload.unknowns) for r in dgas] == [1, 2] * 3


def test_braid_closures_parse_and_resolutions_agree():
    rng = random.Random(11)
    for strands, crossings in [(3, 8), (4, 9), (5, 8)]:
        text = gen.braid_closure_pd(strands, gen.random_braid(rng, strands, crossings))
        diagram = kch.parse_pd(text)
        assert diagram.crossing_count == crossings
        assert kch.homfly(diagram, resolution=0) == kch.homfly(diagram, resolution=1)


def test_knot_table_holds_the_seeded_braids_ranked_by_edit_count():
    document = json.loads(knot_table.TABLE_PATH.read_text())
    entries = document["diagrams"]
    assert document["table_seed"] == knot_table.TABLE_SEED
    assert len(entries) == knot_table.PER_CELL * len(knot_table.CELLS)
    assert len(entries) % knot_table.STRATA == 0
    drawn = sorted((s, w) for s, w in knot_table.braid_words())
    assert sorted((e["strands"], e["word"]) for e in entries) == drawn
    edits = [e["edits"] for e in entries]
    assert edits == sorted(edits)
    # the cheapest diagram of every stratum still makes its recorded edits
    size = len(entries) // knot_table.STRATA
    for entry in entries[::size]:
        text = gen.braid_closure_pd(entry["strands"], entry["word"])
        assert knot_table.edit_count(kch, text) == entry["edits"]


def test_braid_closure_of_sigma1_cubed_is_a_trefoil():
    right = kch.homfly(kch.parse_pd(kch.BUNDLED_DIAGRAMS["right_trefoil"]))
    left = kch.homfly(kch.parse_pd(kch.BUNDLED_DIAGRAMS["left_trefoil"]))
    value = kch.homfly(kch.parse_pd(gen.braid_closure_pd(2, [1, 1, 1])))
    assert value in (right, left)
    mirrored = kch.homfly(kch.parse_pd(gen.braid_closure_pd(2, [-1, -1, -1])))
    assert {value, mirrored} == {right, left}


@pytest.mark.parametrize(
    "name", ["right_trefoil", "left_trefoil", "positive_hopf", "kinked_right_trefoil"]
)
def test_mirror_identity_on_bundled_diagrams(name):
    diagram = kch.parse_pd(kch.BUNDLED_DIAGRAMS[name])
    polynomial = kch.homfly(diagram)
    mirrored = kch.homfly(workloads.mirror_diagram(kch, diagram))
    assert mirrored == workloads.mirror_homfly(kch, polynomial)


def test_trefoils_are_each_others_mirror():
    right = kch.homfly(kch.parse_pd(kch.BUNDLED_DIAGRAMS["right_trefoil"]))
    left = kch.homfly(kch.parse_pd(kch.BUNDLED_DIAGRAMS["left_trefoil"]))
    assert workloads.mirror_homfly(kch, right) == left
    assert right != left


def test_knot_oracle_rejects_a_wrong_polynomial():
    workload = workloads.KnotInvariants(1)
    request = first_requests(workloads.KnotInvariants, 1, 1)[0]
    diagram, polynomial, values = workload.execute(kch, request)
    assert workload.verify(kch, request, (diagram, polynomial, values))
    wrong = polynomial + kch.LaurentPolynomial.monomial(("a", "z"), (1, 1))
    assert not workload.verify(kch, request, (diagram, wrong, values))


def _sympy_elimination(planted):
    """Eliminate the unknowns of a planted DGA with sympy, from its JSON alone."""
    sympy = pytest.importorskip("sympy")
    document = json.loads(planted.text)
    torus = sympy.symbols("Q X P")
    names = [g["name"] for g in document["generators"] if g["degree"] == 0]
    unknowns = sympy.symbols(" ".join(f"u_{n}" for n in names) + " ", seq=True)
    by_name = dict(zip(names, unknowns))
    w = sympy.Symbol("w")
    scope = {"Q": torus[0], "X": torus[1], "P": torus[2]}
    equations = []
    for g in document["generators"]:
        if g["degree"] != 1:
            continue
        total = 0
        for entry in document["differential"].get(g["name"], []):
            coeff = sympy.sympify(entry["coefficient"].replace("^", "**"), locals=scope)
            total += coeff * sympy.Mul(*[by_name[letter] for letter in entry["word"]])
        numerator, _ = sympy.fraction(sympy.together(sympy.expand(total)))
        equations.append(sympy.expand(numerator))
    equations.append(1 - w * torus[0] * torus[1] * torus[2])
    basis = sympy.groebner(equations, *unknowns, w, *torus, order="lex")
    eliminated = [b for b in basis.exprs if not (b.free_symbols & (set(unknowns) | {w}))]
    return sympy, scope, eliminated


def test_planted_oracle_agrees_with_sympy_groebner():
    rng = random.Random(5)
    checked = 0
    for index in range(4):
        planted = gen.planted_dga(rng, index, 1 + index % 2)
        sympy, scope, eliminated = _sympy_elimination(planted)
        expected = workloads.planted_polynomial(kch, planted)
        expected = expected.strip_monomial_factor()[0].primitive_normalized()
        target = sympy.sympify(str(expected).replace("^", "**"), locals=scope)
        assert len(eliminated) == 1
        ratio = sympy.cancel(eliminated[0] / target)
        assert ratio.is_number and ratio != 0
        checked += 1
    assert checked == 4


def test_augmentation_oracle_accepts_the_library_and_rejects_a_wrong_answer():
    workload = workloads.AugmentationVarieties(2)
    for request in first_requests(workloads.AugmentationVarieties, 2, 3):
        report, variety, exists = workload.execute(kch, request)
        assert workload.verify(kch, request, (report, variety, exists))
        flipped = [not e for e in exists]
        assert not workload.verify(kch, request, (report, variety, flipped))


def test_planted_points_include_points_on_the_variety():
    rng = random.Random(9)
    on = 0
    for index in range(10):
        planted = gen.planted_dga(rng, index, 1 + index % 2)
        composed = workloads.planted_polynomial(kch, planted)
        for point in planted.points:
            on += composed.evaluate({k: kch.parse_scalar(v) for k, v in point.items()}).is_zero()
    assert on >= 10


def test_branch_oracle_detects_a_perturbed_coefficient():
    text = "-1+P-X*P-3*Q*X"
    curve = kch.parse_polynomial(text, gen.TORUS)
    branch = kch.branch_series(curve, 1, 6)
    coefficients = list(branch.series.coefficients)
    assert workloads.branch_satisfies_curve(kch, text, coefficients, Fraction(2))
    coefficients[4] = coefficients[4] + kch.LaurentPolynomial.one(("Q",))
    assert not workloads.branch_satisfies_curve(kch, text, coefficients, Fraction(2))


def test_trace_oracle_matches_direct_expansion():
    spectrum = kch.HolonomySpectrum([kch.parse_scalar(v) for v in ("2", "-1/2", "(1+2i)")])
    expected = workloads.trace_coefficients(spectrum.eigenvalues, 5)
    for k in range(6):
        direct = kch.complete_homogeneous_direct(spectrum, k)
        assert (direct.re, direct.im) == expected[k]


@pytest.mark.parametrize("n,off_diagonal,keys", workloads.SeriesExpansions.scalar_shapes)
def test_feynman_inputs_parse_into_valid_forms(n, off_diagonal, keys):
    rng = random.Random(n)
    q = json.loads(gen.quadratic_form_json(rng, n, off_diagonal))
    c = json.loads(gen.cubic_form_json(rng, n, keys))
    form = kch.QuadraticForm([[kch.parse_scalar(v) for v in row] for row in q])
    cubic = kch.CubicForm.from_array([[[kch.parse_scalar(v) for v in r] for r in p] for p in c])
    assert form.dimension == cubic.dimension == n
    assert {(i, j) for i in range(n) for j in range(i + 1, n) if q[i][j] != "0"} == set(off_diagonal)
    nonzero_keys = {
        tuple(sorted(key))
        for key in itertools.product(range(n), repeat=3)
        if not cubic.entry(*key).is_zero()
    }
    assert nonzero_keys == set(keys)

import importlib
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, lcm

import pytest

from kch.errors import DomainError, ResourceLimitError
from kch.feynman import (
    MAX_FEYNMAN_ORDER,
    CubicForm,
    Pairing,
    QuadraticForm,
    RibbonGraph,
    canonical_graph_class,
    connected_exp,
    connected_isomorphism_classes,
    connected_log,
    connected_scalar_series,
    double_factorial,
    enumerate_pairings,
    evaluate_matrix_series,
    matrix_model_series,
    matrix_wick_oracle_series,
    ribbon_census,
    ribbon_faces,
    scalar_model_series,
    stein_oracle_series,
    trace_faces,
    _face_census,
    _wick_class_counts,
    _connected,
    _adjugate_det,
    _contract_multigraph,
    _contraction_plan,
    _pairing_census,
)
from kch.scalars import I, ZERO, Scalar


def class_census(m):
    """(label, pairings) per isomorphism class at order m."""
    return tuple((label, count) for label, count, _, _ in _pairing_census(m)[1])


def one_dim():
    return QuadraticForm([[1]]), CubicForm.from_array([[[1]]])


def random_model(rng, n):
    # random symmetric positive-ish quadratic form: A^T A + identity keeps it invertible
    a = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    q = [
        [sum(a[k][i] * a[k][j] for k in range(n)) + (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for _ in range(rng.randint(1, n * 2)):
        i, j, k = sorted(rng.randint(0, n - 1) for _ in range(3))
        val = Fraction(rng.randint(-3, 3))
        for perm in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            c[perm[0]][perm[1]][perm[2]] = val
    return QuadraticForm(q), CubicForm.from_array(c)


def test_quadratic_form_validation():
    with pytest.raises(DomainError):
        QuadraticForm([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(DomainError):
        QuadraticForm([[1, 2]])  # not square
    with pytest.raises(DomainError):
        QuadraticForm([[1, 1], [1, 1]])  # singular


# a seeded sample of each kind, with the row swap and singular forms named
PROPAGATOR_ENTRIES = {
    "rational": [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)],
    "gaussian": [0, 1, -1, Fraction(1, 2), I, Scalar(1, -1), Scalar(Fraction(1, 2), 2)],
}
NAMED_FORMS = {
    "rational": [[[0, 1], [1, 0]], [[1, 1], [1, 1]]],
    "gaussian": [[[0, I], [I, 0]], [[1, I], [I, -1]]],
}


def seeded_symmetric_rows(kind):
    yield from NAMED_FORMS[kind]
    rng = random.Random(f"propagator:{kind}")
    for trial in range(40):
        n = 1 + trial % 4
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice(PROPAGATOR_ENTRIES[kind])
        yield rows


def to_sympy(sympy, value):
    value = Scalar.of(value)
    return sympy.Rational(value.re.numerator, value.re.denominator) + sympy.I * sympy.Rational(
        value.im.numerator, value.im.denominator
    )


def sympy_matrix(sympy, rows, ring):
    from sympy.polys.matrices import DomainMatrix

    matrix = sympy.Matrix([[to_sympy(sympy, value) for value in row] for row in rows])
    return DomainMatrix.from_Matrix(matrix).convert_to(ring)


@pytest.mark.parametrize("kind", ["rational", "gaussian"])
def test_fraction_free_propagator_matches_sympy(kind):
    sympy = pytest.importorskip("sympy")
    singular = invertible = 0
    for rows in seeded_symmetric_rows(kind):
        if not sympy_matrix(sympy, rows, sympy.QQ_I).det():
            with pytest.raises(DomainError, match="^quadratic form is singular$"):
                QuadraticForm(rows)
            singular += 1
            continue
        q = QuadraticForm(rows)
        expected = sympy_matrix(sympy, rows, sympy.QQ_I).inv().to_Matrix()
        assert sympy.Matrix([[to_sympy(sympy, v) for v in row] for row in q.propagator]) == expected
        # the form keeps adj(M) and det(M) / D of the integral M = D Q
        d = lcm(*(Fraction(part).denominator for row in rows for v in row
                  for part in (Scalar.of(v).re, Scalar.of(v).im)))
        scaled = [[Scalar.of(v) * d for v in row] for row in rows]
        adjugate, det = sympy_matrix(sympy, scaled, sympy.ZZ_I).adj_det()
        assert sympy.Matrix([[to_sympy(sympy, a) for a in row] for row in q._adjugate]) == (
            adjugate.to_Matrix()
        )
        assert to_sympy(sympy, q._unit) == sympy.ZZ_I.to_sympy(det) / d
        # narrow: an imaginary Scalar only where the value is imaginary
        assert all(type(a) is int or a.im for row in q._adjugate for a in row)
        invertible += 1
    assert singular >= 1 and invertible >= 30


@pytest.mark.parametrize("kind", ["rational", "gaussian"])
def test_adjugate_and_determinant_match_sympy_with_row_swaps(kind):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"adjugate:{kind}")
    values = [0, 0, 1, -1, 2, -3] + ([I, Scalar(1, -2)] if kind == "gaussian" else [])
    swaps = [[[0, 1], [1, 0]], [[0, 0, 1], [0, 2, 0], [3, 0, 0]]]
    matrices = swaps + [
        [[rng.choice(values) for _ in range(n)] for _ in range(n)] for n in (1, 2, 3, 4) * 8
    ]
    for rows in matrices:
        expected_adjugate, expected_det = sympy_matrix(sympy, rows, sympy.ZZ_I).adj_det()
        if not expected_det:
            with pytest.raises(DomainError, match="^quadratic form is singular$"):
                _adjugate_det(rows)
            continue
        adjugate, det = _adjugate_det(rows)
        assert sympy.Matrix([[to_sympy(sympy, a) for a in row] for row in adjugate]) == (
            expected_adjugate.to_Matrix()
        )
        assert to_sympy(sympy, det) == sympy.ZZ_I.to_sympy(expected_det)
    assert _adjugate_det([[0, 1], [1, 0]]) == (((0, -1), (-1, 0)), -1)


# the Scalar operations a traced benchmark run counts as ``scalars.ops``
SCALAR_OPS = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "inverse", "__pow__",
]


def test_a_rational_model_does_no_scalar_arithmetic(monkeypatch):
    calls = Counter()
    for name in SCALAR_OPS:
        def counted(*args, name=name, original=getattr(Scalar, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(Scalar, name, counted)
    rows = [[Fraction(7, 2), 1, 0], [1, Fraction(9, 2), -1], [0, -1, 4]]
    cubic = CubicForm(3, {(0, 0, 0): Fraction(1, 2), (1, 1, 2): -2})
    # entries as given, and as Scalars the way ``parse_scalar`` returns them
    for q in (QuadraticForm(rows), QuadraticForm([[Scalar.of(v) for v in row] for row in rows])):
        assert q.propagator and calls == Counter()
        scalar_model_series(q, cubic, 4)
        assert calls == Counter()
    # the count sees an imaginary form, which goes through Scalar arithmetic
    QuadraticForm([[1, I], [I, 3]])
    assert calls


def test_propagator_is_matrix_inverse():
    q = QuadraticForm([[2, 1], [1, 1]])
    prop = q.propagator
    # (2 1; 1 1)^-1 = (1 -1; -1 2)
    assert prop[0][0] == Scalar(1)
    assert prop[0][1] == Scalar(-1)
    assert prop[1][1] == Scalar(2)


def test_cubic_form_symmetry_enforced():
    bad = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(DomainError):
        CubicForm.from_array(bad)
    good = CubicForm.from_array([[[1, 2], [2, 0]], [[2, 0], [0, 5]]])
    assert good.entry(0, 1, 0) == Scalar(2)
    assert good.entry(1, 0, 0) == Scalar(2)
    assert good.entry(1, 1, 1) == Scalar(5)


def test_enumerate_pairings_counts():
    assert len(enumerate_pairings(0)) == 1
    assert enumerate_pairings(1) == ()  # 3 half-edges cannot pair up
    assert len(enumerate_pairings(2)) == 15
    assert len(enumerate_pairings(4)) == 10395
    assert double_factorial(5) == 15
    assert double_factorial(11) == 10395


def test_pairing_validation():
    with pytest.raises(DomainError):
        Pairing(2, ((0, 1), (2, 3)))  # leaves 4 and 5 unmatched
    with pytest.raises(DomainError):
        Pairing(2, ((0, 0), (1, 2), (3, 4)))
    with pytest.raises(DomainError):
        Pairing(2, ((5, 0), (1, 4), (2, 3)))  # pairs must be ordered
    p = Pairing(2, ((2, 3), (0, 5), (1, 4)))
    partner = p.partner()
    assert partner[5] == 0 and partner[0] == 5
    assert p.matching == ((0, 5), (1, 4), (2, 3))


def test_connected_classes_at_order_two():
    classes = connected_isomorphism_classes(2)
    assert len(classes) == 2
    # the theta graph admits 6 pairings, the dumbbell 9
    assert sorted(classes.values()) == [6, 9]


def test_canonical_graph_class_is_relabeling_invariant():
    rng = random.Random(3)
    for pairing in enumerate_pairings(4)[:200]:
        edges = pairing.vertex_edges()
        perm = list(range(4))
        rng.shuffle(perm)
        relabeled = tuple(
            tuple(sorted((perm[u], perm[v]))) for u, v in edges
        )
        assert canonical_graph_class(4, edges) == canonical_graph_class(4, relabeled)


def test_one_dimensional_frozen_values():
    q, c = one_dim()
    series = scalar_model_series(q, c, 4)
    assert str(series.coefficient(2).constant_term()) == "15/2"
    assert str(series.coefficient(4).constant_term()) == "3465/8"
    assert series.coefficient(1).is_zero()
    assert series.coefficient(3).is_zero()
    assert str(series.coefficient(0).constant_term()) == "1"


def test_graph_sum_matches_moment_oracle_random():
    rng = random.Random(2024)
    for trial in range(8):
        n = rng.randint(1, 3)
        q, c = random_model(rng, n)
        graph = scalar_model_series(q, c, 3)
        oracle = stein_oracle_series(q, c, 3)
        assert graph == oracle, f"trial {trial}"


def test_graph_sum_on_integers_matches_moment_oracle_with_rational_and_imaginary_entries():
    # the contraction scales the propagator and the cubic entries to integers
    # and divides once per order; imaginary entries stay narrow Scalars
    rng = random.Random(2025)
    for trial in range(6):
        n = rng.randint(1, 2)
        entries = [Fraction(1, 2), Fraction(-2, 3), Scalar(0, 1), Scalar(1, Fraction(1, 2)), 1]
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice([Fraction(5, 2), Scalar(3, 1), 4])
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice(entries[:3])
        cubic = {}
        for _ in range(rng.randint(1, 3)):
            key = tuple(sorted(rng.randint(0, n - 1) for _ in range(3)))
            cubic[key] = rng.choice(entries)
        q, c = QuadraticForm(rows), CubicForm(n, cubic)
        assert scalar_model_series(q, c, 4) == stein_oracle_series(q, c, 4), f"trial {trial}"


def test_connected_series_is_log_of_full_series():
    q, c = one_dim()
    full = scalar_model_series(q, c, 4)
    conn = connected_scalar_series(q, c, 4)
    assert conn == connected_log(full)
    assert connected_exp(conn) == full
    z2 = full.coefficient(2).constant_term()
    z4 = full.coefficient(4).constant_term()
    f4 = conn.coefficient(4).constant_term()
    assert f4 == z4 - z2 * z2 * Scalar(Fraction(1, 2))
    assert str(f4) == "405"


def test_trivalent_euler_identities():
    # every connected cubic graph with m vertices has e = 3m/2 and r = e - v + 1
    for m in (2, 4):
        for pairing in enumerate_pairings(m):
            edges = pairing.vertex_edges()
            parents = list(range(m))

            def find(x):
                while parents[x] != x:
                    parents[x] = parents[parents[x]]
                    x = parents[x]
                return x

            for u, v in edges:
                parents[find(u)] = find(v)
            if len({find(v) for v in range(m)}) != 1:
                continue
            v_count, e_count = m, 3 * m // 2
            r = e_count - v_count + 1
            assert v_count == 2 * (r - 1)
            assert v_count - e_count == 1 - r


def test_ribbon_graph_structure():
    pairing = Pairing(2, ((0, 3), (1, 4), (2, 5)))
    graph = RibbonGraph.standard(pairing)
    assert graph.vertex_count() == 2
    assert graph.edge_count() == 3
    assert trace_faces(graph) == 1
    h, g, r = ribbon_faces(graph)
    assert (h, g, r) == (1, 1, 2)
    flipped = RibbonGraph(pairing, ((0, 1, 2), (3, 5, 4)))
    assert ribbon_faces(flipped) == (3, 0, 2)


def test_ribbon_rotation_validation():
    pairing = Pairing(2, ((0, 3), (1, 4), (2, 5)))
    with pytest.raises(DomainError):
        RibbonGraph(pairing, ((0, 1, 3), (2, 4, 5)))  # not vertex triples
    with pytest.raises(DomainError):
        RibbonGraph(pairing, ((0, 1, 2),))


def test_ribbon_genus_boundary_identity_all_orders():
    for m in (2, 4):
        for pairing in enumerate_pairings(m):
            graph = RibbonGraph.standard(pairing)
            try:
                h, g, r = ribbon_faces(graph)
            except DomainError:
                continue  # disconnected
            assert 2 - 2 * g - h == 1 - r
            assert r == 3 * m // 2 - m + 1


def test_ribbon_census_frozen():
    census, disconnected = ribbon_census(2)
    assert census == {(0, 3): 12, (1, 1): 3}
    assert disconnected == 0
    census4, disconnected4 = ribbon_census(4)
    assert sum(census4.values()) == 9720
    assert disconnected4 == 675
    assert all(2 - 2 * g - h == 1 - 3 for (g, h) in census4)


def test_matrix_model_series_frozen():
    series = matrix_model_series(2)
    assert str(series.coefficient(2)) == "3/2*N + 6*N^3"
    assert str(series.coefficient(0)) == "1"
    assert series.coefficient(1).is_zero()


def test_matrix_model_matches_entrywise_oracle():
    series = matrix_model_series(4)
    for size in (1, 2, 3):
        oracle = matrix_wick_oracle_series(size, 4)
        evaluated = evaluate_matrix_series(series, size)
        assert evaluated == oracle, f"N={size}"


def test_matrix_oracle_counts_each_order_once_for_every_size():
    series = matrix_model_series(4)
    for size in range(1, 6):
        assert matrix_wick_oracle_series(size, 4) == evaluate_matrix_series(series, size), size
    # (3m - 1)!! pairings at even 3m: 1, 15 and 10395 at m = 0, 2, 4
    assert [sum(n for _, n in _wick_class_counts(m)) for m in range(5)] == [1, 0, 15, 0, 10395]


def test_matrix_oracle_frozen_values():
    # sum over pairings of N^{faces} at order 2, divided by 2!
    expected = {1: "15/2", 2: "51", 3: "333/2"}
    for size, text in expected.items():
        oracle = matrix_wick_oracle_series(size, 2)
        assert str(oracle.coefficient(2).constant_term()) == text


def test_scalar_model_argument_validation():
    q, c = one_dim()
    with pytest.raises(DomainError):
        scalar_model_series(q, CubicForm.from_array([[[1, 0], [0, 0]], [[0, 0], [0, 0]]]), 2)
    with pytest.raises(DomainError):
        scalar_model_series(q, c, -1)


def test_moment_oracle_gaussian_normalization():
    # with no cubic coupling every order beyond zero vanishes
    q = QuadraticForm([[3]])
    c = CubicForm.from_array([[[0]]])
    series = stein_oracle_series(q, c, 4)
    assert str(series.coefficient(0).constant_term()) == "1"
    for m in range(1, 5):
        assert series.coefficient(m).is_zero()
    assert scalar_model_series(q, c, 4) == series


def test_class_census_counts_every_pairing_once():
    for m, classes in ((2, 2), (4, 8)):
        census = class_census(m)
        assert len(census) == classes
        assert sum(count for _, count in census) == double_factorial(3 * m - 1)
        assert all(canonical_graph_class(m, edges) == edges for edges, _ in census)
    # the connected classes hold the pairings the ribbon census finds connected
    assert sum(connected_isomorphism_classes(4).values()) == 10395 - 675


def test_class_sum_equals_labeled_sum():
    rng = random.Random(47)
    labeled = {m: Counter(p.vertex_edges() for p in enumerate_pairings(m)).items() for m in (2, 4)}
    for _ in range(4):
        q, c = random_model(rng, rng.randint(1, 3))
        # the unscaled model: every labeled multigraph contracted on Scalars
        vertices = [
            (idx, c.entry(*idx))
            for idx in product(range(c.dimension), repeat=3)
            if not c.entry(*idx).is_zero()
        ]
        full_series = scalar_model_series(q, c, 4)
        connected_series = connected_scalar_series(q, c, 4)
        for m in (2, 4):
            full = connected = ZERO
            for edges, count in labeled[m]:
                plan = _contraction_plan(edges, m)
                term = _contract_multigraph(plan, q.propagator, vertices) * Scalar.of(count)
                full = full + term
                if _connected(m, edges):
                    connected = connected + term
            inv_fact = Scalar.of(Fraction(1, factorial(m)))
            assert full_series.coefficient(m).constant_term() == full * inv_fact
            assert connected_series.coefficient(m).constant_term() == connected * inv_fact


def test_a_second_graph_sum_builds_no_plan(monkeypatch):
    feynman = importlib.import_module("kch.feynman")
    built = []
    plan = feynman._contraction_plan
    monkeypatch.setattr(
        feynman, "_contraction_plan", lambda *args: built.append(args) or plan(*args)
    )
    feynman._pairing_census.cache_clear()
    q, c = random_model(random.Random(6), 2)
    first = scalar_model_series(q, c, 4)
    # one plan per class of each order, built with the census
    assert built == [(label, m) for m in range(5) for label, _ in class_census(m)]
    built.clear()
    assert scalar_model_series(q, c, 4) == first
    assert connected_scalar_series(q, c, 4) == connected_log(first)
    assert built == []


@pytest.mark.parametrize(
    "edges, m",
    [
        (((0, 1),), 2),
        (((0, 0), (0, 0)), 1),
        (((0, 1), (0, 1), (0, 1), (1, 1)), 2),
        (((0, 1),) * 3, 3),
    ],
    ids=["one-edge-each", "two-loops", "five-stubs", "idle-vertex"],
)
def test_a_multigraph_that_is_not_trivalent_has_no_plan(edges, m):
    with pytest.raises(DomainError, match="^multigraph is not trivalent$"):
        _contraction_plan(edges, m)


def test_graph_series_builds_its_inputs_once(monkeypatch):
    feynman = importlib.import_module("kch.feynman")
    q, c = random_model(random.Random(5), 3)
    built = []
    cubic_init = CubicForm.__init__
    monkeypatch.setattr(
        CubicForm, "__init__", lambda self, *args: built.append(args) or cubic_init(self, *args)
    )
    calls = []
    contract = feynman._contract_multigraph
    monkeypatch.setattr(
        feynman, "_contract_multigraph", lambda *args: calls.append(args) or contract(*args)
    )
    series = scalar_model_series(q, c, 4)
    assert built == []
    # one contraction per census class of each order, each by the plan kept
    # with the census, all on one propagator and one vertex list
    assert [plan for plan, _, _ in calls] == [
        plan for m in range(5) for _, _, _, plan in _pairing_census(m)[1]
    ]
    assert len({id(propagator) for _, propagator, _ in calls}) == 1
    assert len({id(vertices) for _, _, vertices in calls}) == 1
    assert series == stein_oracle_series(q, c, 4)


def test_order_cap_raises_before_any_pairing(monkeypatch):
    feynman = importlib.import_module("kch.feynman")
    built = []
    monkeypatch.setattr(feynman, "Pairing", lambda *args: built.append(args))
    monkeypatch.setattr(feynman, "_matchings", lambda m: built.append(m) or iter(()))
    feynman._pairing_census.cache_clear()
    q, c = one_dim()
    entries = [
        lambda order: scalar_model_series(q, c, order),
        lambda order: connected_scalar_series(q, c, order),
        lambda order: matrix_model_series(order),
        lambda order: ribbon_census(order),
        lambda order: connected_isomorphism_classes(order),
        lambda order: enumerate_pairings(order),
    ]
    start = time.perf_counter()
    for order in (MAX_FEYNMAN_ORDER + 1, MAX_FEYNMAN_ORDER + 2, 10**9):
        for entry in entries:
            with pytest.raises(ResourceLimitError, match=f"{order}.*cap {MAX_FEYNMAN_ORDER}"):
                entry(order)
    assert built == []
    assert time.perf_counter() - start < 1.0


def test_census_views_equal_their_per_pairing_definitions():
    for m in range(5):
        pairings = enumerate_pairings(m)
        classes = Counter(canonical_graph_class(m, p.vertex_edges()) for p in pairings)
        faces = Counter(trace_faces(RibbonGraph.standard(p)) for p in pairings)
        ribbons, disconnected = Counter(), 0
        for p in pairings:
            if _connected(m, p.vertex_edges()):
                h, g, _ = ribbon_faces(RibbonGraph.standard(p))
                ribbons[g, h] += 1
            else:
                disconnected += 1
        assert class_census(m) == tuple(sorted(classes.items())), m
        assert _face_census(m) == tuple(sorted(faces.items())), m
        assert ribbon_census(m) == (dict(sorted(ribbons.items())), disconnected), m


def test_the_matchings_are_walked_once_per_order(monkeypatch):
    feynman = importlib.import_module("kch.feynman")
    walked = []
    raw = feynman._matchings
    monkeypatch.setattr(feynman, "_matchings", lambda m: walked.append(m) or raw(m))
    feynman._pairing_census.cache_clear()
    q, c = one_dim()
    scalar_model_series(q, c, 4)
    connected_scalar_series(q, c, 4)
    matrix_model_series(4)
    for order in range(5):
        ribbon_census(order)
    connected_isomorphism_classes(4)
    assert sorted(walked) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_pairings(2.0),
        lambda: enumerate_pairings(True),
        lambda: scalar_model_series(*one_dim(), 2.0),
        lambda: connected_scalar_series(*one_dim(), 2.0),
        lambda: stein_oracle_series(*one_dim(), 2.0),
        lambda: matrix_model_series(2.0),
        lambda: ribbon_census("4"),
        lambda: ribbon_census(-1),
        lambda: connected_isomorphism_classes(2.0),
        lambda: connected_isomorphism_classes(-1),
        lambda: matrix_wick_oracle_series(2.5, 2),
        lambda: matrix_wick_oracle_series(2, 2.0),
        lambda: evaluate_matrix_series(matrix_model_series(2), True),
        lambda: evaluate_matrix_series(matrix_model_series(2), 2.0),
        lambda: CubicForm(2, {(0, 1): 1}),
        lambda: CubicForm(2, {(0, 0, "a"): 1}),
        lambda: CubicForm(2, {(0.5, 0, 0): 1}),
        lambda: CubicForm(2, {(0, 0, True): 1}),
        lambda: CubicForm("2", {}),
        lambda: CubicForm(2.0, {}),
        lambda: Pairing("2", ((0, 3), (1, 4), (2, 5))),
        lambda: Pairing(2, ((0, 3, 1), (1, 4), (2, 5))),
        lambda: Pairing(2, ((0.0, 3), (1, 4), (2, 5))),
        lambda: Pairing(2, ((0, 3), (1, 4), (2, "5"))),
    ],
)
def test_malformed_feynman_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_a_cached_census_admits_no_float_or_bool_order():
    assert connected_isomorphism_classes(2) and ribbon_census(1) == ({}, 0)
    for call in (
        lambda: connected_isomorphism_classes(2.0),
        lambda: connected_isomorphism_classes(True),
        lambda: ribbon_census(2.0),
        lambda: ribbon_census(True),
    ):
        with pytest.raises(DomainError, match="must be an integer"):
            call()

"""One rule for every count argument (``kch.errors.check_count``).

Each row names a public count: an order, size, level, index or step cap.
Every row is called with a float, a bool and a string, which must raise
``DomainError``; with its values below range, which must raise
``DomainError`` too; and, where the count is capped, with the cap plus one,
which must raise ``ResourceLimitError``.  Each error comes before any work:
neither the skein nor the packed-kernel counters move.
"""

import pytest

from kch.augment import augmentation_exists, eliminate_augmentation_ideal
from kch.cyclotomic import MAX_CYCLOTOMIC_INDEX, CyclotomicField, cyclotomic_polynomial
from kch.dga import load_bundled
from kch.errors import DomainError, ResourceLimitError, check_count
from kch.feynman import (
    MAX_FEYNMAN_ORDER,
    CubicForm,
    Pairing,
    QuadraticForm,
    connected_scalar_series,
    enumerate_pairings,
    evaluate_matrix_series,
    matrix_model_series,
    matrix_wick_oracle_series,
    ribbon_census,
    scalar_model_series,
    stein_oracle_series,
)
from kch.groebner import ideal_contains_one, reduced_groebner_basis
from kch.homfly import homfly
from kch.laurent import LaurentPolynomial, parse_polynomial
from kch.mirror import MAX_BRANCH_ORDER, branch_series, verify_on_curve
from kch.pd import LinkDiagram, parse_pd, smooth_crossing, switch_crossing
from kch.series import FormalSeries
from kch.symfunc import (
    MAX_TRACE_ORDER,
    HolonomySpectrum,
    complete_homogeneous,
    complete_homogeneous_direct,
    determinant_product_series,
    power_sums,
    symmetric_trace_series,
)
from kch.wilson import MAX_LEVEL, wilson_exact, wilson_loop, wilson_loop_float

TREFOIL = "X[1,5,2,4];X[5,3,6,2];X[3,1,4,6]"
CURVE = parse_polynomial("1 - X - P + Q*X*P", ("Q", "X", "P"))
BRANCH = branch_series(CURVE, 1, 3)
SPECTRUM = HolonomySpectrum([1, 2])
Q, C = QuadraticForm([[1]]), CubicForm.from_array([[[1]]])
SERIES = FormalSeries.from_scalars("t", [1, 2, 3, 4])
MATRIX_SERIES = matrix_model_series(2)
UNKNOT = load_bundled("unknot")
GENERATORS = [parse_polynomial(text, ("x", "y")) for text in ("x^2 - y", "x*y - 1")]
NOT_COUNTS = (2.0, True, "3")


def trefoil():
    # a fresh diagram each call, so no kept skein polynomial hides work
    return parse_pd(TREFOIL)


# name -> (call with the count, values below range, cap + 1 or None)
ROWS = {
    "enumerate_pairings": (enumerate_pairings, (-1,), MAX_FEYNMAN_ORDER + 1),
    "scalar_model_series": (
        lambda m: scalar_model_series(Q, C, m), (-1,), MAX_FEYNMAN_ORDER + 1
    ),
    "connected_scalar_series": (
        lambda m: connected_scalar_series(Q, C, m), (-1,), MAX_FEYNMAN_ORDER + 1
    ),
    "stein_oracle_series": (lambda m: stein_oracle_series(Q, C, m), (-1,), None),
    "matrix_model_series": (matrix_model_series, (-1,), MAX_FEYNMAN_ORDER + 1),
    "matrix_wick_oracle_series.size": (lambda n: matrix_wick_oracle_series(n, 2), (0,), None),
    "matrix_wick_oracle_series.order": (lambda m: matrix_wick_oracle_series(2, m), (-1,), None),
    "evaluate_matrix_series": (lambda n: evaluate_matrix_series(MATRIX_SERIES, n), (0,), None),
    "ribbon_census": (ribbon_census, (-1,), MAX_FEYNMAN_ORDER + 1),
    "CubicForm.dimension": (lambda n: CubicForm(n, {}), (0,), None),
    "Pairing.m": (lambda m: Pairing(m, ()), (-2,), None),
    "cyclotomic_polynomial": (cyclotomic_polynomial, (0,), MAX_CYCLOTOMIC_INDEX + 1),
    "CyclotomicField": (CyclotomicField, (0,), MAX_CYCLOTOMIC_INDEX + 1),
    "wilson_exact.N": (lambda n: wilson_exact(trefoil(), n, 1), (0,), MAX_LEVEL + 1),
    "wilson_loop.N": (lambda n: wilson_loop(trefoil(), n, 1), (0,), MAX_LEVEL + 1),
    "wilson_loop_float.N": (lambda n: wilson_loop_float(trefoil(), n, 1), (0,), MAX_LEVEL + 1),
    # k is any int; k + N past the level cap is the cap
    "wilson_exact.k": (lambda k: wilson_exact(trefoil(), 2, k), (), MAX_LEVEL - 1),
    "wilson_loop.k": (lambda k: wilson_loop(trefoil(), 2, k), (), MAX_LEVEL - 1),
    "wilson_loop_float.k": (lambda k: wilson_loop_float(trefoil(), 2, k), (), MAX_LEVEL - 1),
    # any int is a resolution; a crossing cap is a nonnegative int, and one
    # below the diagram's three crossings is past it
    "homfly.resolution": (lambda r: homfly(trefoil(), resolution=r), (), None),
    "homfly.max_crossings": (lambda n: homfly(trefoil(), max_crossings=n), (-1,), None),
    "LinkDiagram.circles": (lambda n: LinkDiagram((), (), n), (-1,), None),
    "switch_crossing": (lambda i: switch_crossing(trefoil(), i), (-1, 3), None),
    "smooth_crossing": (lambda i: smooth_crossing(trefoil(), i), (-1, 3), None),
    "branch_series": (lambda m: branch_series(CURVE, 1, m), (-1,), MAX_BRANCH_ORDER + 1),
    "verify_on_curve": (lambda m: verify_on_curve(CURVE, BRANCH, m), (-1, 4), None),
    "symmetric_trace_series": (
        lambda m: symmetric_trace_series(SPECTRUM, m), (-1,), MAX_TRACE_ORDER + 1
    ),
    "power_sums": (lambda m: power_sums(SPECTRUM, m), (-1,), None),
    "complete_homogeneous": (lambda m: complete_homogeneous(SPECTRUM, m), (-1,), None),
    "complete_homogeneous_direct": (
        lambda k: complete_homogeneous_direct(SPECTRUM, k), (-1,), None
    ),
    "determinant_product_series": (
        lambda m: determinant_product_series(SPECTRUM, m), (-1,), None
    ),
    # as many coefficients as the order asks for, so only the order is wrong
    "FormalSeries": (
        lambda m: FormalSeries("t", m, [LaurentPolynomial.one(())] * (int(m) + 1)), (-1,), None
    ),
    "FormalSeries.zero": (lambda m: FormalSeries.zero("t", m), (-1,), None),
    "FormalSeries.one": (lambda m: FormalSeries.one("t", m), (-1,), None),
    "FormalSeries.coefficient": (SERIES.coefficient, (-1, 4), None),
    "FormalSeries.truncate": (SERIES.truncate, (-1, 4), None),
    "FormalSeries.shifted": (SERIES.shifted, (-1,), None),
    # max_steps follows the KCH_MAX_STEPS rule: a positive int
    "reduced_groebner_basis": (
        lambda s: reduced_groebner_basis(GENERATORS, max_steps=s), (0, -3, 2.5), None
    ),
    "ideal_contains_one": (
        lambda s: ideal_contains_one(GENERATORS, max_steps=s), (0, -3, 2.5), None
    ),
    "augmentation_exists": (
        lambda s: augmentation_exists(UNKNOT, {"Q": 1, "X": 2, "P": 1}, max_steps=s),
        (0, -3, 2.5),
        None,
    ),
    "eliminate_augmentation_ideal": (
        lambda s: eliminate_augmentation_ideal(UNKNOT, max_steps=s), (0, -3, 2.5), None
    ),
}

CASES = [
    pytest.param(name, value, error, id=f"{name}-{value!r}")
    for name, (_, below, cap_plus_one) in ROWS.items()
    for value, error in [(v, DomainError) for v in NOT_COUNTS + below]
    + ([(cap_plus_one, ResourceLimitError)] if cap_plus_one is not None else [])
]


@pytest.mark.parametrize("name, value, error", CASES)
def test_count_is_checked_before_any_work(
    name, value, error, monkeypatch, skein_counters, packed_counters
):
    monkeypatch.delenv("KCH_MAX_STEPS", raising=False)
    call = ROWS[name][0]
    with pytest.raises(error) as caught:
        call(value)
    assert type(caught.value) is error
    assert not skein_counters and not packed_counters


def test_check_count_messages():
    assert check_count(3, "order") == 3
    assert check_count(-3, "level k", least=None) == -3
    with pytest.raises(DomainError, match=r"^order must be an integer, got True$"):
        check_count(True, "order")
    with pytest.raises(DomainError, match=r"^order must be nonnegative$"):
        check_count(-1, "order")
    with pytest.raises(DomainError, match=r"^rank N must be at least 1$"):
        check_count(0, "rank N", least=1)
    with pytest.raises(ResourceLimitError, match=r"^cyclotomic index 401 exceeds the cap 400$"):
        check_count(401, "cyclotomic index", cap=400)
    message = r"^order 201 exceeds the branch order cap 200$"
    with pytest.raises(ResourceLimitError, match=message):
        check_count(201, "order", cap=200, cap_name="branch order cap")

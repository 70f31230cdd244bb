"""Frozen printed outputs of the series layer.

The strings were produced by the first implementations: a branch solver
that substituted the whole partial branch into the curve at every order, a
log that went through the series inverse, and a graph sum over every labeled
multigraph.  The exp, on-curve residual and trace strings were produced by
an exp that scaled every product S_j E_(k-j) by j/k and by series products
that summed each coefficient one polynomial at a time.  Any later kernel must
print the same text byte for byte.
"""

from fractions import Fraction
from itertools import permutations

import pytest

from kch.feynman import CubicForm, QuadraticForm, connected_scalar_series, scalar_model_series
from kch.laurent import LaurentPolynomial, parse_polynomial
from kch.mirror import branch_series, p_series, potential_series, verify_on_curve
from kch.scalars import Scalar
from kch.series import FormalSeries
from kch.symfunc import HolonomySpectrum, symmetric_trace_series

RING = ("Q", "X", "P")

# (curve, base, str(branch), str(p), str(potential series)) at order 8: the
# unknot curve, the benchmark shapes (d, e) = (1, 0) and (2, 2), and a base-2
# curve
MIRROR_CASES = [
    (
        '1 - X - P + Q*X*P',
        1,
        (
            '1 + (-1 + Q)*X + (-Q + Q^2)*X^2 + (-Q^2 + Q^3)*X^3 + (-Q^3'
            ' + Q^4)*X^4 + (-Q^4 + Q^5)*X^5 + (-Q^5 + Q^6)*X^6 + (-Q^6'
            ' + Q^7)*X^7 + (-Q^7 + Q^8)*X^8 + O(X^9)'
        ),
        (
            '(-1 + Q)*X + (-1/2 + 1/2*Q^2)*X^2 + (-1/3 + 1/3*Q^3)*X^3 + (-1/4'
            ' + 1/4*Q^4)*X^4 + (-1/5 + 1/5*Q^5)*X^5 + (-1/6 + 1/6*Q^6)*X^6'
            ' + (-1/7 + 1/7*Q^7)*X^7 + (-1/8 + 1/8*Q^8)*X^8 + O(X^9)'
        ),
        (
            '(-1 + Q)*X + (-1/4 + 1/4*Q^2)*X^2 + (-1/9 + 1/9*Q^3)*X^3 + (-1/16'
            ' + 1/16*Q^4)*X^4 + (-1/25 + 1/25*Q^5)*X^5 + (-1/36 + 1/36*Q^6)*X^6'
            ' + (-1/49 + 1/49*Q^7)*X^7 + (-1/64 + 1/64*Q^8)*X^8 + O(X^9)'
        ),
    ),
    (
        'P - 1 - 2*Q*X*P + 3*X',
        1,
        (
            '1 + (-3 + 2*Q)*X + (-6*Q + 4*Q^2)*X^2 + (-12*Q^2 + 8*Q^3)*X^3'
            ' + (-24*Q^3 + 16*Q^4)*X^4 + (-48*Q^4 + 32*Q^5)*X^5 + (-96*Q^5'
            ' + 64*Q^6)*X^6 + (-192*Q^6 + 128*Q^7)*X^7 + (-384*Q^7'
            ' + 256*Q^8)*X^8 + O(X^9)'
        ),
        (
            '(-3 + 2*Q)*X + (-9/2 + 2*Q^2)*X^2 + (-9 + 8/3*Q^3)*X^3 + (-81/4'
            ' + 4*Q^4)*X^4 + (-243/5 + 32/5*Q^5)*X^5 + (-243/2 + 32/3*Q^6)*X^6'
            ' + (-2187/7 + 128/7*Q^7)*X^7 + (-6561/8 + 32*Q^8)*X^8 + O(X^9)'
        ),
        (
            '(-3 + 2*Q)*X + (-9/4 + Q^2)*X^2 + (-3 + 8/9*Q^3)*X^3 + (-81/16'
            ' + Q^4)*X^4 + (-243/25 + 32/25*Q^5)*X^5 + (-81/4 + 16/9*Q^6)*X^6'
            ' + (-2187/49 + 128/49*Q^7)*X^7 + (-6561/64 + 4*Q^8)*X^8 + O(X^9)'
        ),
    ),
    (
        'P - 1 + Q*X*P^2 - 3*X*P^2',
        1,
        (
            '1 + (3 - Q)*X + (18 - 12*Q + 2*Q^2)*X^2 + (135 - 135*Q + 45*Q^2'
            ' - 5*Q^3)*X^3 + (1134 - 1512*Q + 756*Q^2 - 168*Q^3 + 14*Q^4)*X^4'
            ' + (10206 - 17010*Q + 11340*Q^2 - 3780*Q^3 + 630*Q^4 - 42*Q^5)*X^5'
            ' + (96228 - 192456*Q + 160380*Q^2 - 71280*Q^3 + 17820*Q^4'
            ' - 2376*Q^5 + 132*Q^6)*X^6 + (938223 - 2189187*Q + 2189187*Q^2'
            ' - 1216215*Q^3 + 405405*Q^4 - 81081*Q^5 + 9009*Q^6 - 429*Q^7)*X^7'
            ' + (9382230 - 25019280*Q + 29189160*Q^2 - 19459440*Q^3'
            ' + 8108100*Q^4 - 2162160*Q^5 + 360360*Q^6 - 34320*Q^7'
            ' + 1430*Q^8)*X^8 + O(X^9)'
        ),
        (
            '(3 - Q)*X + (27/2 - 9*Q + 3/2*Q^2)*X^2 + (90 - 90*Q + 30*Q^2'
            ' - 10/3*Q^3)*X^3 + (2835/4 - 945*Q + 945/2*Q^2 - 105*Q^3'
            ' + 35/4*Q^4)*X^4 + (30618/5 - 10206*Q + 6804*Q^2 - 2268*Q^3'
            ' + 378*Q^4 - 126/5*Q^5)*X^5 + (56133 - 112266*Q + 93555*Q^2'
            ' - 41580*Q^3 + 10395*Q^4 - 1386*Q^5 + 77*Q^6)*X^6 + (3752892/7'
            ' - 1250964*Q + 1250964*Q^2 - 694980*Q^3 + 231660*Q^4 - 46332*Q^5'
            ' + 5148*Q^6 - 1716/7*Q^7)*X^7 + (42220035/8 - 14073345*Q'
            ' + 32837805/2*Q^2 - 10945935*Q^3 + 18243225/4*Q^4 - 1216215*Q^5'
            ' + 405405/2*Q^6 - 19305*Q^7 + 6435/8*Q^8)*X^8 + O(X^9)'
        ),
        (
            '(3 - Q)*X + (27/4 - 9/2*Q + 3/4*Q^2)*X^2 + (30 - 30*Q + 10*Q^2'
            ' - 10/9*Q^3)*X^3 + (2835/16 - 945/4*Q + 945/8*Q^2 - 105/4*Q^3'
            ' + 35/16*Q^4)*X^4 + (30618/25 - 10206/5*Q + 6804/5*Q^2'
            ' - 2268/5*Q^3 + 378/5*Q^4 - 126/25*Q^5)*X^5 + (18711/2 - 18711*Q'
            ' + 31185/2*Q^2 - 6930*Q^3 + 3465/2*Q^4 - 231*Q^5 + 77/6*Q^6)*X^6'
            ' + (3752892/49 - 1250964/7*Q + 1250964/7*Q^2 - 694980/7*Q^3'
            ' + 231660/7*Q^4 - 46332/7*Q^5 + 5148/7*Q^6 - 1716/49*Q^7)*X^7'
            ' + (42220035/64 - 14073345/8*Q + 32837805/16*Q^2 - 10945935/8*Q^3'
            ' + 18243225/32*Q^4 - 1216215/8*Q^5 + 405405/16*Q^6 - 19305/8*Q^7'
            ' + 6435/64*Q^8)*X^8 + O(X^9)'
        ),
    ),
    (
        'P - 2 - X*P + Q*X*P^2',
        2,
        (
            '2 + (2 - 4*Q)*X + (2 - 12*Q + 16*Q^2)*X^2 + (2 - 24*Q + 80*Q^2'
            ' - 80*Q^3)*X^3 + (2 - 40*Q + 240*Q^2 - 560*Q^3 + 448*Q^4)*X^4 + (2'
            ' - 60*Q + 560*Q^2 - 2240*Q^3 + 4032*Q^4 - 2688*Q^5)*X^5 + (2'
            ' - 84*Q + 1120*Q^2 - 6720*Q^3 + 20160*Q^4 - 29568*Q^5'
            ' + 16896*Q^6)*X^6 + (2 - 112*Q + 2016*Q^2 - 16800*Q^3 + 73920*Q^4'
            ' - 177408*Q^5 + 219648*Q^6 - 109824*Q^7)*X^7 + (2 - 144*Q'
            ' + 3360*Q^2 - 36960*Q^3 + 221760*Q^4 - 768768*Q^5 + 1537536*Q^6'
            ' - 1647360*Q^7 + 732160*Q^8)*X^8 + O(X^9)'
        ),
        (
            '(1 - 2*Q)*X + (1/2 - 4*Q + 6*Q^2)*X^2 + (1/3 - 6*Q + 24*Q^2'
            ' - 80/3*Q^3)*X^3 + (1/4 - 8*Q + 60*Q^2 - 160*Q^3 + 140*Q^4)*X^4'
            ' + (1/5 - 10*Q + 120*Q^2 - 560*Q^3 + 1120*Q^4 - 4032/5*Q^5)*X^5'
            ' + (1/6 - 12*Q + 210*Q^2 - 4480/3*Q^3 + 5040*Q^4 - 8064*Q^5'
            ' + 4928*Q^6)*X^6 + (1/7 - 14*Q + 336*Q^2 - 3360*Q^3 + 16800*Q^4'
            ' - 44352*Q^5 + 59136*Q^6 - 219648/7*Q^7)*X^7 + (1/8 - 16*Q'
            ' + 504*Q^2 - 6720*Q^3 + 46200*Q^4 - 177408*Q^5 + 384384*Q^6'
            ' - 439296*Q^7 + 205920*Q^8)*X^8 + O(X^9)'
        ),
        (
            '(1 - 2*Q)*X + (1/4 - 2*Q + 3*Q^2)*X^2 + (1/9 - 2*Q + 8*Q^2'
            ' - 80/9*Q^3)*X^3 + (1/16 - 2*Q + 15*Q^2 - 40*Q^3 + 35*Q^4)*X^4'
            ' + (1/25 - 2*Q + 24*Q^2 - 112*Q^3 + 224*Q^4 - 4032/25*Q^5)*X^5'
            ' + (1/36 - 2*Q + 35*Q^2 - 2240/9*Q^3 + 840*Q^4 - 1344*Q^5'
            ' + 2464/3*Q^6)*X^6 + (1/49 - 2*Q + 48*Q^2 - 480*Q^3 + 2400*Q^4'
            ' - 6336*Q^5 + 8448*Q^6 - 219648/49*Q^7)*X^7 + (1/64 - 2*Q + 63*Q^2'
            ' - 840*Q^3 + 5775*Q^4 - 22176*Q^5 + 48048*Q^6 - 54912*Q^7'
            ' + 25740*Q^8)*X^8 + O(X^9)'
        ),
    ),
]


@pytest.mark.parametrize("text, base, branch_text, p_text, potential_text", MIRROR_CASES)
def test_mirror_outputs_are_frozen(text, base, branch_text, p_text, potential_text):
    branch = branch_series(parse_polynomial(text, RING), base, 8)
    p = p_series(branch)
    potential = potential_series(p)
    assert str(branch.series) == branch_text
    assert str(p) == p_text
    assert str(potential.series) == potential_text
    assert str(potential.linear_coefficient) == "0"


# str(p_series(branch).exp()) of each MIRROR_CASES branch at order 8
EXP_TEXTS = [
    (
        '1 + (-1 + Q)*X + (-Q + Q^2)*X^2 + (-Q^2 + Q^3)*X^3 + (-Q^3'
        ' + Q^4)*X^4 + (-Q^4 + Q^5)*X^5 + (-Q^5 + Q^6)*X^6 + (-Q^6'
        ' + Q^7)*X^7 + (-Q^7 + Q^8)*X^8 + O(X^9)'
    ),
    (
        '1 + (-3 + 2*Q)*X + (-6*Q + 4*Q^2)*X^2 + (-12*Q^2 + 8*Q^3)*X^3'
        ' + (-24*Q^3 + 16*Q^4)*X^4 + (-48*Q^4 + 32*Q^5)*X^5 + (-96*Q^5'
        ' + 64*Q^6)*X^6 + (-192*Q^6 + 128*Q^7)*X^7 + (-384*Q^7'
        ' + 256*Q^8)*X^8 + O(X^9)'
    ),
    (
        '1 + (3 - Q)*X + (18 - 12*Q + 2*Q^2)*X^2 + (135 - 135*Q + 45*Q^2'
        ' - 5*Q^3)*X^3 + (1134 - 1512*Q + 756*Q^2 - 168*Q^3 + 14*Q^4)*X^4'
        ' + (10206 - 17010*Q + 11340*Q^2 - 3780*Q^3 + 630*Q^4 - 42*Q^5)*X^5'
        ' + (96228 - 192456*Q + 160380*Q^2 - 71280*Q^3 + 17820*Q^4'
        ' - 2376*Q^5 + 132*Q^6)*X^6 + (938223 - 2189187*Q + 2189187*Q^2'
        ' - 1216215*Q^3 + 405405*Q^4 - 81081*Q^5 + 9009*Q^6 - 429*Q^7)*X^7'
        ' + (9382230 - 25019280*Q + 29189160*Q^2 - 19459440*Q^3'
        ' + 8108100*Q^4 - 2162160*Q^5 + 360360*Q^6 - 34320*Q^7'
        ' + 1430*Q^8)*X^8 + O(X^9)'
    ),
    (
        '1 + (1 - 2*Q)*X + (1 - 6*Q + 8*Q^2)*X^2 + (1 - 12*Q + 40*Q^2'
        ' - 40*Q^3)*X^3 + (1 - 20*Q + 120*Q^2 - 280*Q^3 + 224*Q^4)*X^4 + (1'
        ' - 30*Q + 280*Q^2 - 1120*Q^3 + 2016*Q^4 - 1344*Q^5)*X^5 + (1'
        ' - 42*Q + 560*Q^2 - 3360*Q^3 + 10080*Q^4 - 14784*Q^5'
        ' + 8448*Q^6)*X^6 + (1 - 56*Q + 1008*Q^2 - 8400*Q^3 + 36960*Q^4'
        ' - 88704*Q^5 + 109824*Q^6 - 54912*Q^7)*X^7 + (1 - 72*Q + 1680*Q^2'
        ' - 18480*Q^3 + 110880*Q^4 - 384384*Q^5 + 768768*Q^6 - 823680*Q^7'
        ' + 366080*Q^8)*X^8 + O(X^9)'
    ),
]


@pytest.mark.parametrize("case, exp_text", list(zip(MIRROR_CASES, EXP_TEXTS)))
def test_exp_and_on_curve_residual_are_frozen(case, exp_text):
    text, base = case[:2]
    curve = parse_polynomial(text, RING)
    branch = branch_series(curve, base, 8)
    assert str(p_series(branch).exp()) == exp_text
    assert str(verify_on_curve(curve, branch).residual) == "0 + O(X^9)"


# exp of a two-variable series with imaginary coefficients and zero
# coefficients inside, at order 6
IMAGINARY_EXP_TEXT = (
    '1 + (-1/2*R^-1 + (1+2i)*Q)*t + (1/8*R^-2 + (-1/2-i)*Q*R^-1'
    ' + (-3/2+2i)*Q^2)*t^2 + (-1/48*R^-3 + (1/8+1/4i)*Q*R^-2'
    ' + (3/4-i)*Q^2*R^-1 + (-i) + (-11/6-1/3i)*Q^3 + 3*Q*R)*t^3'
    ' + (1/384*R^-4 + (-1/48-1/24i)*Q*R^-3 + (-3/16+1/4i)*Q^2*R^-2'
    ' + (1/2i)*R^-1 + (11/12+1/6i)*Q^3*R^-1 + Q^-1 + (1/2-i)*Q'
    ' + (-7/24-i)*Q^4 + (3+6i)*Q^2*R + 2/3*R^2)*t^4 + (-1/3840*R^-5'
    ' + (1/384+1/192i)*Q*R^-4 + (1/32-1/24i)*Q^2*R^-3 + (-1/8i)*R^-2'
    ' + (-11/48-1/24i)*Q^3*R^-2 - 1/2*Q^-1*R^-1 + (-5/8+1/2i)*Q*R^-1'
    ' + (7/48+1/2i)*Q^4*R^-1 + (1+2i) + (1/2-3/2i)*Q^2'
    ' + (41/120-19/60i)*Q^5 - 1/3*R + (-9/2+6i)*Q^3*R'
    ' + (2/3+4/3i)*Q*R^2)*t^5 + (1/46080*R^-6'
    ' + (-1/3840-1/1920i)*Q*R^-5 + (-1/256+1/192i)*Q^2*R^-4'
    ' + (1/48i)*R^-3 + (11/288+1/144i)*Q^3*R^-3 + 1/8*Q^-1*R^-2'
    ' + (3/16-1/8i)*Q*R^-2 + (-7/192-1/8i)*Q^4*R^-2 + (-1/2-i)*R^-1'
    ' - 5/8*Q^2*R^-1 + (-41/240+19/120i)*Q^5*R^-1 - 5/12 + (-3/2+2i)*Q'
    ' + (23/12-7/6i)*Q^3 + (13/80+11/180i)*Q^6 + (-1/3-11/3i)*Q*R'
    ' + (1-i)*Q^2*R + (-11/2-i)*Q^4*R + (7/2+4/3i)*Q^2*R^2)*t^6'
    ' + O(t^7)'
)


def test_imaginary_two_variable_exp_is_frozen():
    ring = ("Q", "R")
    zero = LaurentPolynomial.zero(ring)
    s = FormalSeries(
        "t",
        6,
        [
            zero,
            parse_polynomial("(1+2i)*Q - 1/2*R^-1", ring),
            zero,
            parse_polynomial("3*Q*R - (0+1i)", ring),
            parse_polynomial("Q^-1 + 2/3*R^2", ring),
            zero,
            parse_polynomial("(1-1i)*Q^2*R", ring),
        ],
    )
    assert str(s.exp()) == IMAGINARY_EXP_TEXT


# symmetric_trace_series of the spectrum 2, -1/3 + i, -2i, 1/2 at order 10
TRACE_TEXT = (
    '1 + (13/6-i)*t + (55/36-5/2i)*t^2 + (565/216-5/36i)*t^3'
    ' + (20191/1296+305/216i)*t^4 + (260893/7776-7567/432i)*t^5'
    ' + (1232215/46656-318215/7776i)*t^6'
    ' + (11801605/279936-4885/46656i)*t^7'
    ' + (414985231/1679616+687865/31104i)*t^8'
    ' + (5422179373/10077696-474221501/1679616i)*t^9'
    ' + (25652669575/60466176-6579413815/10077696i)*t^10 + O(t^11)'
)


def test_trace_series_is_frozen():
    spectrum = HolonomySpectrum(
        [Scalar(2), Scalar(Fraction(-1, 3), 1), Scalar(0, -2), Scalar(Fraction(1, 2))]
    )
    assert str(symmetric_trace_series(spectrum, 10)) == TRACE_TEXT


def symmetric_cubic(n, entries):
    array = [[[0] * n for _ in range(n)] for _ in range(n)]
    for key, value in entries.items():
        for i, j, k in set(permutations(key)):
            array[i][j][k] = value
    return CubicForm.from_array(array)


# (Q, nonzero entries of C, scalar_model_series, connected_scalar_series) at order 4
FORM_CASES = [
    (
        [[Fraction(5, 2), 1], [1, 3]],
        {(0, 0, 0): 1, (0, 0, 1): -2, (1, 1, 1): 3},
        ['1', '0', '2655/338', '0', '106766505/228488'],
        ['0', '0', '2655/338', '0', '12464685/28561'],
    ),
    (
        [[Fraction(7, 2), -1, 0], [-1, 4, 1], [0, 1, Fraction(9, 2)]],
        {(0, 0, 0): 2, (1, 1, 2): -1},
        ['1', '0', '1385799/1064800', '0', '8697919808007/1030726400000'],
        ['0', '0', '1385799/1064800', '0', '10759365443259/1417248800000'],
    ),
]


@pytest.mark.parametrize("q_rows, entries, full_text, connected_text", FORM_CASES)
def test_graph_sums_are_frozen(q_rows, entries, full_text, connected_text):
    q = QuadraticForm(q_rows)
    c = symmetric_cubic(len(q_rows), entries)
    full = scalar_model_series(q, c, 4)
    connected = connected_scalar_series(q, c, 4)
    assert [str(x.constant_term()) for x in full.coefficients] == full_text
    assert [str(x.constant_term()) for x in connected.coefficients] == connected_text

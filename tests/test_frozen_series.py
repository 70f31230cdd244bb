"""Frozen printed outputs of the series layer.

The strings were produced by the first implementations: a branch solver
that substituted the whole partial branch into the curve at every order, a
log that went through the series inverse, and a graph sum over every labeled
multigraph.  Any later kernel must print the same text byte for byte.
"""

from fractions import Fraction
from itertools import permutations

import pytest

from kch.feynman import CubicForm, QuadraticForm, connected_scalar_series, scalar_model_series
from kch.laurent import parse_polynomial
from kch.mirror import branch_series, p_series, potential_series

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

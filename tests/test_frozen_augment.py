"""Frozen outputs of augmentation elimination and point tests.

The strings and answers were produced by a Groebner kernel that kept every
basis member monic over the Gaussian rationals.  The documents are the
bundled algebras and planted ones from the benchmark generator: as
generated, with each differential image scaled by a multi-digit rational or
Gaussian factor (same variety), and with every coefficient replaced by one
(a new ideal).  Any later kernel must print the same text byte for byte and
give the same answers.
"""

import pytest

from kch.augment import augmentation_exists, eliminate_augmentation_ideal
from kch.dga import load_bundled, load_dga_text
from kch.scalars import parse_scalar

TORUS = ("Q", "X", "P")

# torus points asked of every algebra, as (Q, X, P)
FIXED_POINTS = [
    ('2', '-1/3', '5/7'),
    ('1', '-1', '2'),
    ('i', '1+2i', '3/4-i'),
    ('-2/5+1/3i', '1', '-2i'),
]

# notes shared by many documents
NOTES = [
    (
        'unknowns: u_u',
        'equations from degree-one generators: 2',
        'saturated against _w*Q*X*P',
        'reduced basis has 3 elements, 1 in the torus block',
    ),
    (
        'unknowns: (none)',
        'equations from degree-one generators: 1',
        'saturated against _w*Q*X*P',
        'reduced basis has 3 elements, 1 in the torus block',
    ),
    (
        'unknowns: u_v0',
        'equations from degree-one generators: 2',
        'saturated against _w*Q*X*P',
        'reduced basis has 5 elements, 1 in the torus block',
    ),
    (
        'unknowns: u_v0, u_v1',
        'equations from degree-one generators: 3',
        'saturated against _w*Q*X*P',
        'reduced basis has 6 elements, 1 in the torus block',
    ),
    (
        'unknowns: u_v0',
        'equations from degree-one generators: 2',
        'saturated against _w*Q*X*P',
        'reduced basis has 6 elements, 1 in the torus block',
    ),
    (
        'unknowns: u_v0, u_v1',
        'equations from degree-one generators: 3',
        'saturated against _w*Q*X*P',
        'reduced basis has 7 elements, 1 in the torus block',
    ),
    (
        'unknowns: u_v0',
        'equations from degree-one generators: 2',
        'saturated against _w*Q*X*P',
        'reduced basis has 4 elements, 1 in the torus block',
    ),
]

# name -> (extra points, str(polynomial), notes index, exists answers)
BUNDLED = {
    'elim_synthetic': (
        [('3', '4', '-2'), ('1', '-1', 'i'), ('2', '1/9', '-1/3')],
        '-X + P^2',
        0,
        [False, False, False, False, True, True, True],
    ),
    'unknot': (
        [('1', '1', '5/2'), ('i', '1', '2+i'), ('-1/2', '3', '7')],
        '1 - X - P + Q*X*P',
        1,
        [False, False, False, False, True, False, False],
    ),
}

# (document, its planted points, str(polynomial), notes index, exists answers)
DOCUMENTS = [
    (
        (
            '{"name": "planted_0", "torus_variables": ["Q", "X", "P"], "generators": '
            '[{"name": "v0", "degree": 0}, {"name": "a0", "degree": 1}, {"name": "b",'
            ' "degree": 1}], "differential": {"a0": [{"coefficient": "Q^-1*X*P^-1-Q",'
            ' "word": []}, {"coefficient": "1", "word": ["v0"]}], "b": [{"coefficient'
            '": "5/6+5/6*Q", "word": []}, {"coefficient": "Q^-1*X*P^-1-2*Q-Q*X", "wor'
            'd": ["v0"]}, {"coefficient": "1-Q+Q*X", "word": ["v0", "v0"]}]}}'
        ),
        [('-1', '1', '1'), ('2', '2', '-2'), ('2', '1', '2'), ('3', '-2', '3')],
        (
            '-6*X^2 + 6*X^3 + 6*Q*X*P + 12*Q^2*X*P + 6*Q*X^2*P - 12*Q^2*X^2*P + 5*Q*P'
            '^2 + 5*Q^2*P^2 - 6*Q^3*P^2 - 6*Q^4*P^2 - 6*Q^3*X*P^2 + 6*Q^4*X*P^2'
        ),
        2,
        [False, False, False, False, True, True, False, False],
    ),
    (
        (
            '{"name": "planted_1", "torus_variables": ["Q", "X", "P"], "generators": '
            '[{"name": "v0", "degree": 0}, {"name": "v1", "degree": 0}, {"name": "a0"'
            ', "degree": 1}, {"name": "a1", "degree": 1}, {"name": "b", "degree": 1}]'
            ', "differential": {"a0": [{"coefficient": "-Q*X^-1*P-Q*X*P", "word": []}'
            ', {"coefficient": "1", "word": ["v0"]}], "a1": [{"coefficient": "2*P-3*Q'
            '*X^-1*P", "word": []}, {"coefficient": "1", "word": ["v1"]}], "b": [{"co'
            'efficient": "500", "word": []}, {"coefficient": "-3*P-Q*P", "word": ["v0'
            '", "v0"]}, {"coefficient": "1+Q*P", "word": ["v0", "v1"]}, {"coefficient'
            '": "2*P-3*Q*X^-1*P", "word": ["v1"]}, {"coefficient": "1", "word": ["v1"'
            ', "v1"]}]}}'
        ),
        [('-2', '2', '2'), ('-2', '2', '2'), ('1', '-2', '-1/3'), ('-1', '1', '1/2')],
        (
            '-500*X^2 - 3*Q^2*P^2 + 2*Q*X*P^2 - 3*Q^2*X^2*P^2 + 2*Q*X^3*P^2 + 3*Q^2*P'
            '^3 - 2*Q^3*P^3 + 2*Q^2*X*P^3 + 6*Q^2*X^2*P^3 - Q^3*X^2*P^3 + 2*Q^2*X^3*P'
            '^3 + 3*Q^2*X^4*P^3 + Q^3*X^4*P^3'
        ),
        3,
        [False, False, False, False, True, True, False, False],
    ),
    (
        (
            '{"name": "planted_2", "torus_variables": ["Q", "X", "P"], "generators": '
            '[{"name": "v0", "degree": 0}, {"name": "a0", "degree": 1}, {"name": "b",'
            ' "degree": 1}], "differential": {"a0": [{"coefficient": "-Q*X^-1-2*Q*X^-'
            '1*P", "word": []}, {"coefficient": "1", "word": ["v0"]}], "b": [{"coeffi'
            'cient": "-627/2+613/4*Q", "word": []}, {"coefficient": "-Q*X^-1-2*Q*X^-1'
            '*P+3*Q*P", "word": ["v0"]}, {"coefficient": "4+X*P", "word": ["v0", "v0"'
            ']}]}}'
        ),
        [('-2', '1', '2'), ('2', '2', '-1'), ('1', '1', '2'), ('1', '-1/3', '1/2')],
        (
            '12*Q^2 - 1254*X^2 + 613*Q*X^2 + 48*Q^2*P + 16*Q^2*X*P + 48*Q^2*P^2 + 40*'
            'Q^2*X*P^2 + 16*Q^2*X*P^3'
        ),
        4,
        [False, False, False, False, True, True, False, False],
    ),
    (
        (
            '{"name": "planted_3", "torus_variables": ["Q", "X", "P"], "generators": '
            '[{"name": "v0", "degree": 0}, {"name": "v1", "degree": 0}, {"name": "a0"'
            ', "degree": 1}, {"name": "a1", "degree": 1}, {"name": "b", "degree": 1}]'
            ', "differential": {"a0": [{"coefficient": "Q*P^-1+Q*P", "word": []}, {"c'
            'oefficient": "1", "word": ["v0"]}], "a1": [{"coefficient": "3*X*P^-1-3*Q'
            '", "word": []}, {"coefficient": "1", "word": ["v1"]}], "b": [{"coefficie'
            'nt": "-135/2+15/4*Q", "word": []}, {"coefficient": "3+Q*P^-1-Q*P", "word'
            '": ["v0"]}, {"coefficient": "1+Q*X", "word": ["v0", "v0"]}]}}'
        ),
        [('2', '1', '-1'), ('-2', '-1', '-2'), ('3', '-1', '-1'), ('-2', '-1', '1/2')],
        (
            '4*Q^3*X - 12*Q*P - 270*P^2 + 15*Q*P^2 + 8*Q^2*P^2 + 8*Q^3*X*P^2 - 12*Q*P'
            '^3 + 8*Q^2*P^4 + 4*Q^3*X*P^4'
        ),
        5,
        [False, False, False, False, True, True, False, True],
    ),
    (
        (
            '{"name": "planted_4", "torus_variables": ["Q", "X", "P"], "generators": '
            '[{"name": "v0", "degree": 0}, {"name": "a0", "degree": 1}, {"name": "b",'
            ' "degree": 1}], "differential": {"a0": [{"coefficient": "-Q^-1*X^-1*P^-1'
            '-Q^-1*X^-1*P+Q^-1*X*P^-1", "word": []}, {"coefficient": "1", "word": ["v'
            '0"]}], "b": [{"coefficient": "13/4+9/4*Q", "word": []}, {"coefficient": '
            '"-Q^-1*X^-1*P^-1-Q^-1*X^-1*P+Q^-1*X*P^-1-1+Q*P", "word": ["v0"]}, {"coef'
            'ficient": "1-X*P", "word": ["v0", "v0"]}]}}'
        ),
        [('-1', '-1', '1'), ('-2', '1', '1'), ('-1', '-1', '2'), ('1', '-1', '-1')],
        (
            '4 + 4*Q - 8*X^2 - 4*Q*X^2 + 4*X^4 - 4*Q^2*P - 13*Q^2*X*P - 9*Q^3*X*P + 4'
            '*Q^2*X^2*P + 8*P^2 + 4*Q*P^2 - 8*X^2*P^2 - 4*Q^2*P^3 + 4*P^4'
        ),
        4,
        [False, False, False, False, True, True, False, False],
    ),
    (
        (
            '{"name": "planted_5", "torus_variables": ["Q", "X", "P"], "generators": '
            '[{"name": "v0", "degree": 0}, {"name": "v1", "degree": 0}, {"name": "a0"'
            ', "degree": 1}, {"name": "a1", "degree": 1}, {"name": "b", "degree": 1}]'
            ', "differential": {"a0": [{"coefficient": "X^-1+3*P", "word": []}, {"coe'
            'fficient": "1", "word": ["v0"]}], "a1": [{"coefficient": "3*Q^-1*X^-1+3*'
            'Q*X^-1*P", "word": []}, {"coefficient": "1", "word": ["v1"]}], "b": [{"c'
            'oefficient": "-251/4+66*Q", "word": []}, {"coefficient": "X+Q*P", "word"'
            ': ["v0", "v0"]}, {"coefficient": "X^-1+3*P", "word": ["v1"]}, {"coeffici'
            'ent": "1", "word": ["v1", "v0"]}, {"coefficient": "Q*X", "word": ["v1", '
            '"v1"]}]}}'
        ),
        [('2', '-2', '-1'), ('-2', '-2', '-2'), ('-1/3', '2', '-1'), ('1', '1', '-1')],
        (
            '36*X + 4*Q*X - 251*Q*X^2 + 264*Q^2*X^2 + 4*Q^2*P + 72*Q^2*X*P + 24*Q*X^2'
            '*P + 24*Q^2*X*P^2 + 36*Q^4*X*P^2 + 36*Q*X^3*P^2 + 36*Q^2*X^2*P^3'
        ),
        5,
        [False, False, False, False, True, True, False, False],
    ),
    (
        (
            '{"name": "planted_6", "torus_variables": ["Q", "X", "P"], "generators": '
            '[{"name": "v0", "degree": 0}, {"name": "a0", "degree": 1}, {"name": "b",'
            ' "degree": 1}], "differential": {"a0": [{"coefficient": "3*Q^-1-3*Q*X^-1'
            '*P^-1", "word": []}, {"coefficient": "1", "word": ["v0"]}], "b": [{"coef'
            'ficient": "9", "word": []}, {"coefficient": "3*Q^-1+3+3*X*P-3*Q*X^-1*P^-'
            '1", "word": ["v0"]}, {"coefficient": "1+P-Q", "word": ["v0", "v0"]}]}}'
        ),
        [('2', '2', '-2'), ('1', '-1/3', '1'), ('2', '-1/3', '-1/3')],
        (
            'Q^5 - Q^4*P - 3*Q^3*X*P + 2*Q^2*X*P^2 + 2*Q*X^2*P^2 - Q^2*X^2*P^2 - Q^3*'
            'X^2*P^2 - X^2*P^3 + Q*X^3*P^3'
        ),
        6,
        [False, False, False, False, True, False, False],
    ),
    (
        (
            '{"name": "planted_7", "torus_variables": ["Q", "X", "P"], "generators": '
            '[{"name": "v0", "degree": 0}, {"name": "v1", "degree": 0}, {"name": "a0"'
            ', "degree": 1}, {"name": "a1", "degree": 1}, {"name": "b", "degree": 1}]'
            ', "differential": {"a0": [{"coefficient": "X*P^-1-Q*P^-1", "word": []}, '
            '{"coefficient": "1", "word": ["v0"]}], "a1": [{"coefficient": "-1+2*Q*X^'
            '-1", "word": []}, {"coefficient": "1", "word": ["v1"]}], "b": [{"coeffic'
            'ient": "62-60*Q", "word": []}, {"coefficient": "-Q*X", "word": ["v0", "v'
            '0"]}, {"coefficient": "3-X*P", "word": ["v0", "v1"]}, {"coefficient": "-'
            '1+2*Q*X^-1", "word": ["v1"]}, {"coefficient": "1", "word": ["v1", "v1"]}'
            ']}}'
        ),
        [('2', '-2', '2'), ('1', '2', '1'), ('3', '-1', '-2'), ('-1', '1', '1')],
        (
            '-Q^3*X^2 + 2*Q^2*X^3 - Q*X^4 - 6*Q^2*P + 9*Q*X*P - 3*X^2*P + 62*X*P^2 - '
            '60*Q*X*P^2 + 2*Q^2*X*P^2 - 3*Q*X^2*P^2 + X^3*P^2'
        ),
        3,
        [False, False, False, False, True, True, False, False],
    ),
    (
        (
            '{"name": "planted_8", "torus_variables": ["Q", "X", "P"], "generators": '
            '[{"name": "v0", "degree": 0}, {"name": "a0", "degree": 1}, {"name": "b",'
            ' "degree": 1}], "differential": {"a0": [{"coefficient": "-Q^-1*X*P-2*Q*P'
            '^-1", "word": []}, {"coefficient": "1", "word": ["v0"]}], "b": [{"coeffi'
            'cient": "-9-9*Q", "word": []}, {"coefficient": "-Q^-1*X*P+2*P-2*Q*P^-1+Q'
            '", "word": ["v0"]}, {"coefficient": "1-X+Q", "word": ["v0", "v0"]}]}}'
        ),
        [('1', '-2', '-2'), ('2', '1', '2'), ('-1', '-2', '1/2'), ('1/2', '2', '-1/3')],
        (
            '-4*Q^5 + 4*Q^4*X - 2*Q^4*P + 9*Q^2*P^2 + 5*Q^3*P^2 - 4*Q^3*X*P^2 + 4*Q^2'
            '*X^2*P^2 - Q^2*X*P^3 - 2*Q*X*P^4 - Q*X^2*P^4 + X^3*P^4'
        ),
        6,
        [False, False, False, False, True, True, False, False],
    ),
    (
        (
            '{"name": "planted_9", "torus_variables": ["Q", "X", "P"], "generators": '
            '[{"name": "v0", "degree": 0}, {"name": "v1", "degree": 0}, {"name": "a0"'
            ', "degree": 1}, {"name": "a1", "degree": 1}, {"name": "b", "degree": 1}]'
            ', "differential": {"a0": [{"coefficient": "-Q^-1*X*P+2*Q*P", "word": []}'
            ', {"coefficient": "1", "word": ["v0"]}], "a1": [{"coefficient": "-X*P^-1'
            '-Q*X*P^-1", "word": []}, {"coefficient": "1", "word": ["v1"]}], "b": [{"'
            'coefficient": "-72", "word": []}, {"coefficient": "3-X*P^-1-X*P-Q*X*P^-1'
            '", "word": ["v0"]}, {"coefficient": "-X", "word": ["v0", "v0"]}, {"coeff'
            'icient": "1", "word": ["v0", "v1"]}]}}'
        ),
        [('1', '-2', '2'), ('-1', '1', '-1'), ('1', '-1', '-1')],
        (
            '72*Q^2 + 6*Q^3*P - 3*Q*X*P - 2*Q^3*X*P^2 + 4*Q^4*X*P^2 + Q*X^2*P^2 - 4*Q'
            '^2*X^2*P^2 + X^3*P^2'
        ),
        5,
        [False, False, False, False, True, False, False],
    ),
    (
        (
            '{"name": "planted_10", "torus_variables": ["Q", "X", "P"], "generators":'
            ' [{"name": "v0", "degree": 0}, {"name": "a0", "degree": 1}, {"name": "b"'
            ', "degree": 1}], "differential": {"a0": [{"coefficient": "-Q^-1*X-Q*X^-1'
            '*P^-1", "word": []}, {"coefficient": "1", "word": ["v0"]}], "b": [{"coef'
            'ficient": "107/12+11/3*Q", "word": []}, {"coefficient": "-Q^-1*X-P-Q*X^-'
            '1*P^-1", "word": ["v0"]}, {"coefficient": "1+X*P+Q*X", "word": ["v0", "v'
            '0"]}]}}'
        ),
        [('-1', '-1', '2'), ('2', '-1', '1'), ('1/2', '1/2', '1'), ('-1/3', '-2', '-1')],
        (
            '12*Q^5 + 12*Q^4*P + 24*Q^3*X^2*P - 12*Q^3*P^2 + 107*Q^2*X*P^2 + 44*Q^3*X'
            '*P^2 + 24*Q^2*X^2*P^2 + 12*Q*X^4*P^2 - 12*Q*X^2*P^3 + 12*X^4*P^3'
        ),
        6,
        [False, False, False, False, True, True, False, False],
    ),
    (
        (
            '{"name": "planted_11", "torus_variables": ["Q", "X", "P"], "generators":'
            ' [{"name": "v0", "degree": 0}, {"name": "v1", "degree": 0}, {"name": "a0'
            '", "degree": 1}, {"name": "a1", "degree": 1}, {"name": "b", "degree": 1}'
            '], "differential": {"a0": [{"coefficient": "-3*Q^-1*P^-1-Q*X*P^-1", "wor'
            'd": []}, {"coefficient": "1", "word": ["v0"]}], "a1": [{"coefficient": "'
            '2*Q^-1*X^-1*P+3*Q*X*P", "word": []}, {"coefficient": "1", "word": ["v1"]'
            '}], "b": [{"coefficient": "1451/4+701/4*Q", "word": []}, {"coefficient":'
            ' "2*Q^-1*X^-1*P+3*Q*X*P", "word": ["v0"]}, {"coefficient": "2*X+3*Q*X", '
            '"word": ["v0", "v0"]}, {"coefficient": "1-X*P-Q", "word": ["v0", "v1"]}]'
            '}}'
        ),
        [('-1', '2', '-2'), ('-2', '1', '2'), ('-2', '-2', '1/2'), ('2', '1/2', '-1/3')],
        (
            '72*X^2 + 108*Q*X^2 + 48*Q^2*X^3 + 72*Q^3*X^3 + 8*Q^4*X^4 + 12*Q^5*X^4 + '
            '24*Q*P^2 + 1451*Q^2*X*P^2 + 709*Q^3*X*P^2 + 36*Q^3*X^2*P^2 + 12*Q^5*X^3*'
            'P^2 + 24*X*P^3 + 8*Q^2*X^2*P^3 + 36*Q^2*X^3*P^3 + 12*Q^4*X^4*P^3'
        ),
        3,
        [False, False, False, False, True, True, False, False],
    ),
    (
        (
            '{"name": "planted_100_scaled", "torus_variables": ["Q", "X", "P"], "gene'
            'rators": [{"name": "v0", "degree": 0}, {"name": "a0", "degree": 1}, {"na'
            'me": "b", "degree": 1}], "differential": {"a0": [{"coefficient": "112/57'
            '*Q*X^-1*P^-1 - 224/57*Q^-1*P^-1 + 224/57*X^-1", "word": []}, {"coefficie'
            'nt": "112/57", "word": ["v0"]}], "b": [{"coefficient": "-4046/197", "wor'
            'd": []}, {"coefficient": "-578/197*Q*X^-1*P^-1 + 1156/197*Q^-1*P^-1 - 11'
            '56/197*X^-1 - 1734/197 + 1156/197*X*P", "word": ["v0"]}, {"coefficient":'
            ' "-578/197 + 578/197*Q*X", "word": ["v0", "v0"]}]}}'
        ),
        [('-2', '2', '-2'), ('2', '-2', '2'), ('3', '-2', '1/2')],
        (
            '-Q^4 + 4*Q^2*X - 4*X^2 - 3*Q^2*P - 4*Q^3*P + 6*X*P + 8*Q*X*P - 6*Q*P^2 -'
            ' 4*Q^2*P^2 + 7*Q*X*P^2 + 2*Q^2*X*P^2 - 4*X^2*P^2 + 4*Q*X*P^3'
        ),
        6,
        [False, False, False, False, True, False, False],
    ),
    (
        (
            '{"name": "planted_101_scaled", "torus_variables": ["Q", "X", "P"], "gene'
            'rators": [{"name": "v0", "degree": 0}, {"name": "v1", "degree": 0}, {"na'
            'me": "a0", "degree": 1}, {"name": "a1", "degree": 1}, {"name": "b", "deg'
            'ree": 1}], "differential": {"a0": [{"coefficient": "930/401*X^-1*P + 279'
            '0/401*X*P", "word": []}, {"coefficient": "-930/401", "word": ["v0"]}], "'
            'a1": [{"coefficient": "-454/447*X^-1*P^-1 + 454/149", "word": []}, {"coe'
            'fficient": "454/447", "word": ["v1"]}], "b": [{"coefficient": "611689/50'
            '8 + 269607/508*Q", "word": []}, {"coefficient": "223/254*X^-1*P + 669/12'
            '7*X*P - 223/127*Q*X*P", "word": ["v0"]}, {"coefficient": "-223/254 + 669'
            '/254*X*P", "word": ["v0", "v0"]}]}}'
        ),
        [('1', '2', '-2'), ('-2', '-2', '1'), ('-1', '-2', '2'), ('-2', '2', '-1/3')],
        (
            '2743*X + 1209*Q*X + 6*X*P^2 - 4*Q*X*P^2 + 18*X^3*P^2 - 12*Q*X^3*P^2 + 6*'
            'P^3 + 36*X^2*P^3 + 54*X^4*P^3'
        ),
        3,
        [False, False, False, False, True, True, False, False],
    ),
    (
        (
            '{"name": "planted_102_scaled_gaussian", "torus_variables": ["Q", "X", "P'
            '"], "generators": [{"name": "v0", "degree": 0}, {"name": "a0", "degree":'
            ' 1}, {"name": "b", "degree": 1}], "differential": {"a0": [{"coefficient"'
            ': "(1412/175-45/7i)*Q^-1*X^-1*P + (706/175-45/14i)*Q*X^-1*P + (-706/175+'
            '45/14i)*Q^-1*P", "word": []}, {"coefficient": "(-706/175+45/14i)", "word'
            '": ["v0"]}], "b": [{"coefficient": "(897/269-80/23i) + (897/538-40/23i)*'
            'Q", "word": []}, {"coefficient": "(897/538-40/23i)*Q + (-299/269+80/69i)'
            '*Q^-1*X^-1*P + (-299/538+40/69i)*Q*X^-1*P + (299/538-40/69i)*Q^-1*P + (-'
            '299/538+40/69i)*Q*P", "word": ["v0"]}, {"coefficient": "(-299/269+80/69i'
            ') + (299/538-40/69i)*P", "word": ["v0", "v0"]}]}}'
        ),
        [('-2', '-2', '-1'), ('2', '2', '-1'), ('-1/3', '-1/3', '-1/3'), ('1', '3', '-1/3')],
        (
            '6*Q^2*X^2 + 3*Q^3*X^2 + 6*Q^2*X*P + 3*Q^4*X*P - 3*Q^2*X^2*P - 12*P^2 - 1'
            '2*Q^2*P^2 - 3*Q^4*P^2 + 12*X*P^2 + 4*Q^2*X*P^2 - Q^4*X*P^2 - 3*X^2*P^2 +'
            ' Q^2*X^2*P^2 + 4*P^3 + 4*Q^2*P^3 + Q^4*P^3 - 4*X*P^3 - 2*Q^2*X*P^3 + X^2'
            '*P^3'
        ),
        4,
        [False, False, False, False, True, True, False, False],
    ),
    (
        (
            '{"name": "planted_103_scaled_gaussian", "torus_variables": ["Q", "X", "P'
            '"], "generators": [{"name": "v0", "degree": 0}, {"name": "v1", "degree":'
            ' 0}, {"name": "a0", "degree": 1}, {"name": "a1", "degree": 1}, {"name": '
            '"b", "degree": 1}], "differential": {"a0": [{"coefficient": "(172/73-92/'
            '67i)*Q*X*P^-1 + (-86/73+46/67i)*Q^-1*X", "word": []}, {"coefficient": "('
            '-86/73+46/67i)", "word": ["v0"]}], "a1": [{"coefficient": "(-158/871-70/'
            '11i)*Q*X*P^-1 + (79/871+35/11i)*Q*X^-1", "word": []}, {"coefficient": "('
            '79/871+35/11i)", "word": ["v1"]}], "b": [{"coefficient": "(-3036-29601/9'
            '4i) + (1748+17043/94i)*Q", "word": []}, {"coefficient": "(-184/13-69/47i'
            ')*P + (184/13+69/47i)*Q*X*P", "word": ["v0", "v0"]}, {"coefficient": "(-'
            '276/13-207/94i)*Q + (-92/13-69/94i)*P", "word": ["v0", "v1"]}, {"coeffic'
            'ient": "(-184/13-69/47i)*Q*X*P^-1 + (92/13+69/94i)*Q^-1*X", "word": ["v1'
            '"]}, {"coefficient": "(92/13+69/94i)", "word": ["v1", "v0"]}]}}'
        ),
        [('2', '1', '-2'), ('1', '-2', '-2'), ('2', '2', '2'), ('-1/3', '-2', '3')],
        (
            '-12*Q^5*X^2 + 6*Q^5*P + 6*Q^3*X^2*P - 12*Q^4*X^2*P + 8*Q^5*X^3*P - 429*Q'
            '^2*P^2 + 244*Q^3*P^2 + 2*Q^4*P^2 + 10*Q^2*X^2*P^2 - 8*Q^3*X^3*P^2 - Q^2*'
            'P^3 - 2*X^2*P^3 + 2*Q*X^3*P^3'
        ),
        5,
        [False, False, False, False, True, True, False, False],
    ),
    (
        (
            '{"name": "planted_104_perturbed", "torus_variables": ["Q", "X", "P"], "g'
            'enerators": [{"name": "v0", "degree": 0}, {"name": "a0", "degree": 1}, {'
            '"name": "b", "degree": 1}], "differential": {"a0": [{"coefficient": "652'
            '/177*Q*P^-1 + 135/362*X", "word": []}, {"coefficient": "597/74", "word":'
            ' ["v0"]}], "b": [{"coefficient": "-266/5 + 389/891*Q", "word": []}, {"co'
            'efficient": "691/379*Q*P^-1 - 458/729 + 304/799*X", "word": ["v0"]}, {"c'
            'oefficient": "-229/903", "word": ["v0", "v0"]}]}}'
        ),
        [('-2', '-1', '2'), ('1', '1', '-2'), ('-2', '2', '3'), ('1', '-2', '3')],
        (
            '131511757492735532731506600*Q^2 - 42611047020159115413589520*Q*P + 39914'
            '725941857330513790885*Q*X*P + 7902493917983325754355369646*P^2 - 6485215'
            '8470576983672232745*Q*P^2 - 4313929806065069920040850*X*P^2 + 2693028224'
            '159502631832925*X^2*P^2'
        ),
        6,
        [False, False, False, False, False, False, False, False],
    ),
    (
        (
            '{"name": "planted_105_perturbed", "torus_variables": ["Q", "X", "P"], "g'
            'enerators": [{"name": "v0", "degree": 0}, {"name": "v1", "degree": 0}, {'
            '"name": "a0", "degree": 1}, {"name": "a1", "degree": 1}, {"name": "b", "'
            'degree": 1}], "differential": {"a0": [{"coefficient": "-337/714 - 194/34'
            '9*Q*X", "word": []}, {"coefficient": "237/215", "word": ["v0"]}], "a1": '
            '[{"coefficient": "684/293*Q*X^-1*P^-1 + 446/911*X", "word": []}, {"coeff'
            'icient": "-501/182", "word": ["v1"]}], "b": [{"coefficient": "-404/899 -'
            ' 415/406*Q", "word": []}, {"coefficient": "415/396*Q - 214/307*P", "word'
            '": ["v0"]}, {"coefficient": "-217/384*P", "word": ["v0", "v1"]}, {"coeff'
            'icient": "86/195 - 150/19*Q*X", "word": ["v1"]}, {"coefficient": "675/42'
            '1", "word": ["v1", "v0"]}]}}'
        ),
        [('-2', '2', '-1'), ('2', '-1', '-1'), ('3', '-1', '-1'), ('1', '-2', '-1/3')],
        (
            '-88026564789301405130448254208*Q + 553223068056584773280649216000*Q^2*X '
            '+ 18890169308991151336049935050*Q*P + 41369956843829561803853141760*X*P '
            '+ 52790722635524636991053691400*Q*X*P + 22247461522146517123653786600*Q^'
            '2*X*P - 18460427512880789408908526976*X^2*P - 48649986280963788973757148'
            '000*Q^2*X^2*P + 116018776499538430557591552000*Q*X^3*P + 274764484091235'
            '21522982027200*X*P^2 + 3961538225072931991533520475*X^2*P^2 + 3235975383'
            '5359643128543430400*Q*X^2*P^2 + 4665610338858818733807122700*Q*X^3*P^2'
        ),
        5,
        [False, False, False, False, False, False, False, False],
    ),
    (
        (
            '{"name": "planted_106_perturbed_gaussian", "torus_variables": ["Q", "X",'
            ' "P"], "generators": [{"name": "v0", "degree": 0}, {"name": "a0", "degre'
            'e": 1}, {"name": "b", "degree": 1}], "differential": {"a0": [{"coefficie'
            'nt": "(955/379-9/80i)*P^-1 + (255/587-41/17i)*Q^-1*X*P^-1 - 275/381*Q*X*'
            'P^-1", "word": []}, {"coefficient": "-94/463", "word": ["v0"]}], "b": [{'
            '"coefficient": "-277/42", "word": []}, {"coefficient": "(8/45+93/55i)*P^'
            '-1 + (-77/87+19/12i)*Q^-1*X*P^-1 - 8/63*Q*X*P^-1 + (-183/143+73/87i) - 1'
            '68/155*P", "word": ["v0"]}, {"coefficient": "-103/217 - 779/10*Q", "word'
            '": ["v0", "v0"]}]}}'
        ),
        [('2', '2', '1'), ('3', '-1', '2'), ('3', '-1', '1/2')],
        (
            '(-221347750925504248515974030138389050+869094778572747183879679111638076'
            '80i)*Q^2 + (-37962834024294336203793820523423386413+33965931849980157072'
            '85526801733477600i)*Q^3 + (-27267391254501968009902791471745200+51586673'
            '6463770588627959367848425600i)*Q*X + (-986476873801283293848792161080468'
            '1760+73401427450320971627035487591160847200i)*Q^2*X + (12578238441956725'
            '5094395140437120000-24761314650150343620860189072731200i)*Q^3*X + (21792'
            '082260121418944380749384116800000-972942311377934031666004399858932000i)'
            '*Q^4*X + (259058794074949518144444022458528000+1205575442560547876322230'
            '33946528000i)*X^2 + (33716527420205360350223885018068531200+125534721767'
            '87740443883871544222912000i)*Q*X^2 + (3200469086321352360780585530496000'
            '0-140151427467119665595107492866912000i)*Q^2*X^2 + (37569606572231410649'
            '22674570721600000-20857848243919108652709113931616320000i)*Q^3*X^2 - 175'
            '86373415553732966406231601600000*Q^4*X^2 - 31211331073657842952248610085'
            '88000000*Q^5*X^2 + (-48874495815811529782303454353972800+352600502794530'
            '95238382014057460800i)*Q^2*P + (22916850476881505937390612709632000+5388'
            '1230708139261564319622547968000i)*Q*X*P + (14422117498866105383607035414'
            '400000-9456220373761904032376976489600000i)*Q^3*X*P + (-6354963408526972'
            '2728661712371840000+1903865942772577750521567730798080i)*Q^2*P^2 + (-735'
            '1668603551123624955514235904000+40814903871202973998109425862860800i)*Q*'
            'X*P^2 + 12214946264507643777041262781440000*Q^3*X*P^2'
        ),
        2,
        [False, False, False, False, False, False, False],
    ),
    (
        (
            '{"name": "planted_107_perturbed_gaussian", "torus_variables": ["Q", "X",'
            ' "P"], "generators": [{"name": "v0", "degree": 0}, {"name": "v1", "degre'
            'e": 0}, {"name": "a0", "degree": 1}, {"name": "a1", "degree": 1}, {"name'
            '": "b", "degree": 1}], "differential": {"a0": [{"coefficient": "-148/585'
            '*Q*X*P^-1 + (-92/175-25/12i)*Q*X", "word": []}, {"coefficient": "(351/46'
            '9+16/47i)", "word": ["v0"]}], "a1": [{"coefficient": "-648/697*Q^-1*X*P '
            '+ 71/33*Q*X*P", "word": []}, {"coefficient": "(467/875-6/11i)", "word": '
            '["v1"]}], "b": [{"coefficient": "682/301 + 734/695*Q", "word": []}, {"co'
            'efficient": "(-29/14-17/9i)*X*P", "word": ["v0", "v1"]}, {"coefficient":'
            ' "(34/929-5/13i)*Q*X*P^-1 + (-625/201-23/84i)*Q + 803/800*Q*X", "word": '
            '["v1"]}, {"coefficient": "(109/90-89/36i)", "word": ["v1", "v0"]}]}}'
        ),
        [('2', '1', '2'), ('-1', '1', '-1'), ('2', '1/2', '2'), ('-2', '-1/3', '3')],
        (
            '(-334669781546521358480757036725760-287228174965008317744041546528320i) '
            '+ (-155994711947929597279663231612416-133881452367600893842617091163712i'
            ')*Q + (-292313403435199949429186485094400+464403488981013564391210475520'
            '0i)*X^2 + (676473690413287499878514384019200-107472575099155528717863041'
            '53600i)*Q^2*X^2 + (-16705967604606226547189348760000+7400123989299429984'
            '71297365680000i)*X*P + (38661065228635818048108833805000-171254178759100'
            '6788503043992490000i)*Q^2*X*P + (-493231992905091462719606723333520-1875'
            '258153669533494920676730952840i)*X^2*P + (114144087321802568348322006722'
            '8110+4339735327845314443655982481512495i)*Q^2*X^2*P + (-5004780262733810'
            '2172521098240000+198332551172648729170996200000000i)*X^3*P + (1158209693'
            '51808859998669640320000-458982555175872973273713475000000i)*Q^2*X^3*P - '
            '1737227303752695885228826980252000*X^3*P^2 + 402030338481152549907963714'
            '7948500*Q^2*X^3*P^2'
        ),
        3,
        [False, False, False, False, False, False, False, False],
    ),
]


def _answers(dga, points):
    return [
        augmentation_exists(dga, dict(zip(TORUS, map(parse_scalar, point))))
        for point in FIXED_POINTS + points
    ]


def _check(dga, points, polynomial, notes, exists):
    result = eliminate_augmentation_ideal(dga)
    assert (None if result.polynomial is None else str(result.polynomial)) == polynomial
    assert result.notes == NOTES[notes]
    assert _answers(dga, points) == exists


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_algebras(name):
    _check(load_bundled(name), *BUNDLED[name])


@pytest.mark.parametrize("index", range(len(DOCUMENTS)))
def test_planted_documents(index):
    text, *expected = DOCUMENTS[index]
    _check(load_dga_text(text), *expected)


def test_answers_cover_both_outcomes():
    answers = [a for _, _, _, _, exists in DOCUMENTS for a in exists]
    answers += [a for _, _, _, exists in BUNDLED.values() for a in exists]
    assert 10 <= sum(answers) <= len(answers) - 10

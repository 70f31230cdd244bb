import json
from fractions import Fraction

import pytest

from kch import augment
from kch.augment import (
    augmentation_exists,
    augmentation_system,
    eliminate_augmentation_ideal,
    is_augmentation,
)
from kch.dga import DGA, Generator, build_dga, bundled_names, load_bundled, load_dga_text
from kch.errors import DomainError
from kch.groebner import reduced_groebner_basis
from kch.laurent import LaurentPolynomial, parse_polynomial
from kch.scalars import Scalar, parse_scalar

RING = ("Q", "X", "P")


def lp(text, ring=RING):
    return parse_polynomial(text, ring)


def sc(x):
    return Scalar.of(x)


def test_unknot_system_has_no_unknowns():
    algebra = load_bundled("unknot")
    system = augmentation_system(algebra)
    assert system.unknowns == ()
    assert len(system.equations) == 1
    name, poly = system.equations[0]
    assert name == "c"
    assert poly == lp("1 - X - P + Q*X*P", system.ring)


def test_synthetic_system_unknowns():
    algebra = load_bundled("elim_synthetic")
    system = augmentation_system(algebra)
    assert system.unknowns == ("u_u",)
    assert system.unknown_of == {"u": "u_u"}
    assert system.ring == ("u_u", "Q", "X", "P")
    ring = system.ring
    assert sorted(str(poly) for _, poly in system.equations) == sorted(
        [str(lp("u_u^2 - X", ring)), str(lp("u_u - P", ring))]
    )


def test_degree_zero_words_survive_epsilon():
    # words containing a nonzero-degree letter are killed by the augmentation
    doc = {
        "name": "mixed",
        "torus_variables": ["Q", "X", "P"],
        "generators": [
            {"name": "u", "degree": 0},
            {"name": "h", "degree": 2},
            {"name": "a", "degree": 1},
            {"name": "b", "degree": 3},
        ],
        "differential": {
            "a": [
                {"coefficient": "1", "word": ["u", "u"]},
                {"coefficient": "-X", "word": []},
            ],
            "b": [{"coefficient": "1", "word": ["h"]}],
        },
    }
    algebra = build_dga(doc, source="inline")
    system = augmentation_system(algebra)
    # only degree-1 generators contribute equations; d(b) involves h which maps to 0
    assert len(system.equations) == 1
    assert system.equations[0][1] == lp("u_u^2 - X", system.ring)


def test_epsilon_image_sums_the_words_of_each_monomial():
    # uv and vu land on one monomial, so a commutator vanishes; a Laurent
    # coefficient keeps its torus exponents behind the unknown counts
    doc = {
        "name": "words",
        "torus_variables": ["Q", "X", "P"],
        "generators": [
            {"name": "u", "degree": 0},
            {"name": "v", "degree": 0},
            {"name": "a", "degree": 1},
            {"name": "b", "degree": 1},
        ],
        "differential": {
            "a": [{"coefficient": "1", "word": ["u", "v"]}, {"coefficient": "-1", "word": ["v", "u"]}],
            "b": [
                {"coefficient": "Q^-1*X", "word": ["u", "u", "v"]},
                {"coefficient": "2*P - Q^-1*X", "word": ["v", "u", "u"]},
                {"coefficient": "1/2", "word": []},
            ],
        },
    }
    system = augmentation_system(build_dga(doc, source="inline"))
    assert system.ring == ("u_u", "u_v", "Q", "X", "P")
    assert dict(system.equations) == {
        "a": lp("0", system.ring),
        "b": lp("2*P*u_u^2*u_v + 1/2", system.ring),
    }
    result = eliminate_augmentation_ideal(build_dga(doc, source="inline"))
    assert result.principal is True and result.polynomial is None


@pytest.mark.parametrize(
    "torus, generators, message",
    [
        (("_w",), [Generator("c", 1)], "duplicate variable names in ring"),
        (("Q",), [Generator("a b", 0), Generator("c", 1)], "invalid variable name 'u_a b'"),
    ],
)
def test_names_of_an_algebra_built_in_code_are_checked(torus, generators, message):
    # loading refuses both; built in code, the system refuses them before
    # any polynomial is made
    algebra = DGA("in_code", torus, generators, {})
    with pytest.raises(DomainError, match=message):
        augmentation_system(algebra)


def test_is_augmentation_on_synthetic():
    algebra = load_bundled("elim_synthetic")
    point = {"Q": sc(1), "X": sc(4), "P": sc(2)}
    assert is_augmentation(algebra, {"u": sc(2)}, point)
    assert not is_augmentation(algebra, {"u": sc(1)}, point)
    with pytest.raises(DomainError):
        is_augmentation(algebra, {}, point)  # u value missing


def test_augmentation_exists_unknot():
    algebra = load_bundled("unknot")
    on = {"Q": sc(1), "X": sc(2), "P": sc(1)}
    off = {"Q": sc(2), "X": sc(1), "P": sc(1)}
    assert augmentation_exists(algebra, on)
    assert not augmentation_exists(algebra, off)


def test_augmentation_exists_requires_torus_point():
    algebra = load_bundled("unknot")
    with pytest.raises(DomainError):
        augmentation_exists(algebra, {"Q": sc(1), "X": sc(0), "P": sc(1)})
    with pytest.raises(DomainError):
        augmentation_exists(algebra, {"Q": sc(1), "X": sc(1)})
    with pytest.raises(DomainError):
        augmentation_exists(algebra, {"Q": sc(1), "X": sc(1), "P": sc(1), "Z": sc(1)})


def test_augmentation_exists_with_unknowns():
    algebra = load_bundled("elim_synthetic")
    assert augmentation_exists(algebra, {"Q": sc(1), "X": sc(4), "P": sc(2)})
    assert not augmentation_exists(algebra, {"Q": sc(1), "X": sc(4), "P": sc(3)})
    # complex point: u = i, X = -1, P = i
    assert augmentation_exists(
        algebra, {"Q": sc(1), "X": sc(-1), "P": Scalar(0, 1)}
    )


def test_unknot_elimination():
    result = eliminate_augmentation_ideal(load_bundled("unknot"))
    assert result.principal
    assert str(result.polynomial) == "1 - X - P + Q*X*P"
    assert result.generators == (result.polynomial,)


def test_synthetic_elimination_is_p_squared_minus_x():
    result = eliminate_augmentation_ideal(load_bundled("elim_synthetic"))
    assert result.principal
    assert result.polynomial == lp("P^2 - X")


# d(a) = u^2 - u*X: solutions u = 0 and u = X; both survive elimination, so
# no torus relation exists at all
TWO_BRANCHES = {
    "name": "two_branches",
    "torus_variables": ["Q", "X", "P"],
    "generators": [
        {"name": "u", "degree": 0},
        {"name": "a", "degree": 1},
    ],
    "differential": {
        "a": [
            {"coefficient": "1", "word": ["u", "u"]},
            {"coefficient": "-X", "word": ["u"]},
        ],
    },
}

TWO_RELATIONS = {
    "name": "two_relations",
    "torus_variables": ["Q", "X", "P"],
    "generators": [
        {"name": "a", "degree": 1},
        {"name": "b", "degree": 1},
    ],
    "differential": {
        "a": [{"coefficient": "1 - X", "word": []}],
        "b": [{"coefficient": "1 - P", "word": []}],
    },
}

IMPOSSIBLE = {
    "name": "impossible",
    "torus_variables": ["Q", "X", "P"],
    "generators": [{"name": "a", "degree": 1}],
    "differential": {"a": [{"coefficient": "1", "word": []}]},
}


def test_unknown_stripping_keeps_components():
    algebra = build_dga(TWO_BRANCHES, source="inline")
    result = eliminate_augmentation_ideal(algebra)
    assert result.principal and result.polynomial is None
    assert result.generators == ()


def test_nonprincipal_elimination():
    algebra = build_dga(TWO_RELATIONS, source="inline")
    result = eliminate_augmentation_ideal(algebra)
    assert not result.principal
    assert result.polynomial is None
    assert set(map(str, result.generators)) == {"-1 + X", "-1 + P"}


def test_empty_variety_is_noted():
    algebra = build_dga(IMPOSSIBLE, source="inline")
    result = eliminate_augmentation_ideal(algebra)
    assert any("empty" in note for note in result.notes)


def test_laurent_coefficients_are_cleared_before_elimination():
    # the differential uses negative torus powers; elimination must cope
    doc = {
        "name": "laurent",
        "torus_variables": ["Q", "X", "P"],
        "generators": [{"name": "a", "degree": 1}],
        "differential": {
            "a": [
                {"coefficient": "X^-1", "word": []},
                {"coefficient": "-P", "word": []},
            ],
        },
    }
    algebra = build_dga(doc, source="inline")
    result = eliminate_augmentation_ideal(algebra)
    assert result.principal
    # X^-1 - P = 0 clears to 1 - X*P = 0
    assert result.polynomial == lp("X*P - 1")


def test_check_failures_block_the_system():
    doc = {
        "name": "broken",
        "torus_variables": ["Q", "X", "P"],
        "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 2}],
        "differential": {
            "a": [{"coefficient": "1 - X", "word": []}],
            "b": [{"coefficient": "1", "word": ["a"]}],
        },
    }
    algebra = build_dga(doc, source="inline")
    with pytest.raises(DomainError):
        augmentation_system(algebra)


# -- frozen outputs of the first implementation --------------------------------
#
# Printed by the Groebner kernel that skipped only coprime pairs and worked on
# LaurentPolynomial values, with the augmentation system rebuilt for every
# call; any later kernel must print the same text byte for byte.

FROZEN_POINTS = [
    (1, 2, 1),
    (2, 1, 1),
    (1, 4, 2),
    (1, 4, 3),
    (1, -1, Scalar(0, 1)),
    (Fraction(1, 2), 3, -2),
    (3, Fraction(-2, 3), Fraction(1, 5)),
]

FROZEN_BUNDLED = {
    "elim_synthetic": (
        "AugmentationVarietyResult(principal=True, polynomial=LaurentPolynomial(("
        "'Q', 'X', 'P'), -X + P^2), generators=(LaurentPolynomial(('Q', 'X', 'P'),"
        " -X + P^2),), notes=('unknowns: u_u', 'equations from degree-one generato"
        "rs: 2', 'saturated against _w*Q*X*P', 'reduced basis has 3 elements, 1 in"
        " the torus block'))",
        [False, True, True, False, True, False, False],
    ),
    "unknot": (
        "AugmentationVarietyResult(principal=True, polynomial=LaurentPolynomial(("
        "'Q', 'X', 'P'), 1 - X - P + Q*X*P), generators=(LaurentPolynomial(('Q', "
        "'X', 'P'), 1 - X - P + Q*X*P),), notes=('unknowns: (none)', 'equations fr"
        "om degree-one generators: 1', 'saturated against _w*Q*X*P', 'reduced basi"
        "s has 3 elements, 1 in the torus block'))",
        [True, False, False, False, False, False, False],
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_BUNDLED))
def test_bundled_outputs_are_frozen(name):
    variety_text, exists = FROZEN_BUNDLED[name]
    algebra = load_bundled(name)
    result = eliminate_augmentation_ideal(algebra)
    assert repr(result) == variety_text
    for poly in result.generators:
        assert all(type(c) is Scalar for _, c in poly.terms())
    points = [dict(zip(RING, map(sc, point))) for point in FROZEN_POINTS]
    assert [augmentation_exists(algebra, point) for point in points] == exists


def test_bundled_set_is_covered():
    assert set(bundled_names()) == set(FROZEN_BUNDLED)


# -- one augmentation system per algebra ---------------------------------------

BROKEN = {
    "name": "broken",
    "torus_variables": ["Q", "X", "P"],
    "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 2}],
    "differential": {
        "a": [{"coefficient": "1 - X", "word": []}],
        "b": [{"coefficient": "1", "word": ["a"]}],
    },
}


def test_system_is_kept_per_algebra_object():
    text = json.dumps(
        {
            "name": "synthetic",
            "torus_variables": ["Q", "X", "P"],
            "generators": [{"name": "u", "degree": 0}, {"name": "a", "degree": 1}],
            "differential": {
                "a": [
                    {"coefficient": "1", "word": ["u", "u"]},
                    {"coefficient": "-X", "word": []},
                ]
            },
        }
    )
    first, second = load_dga_text(text), load_dga_text(text)
    assert augmentation_system(first) is augmentation_system(first)
    assert augmentation_system(second) is not augmentation_system(first)
    assert augmentation_system(second) == augmentation_system(first)


def test_differential_is_read_only():
    # the kept system would go stale if the differential could change
    algebra = load_bundled("unknot")
    system = augmentation_system(algebra)
    with pytest.raises(TypeError):
        algebra.differential["c"] = algebra.differential["c"]
    with pytest.raises(TypeError):
        system.unknown_of["c"] = "u_c"


def test_failing_algebra_raises_on_every_call():
    algebra = build_dga(BROKEN, source="inline")
    point = {"Q": sc(1), "X": sc(2), "P": sc(1)}
    for _ in range(3):
        with pytest.raises(DomainError, match="fails structural checks"):
            augmentation_system(algebra)
        with pytest.raises(DomainError, match="fails structural checks"):
            eliminate_augmentation_ideal(algebra)
        with pytest.raises(DomainError, match="fails structural checks"):
            augmentation_exists(algebra, point)
        with pytest.raises(DomainError, match="fails structural checks"):
            is_augmentation(algebra, {}, point)


def test_check_runs_once_per_algebra(monkeypatch):
    calls = []
    original = DGA.check
    monkeypatch.setattr(DGA, "check", lambda self: calls.append(self) or original(self))
    algebra = load_bundled("elim_synthetic")
    eliminate_augmentation_ideal(algebra)
    assert augmentation_exists(algebra, {"Q": sc(1), "X": sc(4), "P": sc(2)})
    assert not augmentation_exists(algebra, {"Q": sc(1), "X": sc(4), "P": sc(3)})
    assert is_augmentation(algebra, {"u": sc(2)}, {"Q": sc(1), "X": sc(4), "P": sc(2)})
    eliminate_augmentation_ideal(algebra)
    assert calls == [algebra]


def test_specialised_equations_keep_scalar_coefficients(monkeypatch):
    seen = []
    original = augment.ideal_contains_one

    def recorded(polys, **kwargs):
        seen.extend(polys)
        return original(polys, **kwargs)

    monkeypatch.setattr(augment, "ideal_contains_one", recorded)
    algebra = load_bundled("elim_synthetic")
    assert augmentation_exists(algebra, {"Q": sc(1), "X": sc(-1), "P": Scalar(0, 1)})
    assert not augmentation_exists(algebra, {"Q": sc(1), "X": sc(Fraction(1, 4)), "P": sc(3)})
    assert seen and all(type(c) is Scalar for poly in seen for _, c in poly.terms())
    assert all(poly.variables == ("u_u",) for poly in seen)


# -- the integral point route against the specialize route it replaced ------------


def _reference_cases():
    """(algebra, torus points) for the bundled algebras and the planted
    documents of the frozen tests, at their fixed and their own points."""
    from test_frozen_augment import BUNDLED, DOCUMENTS, FIXED_POINTS

    for name, (points, *_) in sorted(BUNDLED.items()):
        yield load_bundled(name), FIXED_POINTS + points
    for text, points, *_ in DOCUMENTS:
        yield load_dga_text(text), FIXED_POINTS + points


def test_point_tests_match_the_specialize_route(monkeypatch):
    seen = []
    original = augment.ideal_contains_one

    def recorded(polys, **kwargs):
        seen.append(polys)
        return original(polys, **kwargs)

    monkeypatch.setattr(augment, "ideal_contains_one", recorded)
    kinds = {"rational": 0, "gaussian": 0, "negative exponents": 0, "exists": 0}
    for algebra, points in _reference_cases():
        system = augmentation_system(algebra)
        negative = any(e < 0 for _, eq in system.equations for exps, _ in eq.terms() for e in exps)
        for point in points:
            values = {name: parse_scalar(v) for name, v in zip(RING, point)}
            seen.clear()
            answer = augmentation_exists(algebra, values)
            old = [eq.specialize(values) for _, eq in system.equations]
            if not system.unknowns:
                assert not seen and answer == all(poly.is_zero() for poly in old)
                continue
            (new,) = seen
            # each equation times a nonzero constant, every coefficient integral
            for n, o in zip(new, old):
                assert n.is_zero() == o.is_zero()
                if not o.is_zero():
                    assert n == o.scale(n.leading_term()[1] / o.leading_term()[1])
                for _, c in n.terms():
                    assert c.re.denominator == c.im.denominator == 1
            basis = reduced_groebner_basis(old)
            assert reduced_groebner_basis(new) == basis
            assert answer == (basis != [LaurentPolynomial.one(system.unknowns)])
            kinds["gaussian" if any(v.im for v in values.values()) else "rational"] += 1
            kinds["negative exponents"] += negative
            kinds["exists"] += answer
    assert all(count >= 20 for count in kinds.values()), kinds


# -- the torus-block route against the full-basis route it replaced ---------------

# two relations in the torus block, behind an unknown the block must not hold
TWO_RELATIONS_BEHIND_AN_UNKNOWN = {
    "name": "two_relations_behind_an_unknown",
    "torus_variables": ["Q", "X", "P"],
    "generators": [
        {"name": "u", "degree": 0},
        {"name": "a", "degree": 1},
        {"name": "b", "degree": 1},
        {"name": "c", "degree": 1},
    ],
    "differential": {
        "a": [{"coefficient": "1", "word": ["u", "u"]}, {"coefficient": "-X", "word": []}],
        "b": [{"coefficient": "1", "word": ["u"]}, {"coefficient": "-Q*P", "word": []}],
        "c": [{"coefficient": "Q - P", "word": ["u"]}],
    },
}


def _elimination_cases():
    """Every algebra of the point-test reference, the inline documents whose
    varieties are the whole torus, empty or not principal, and a Laurent one."""
    for algebra, _ in _reference_cases():
        yield algebra
    for doc in (TWO_BRANCHES, TWO_RELATIONS, IMPOSSIBLE, TWO_RELATIONS_BEHIND_AN_UNKNOWN):
        yield build_dga(doc, source="inline")
    yield load_dga_text(
        '{"name": "laurent", "torus_variables": ["Q", "X", "P"], "generators": [{"name": "a",'
        ' "degree": 1}], "differential": {"a": [{"coefficient": "X^-1 - P", "word": []}]}}'
    )


def _full_basis_route(generators, torus):
    """The elimination as first written: the whole reduced basis, its members
    in the torus variables alone, each stripped and made primitive; the basis
    size and the sorted survivors."""
    basis = reduced_groebner_basis(generators)
    width = len(generators[0].variables) - len(torus)
    survivors = [
        LaurentPolynomial(torus, {e[width:]: c for e, c in g.terms()})
        for g in basis
        if not any(any(e[:width]) for e, _ in g.terms())
    ]
    survivors = [p.strip_monomial_factor()[0].primitive_normalized() for p in survivors]
    survivors.sort(key=lambda p: (len(list(p.terms())), str(p)))
    return len(basis), tuple(survivors)


@pytest.fixture
def elimination_inputs(monkeypatch):
    """The generators of every elimination from here on, as passed to the
    kernel, in order."""
    seen = []
    original = augment._eliminate

    def recorded(polys, block, limit):
        seen.append(list(polys))
        return original(polys, block, limit)

    monkeypatch.setattr(augment, "_eliminate", recorded)
    return seen


def test_elimination_matches_the_full_basis_route(elimination_inputs):
    kinds = {"principal": 0, "whole torus": 0, "empty": 0, "not principal": 0, "unknowns": 0}
    for algebra in _elimination_cases():
        elimination_inputs.clear()
        result = eliminate_augmentation_ideal(algebra)
        (generators,) = elimination_inputs
        size, survivors = _full_basis_route(generators, algebra.torus_variables)
        assert repr(result.generators) == repr(survivors)
        assert result.notes[3] == (
            f"reduced basis has {size} elements, {len(survivors)} in the torus block"
        )
        if not survivors:
            assert result.principal and result.polynomial is None
            kinds["whole torus"] += 1
        elif len(survivors) > 1:
            assert not result.principal and result.polynomial is None
            kinds["not principal"] += 1
        else:
            assert result.principal and result.polynomial == survivors[0]
            kinds["empty" if survivors[0].is_constant() else "principal"] += 1
        kinds["unknowns"] += len(augmentation_system(algebra).unknowns) > 0
    assert kinds["principal"] >= 10 and kinds["unknowns"] >= 10
    assert all(kinds.values()), kinds


def test_elimination_reduces_only_the_torus_block_once(monkeypatch):
    # one public basis call per elimination, so a wrapper around
    # augment.reduced_groebner_basis counts eliminations; it sees the torus
    # block alone, over the torus ring
    calls = []
    original = augment.reduced_groebner_basis

    def recorded(polys, **kwargs):
        calls.append(list(polys))
        return original(calls[-1], **kwargs)

    monkeypatch.setattr(augment, "reduced_groebner_basis", recorded)
    for algebra in _elimination_cases():
        calls.clear()
        result = eliminate_augmentation_ideal(algebra)
        (block,) = calls
        assert all(poly.variables == algebra.torus_variables for poly in block)
        assert len(block) == len(result.generators)


def test_elimination_reduces_as_many_pairs_as_the_full_basis(
    groebner_counters, elimination_inputs
):
    from test_frozen_augment import DOCUMENTS

    eliminate_augmentation_ideal(load_dga_text(DOCUMENTS[1][0]))
    pairs = groebner_counters["pairs_reduced"]
    groebner_counters.clear()
    reduced_groebner_basis(elimination_inputs[0])
    assert pairs == groebner_counters["pairs_reduced"] > 0

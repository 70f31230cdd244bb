import json

import pytest

from kch import augment
from kch.dga import (
    DGA,
    AlgebraElement,
    Generator,
    build_dga,
    bundled_names,
    load_bundled,
    load_dga,
    load_dga_text,
)
from kch.errors import DomainError, ParseError
from kch.laurent import LaurentPolynomial, parse_polynomial
from kch.scalars import Scalar


def make(doc, source="test"):
    return build_dga(doc, source=source)


def word_element(algebra, *names):
    """The element of ``algebra`` that is the given word with coefficient 1."""
    ring = algebra.torus_variables
    return AlgebraElement(ring, {names: LaurentPolynomial.one(ring)})


BASE_DOC = {
    "name": "sample",
    "torus_variables": ["Q", "X", "P"],
    "generators": [
        {"name": "x", "degree": 0},
        {"name": "a", "degree": 1},
    ],
    "differential": {
        "a": [
            {"coefficient": "1 - X", "word": ["x", "x"]},
            {"coefficient": "Q", "word": []},
        ],
    },
}


def test_bundled_algebras_load_and_check():
    assert set(bundled_names()) >= {"unknot", "elim_synthetic"}
    for name in bundled_names():
        algebra = load_bundled(name)
        report = algebra.check()
        assert report.ok, (name, report)


def test_unknot_differential_prints_exactly():
    algebra = load_bundled("unknot")
    assert str(algebra.differential_of("c")) == "1 - X - P + Q*X*P"
    assert algebra.differential_of("e").is_zero()
    assert algebra.generator("c").degree == 1


def test_build_and_word_degree():
    algebra = make(BASE_DOC)
    assert algebra.word_degree(("x", "x")) == 0
    assert algebra.word_degree(("a", "x", "a")) == 2
    assert algebra.word_degree(()) == 0
    report = algebra.check()
    assert report.degrees_ok
    # d(a) has word degree 0 = |a| - 1 everywhere, and d(x) = 0, so d^2(a) needs d(x)
    assert report.d_squared_ok


def test_differential_defaults_to_zero():
    algebra = make(BASE_DOC)
    assert algebra.differential_of("x").is_zero()


def test_leibniz_sign():
    # d(a*a) = d(a)*a - a*d(a) since |a| = 1
    doc = {
        "name": "leibniz",
        "torus_variables": ["X"],
        "generators": [{"name": "x", "degree": 0}, {"name": "a", "degree": 1}],
        "differential": {"a": [{"coefficient": "1", "word": ["x", "x"]}]},
    }
    algebra = make(doc)
    a = word_element(algebra, "a")
    image = algebra.apply_differential(a * a)
    expected = AlgebraElement(
        algebra.torus_variables,
        {
            ("x", "x", "a"): parse_polynomial("1", ("X",)),
            ("a", "x", "x"): parse_polynomial("-1", ("X",)),
        },
    )
    assert image == expected


def test_even_degree_leibniz_no_sign():
    doc = {
        "name": "even",
        "torus_variables": ["X"],
        "generators": [{"name": "b", "degree": 2}, {"name": "c", "degree": 3}],
        "differential": {"c": [{"coefficient": "1", "word": ["b"]}]},
    }
    algebra = make(doc)
    b = word_element(algebra, "b")
    c = word_element(algebra, "c")
    image = algebra.apply_differential(b * c)
    # |b| even: d(b*c) = d(b)*c + b*d(c) = b*b
    assert image == b * b


def test_degree_violation_reported():
    doc = dict(BASE_DOC)
    doc["differential"] = {"a": [{"coefficient": "1", "word": ["a", "a"]}]}
    algebra = make(doc)
    report = algebra.check()
    assert not report.degrees_ok
    assert not report.ok
    assert any("a" in v for v in report.degree_violations)


def test_d_squared_failure_reported():
    doc = {
        "name": "broken",
        "torus_variables": ["X"],
        "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 2}],
        "differential": {
            "a": [{"coefficient": "1 - X", "word": []}],
            "b": [{"coefficient": "1", "word": ["a"]}],
        },
    }
    algebra = make(doc)
    report = algebra.check()
    assert report.degrees_ok
    assert not report.d_squared_ok
    bad = dict(report.nonzero_images())
    assert "b" in bad and str(bad["b"]) == "1 - X"


def test_check_report_is_kept_on_the_algebra(monkeypatch):
    # a request checks the algebra and then builds its augmentation system,
    # which checks it again; the second check reads the first report
    applied = []
    original = DGA.apply_differential

    def recorded(self, element):
        applied.append(element)
        return original(self, element)

    monkeypatch.setattr(DGA, "apply_differential", recorded)
    for algebra in (load_bundled("elim_synthetic"), make(BASE_DOC)):
        applied.clear()
        report = algebra.check()
        assert len(applied) == len(algebra.generators)
        assert algebra.check() is report
        augment.eliminate_augmentation_ideal(algebra)
        assert algebra.check() is report and len(applied) == len(algebra.generators)
    broken = make({**BASE_DOC, "differential": {"a": [{"coefficient": "1", "word": ["a"]}]}})
    report = broken.check()
    assert not report.ok and broken.check() is report


def test_scalar_unit_has_degree_zero_and_d_zero():
    algebra = make(BASE_DOC)
    one = AlgebraElement(algebra.torus_variables, {(): parse_polynomial("Q^-1", ("Q", "X", "P"))})
    assert algebra.apply_differential(one).is_zero()


def test_algebra_element_multiplication_is_noncommutative():
    algebra = make(BASE_DOC)
    x = word_element(algebra, "x")
    a = word_element(algebra, "a")
    assert x * a != a * x
    (word, poly), = list((x * a).terms())
    assert word == ("x", "a") and str(poly) == "1"


def test_algebra_element_arithmetic_matches_the_public_constructor():
    algebra = make(BASE_DOC)
    x = word_element(algebra, "x")
    a = word_element(algebra, "a")
    q = LaurentPolynomial.variable(algebra.torus_variables, "Q")
    d = algebra.differential_of("a")
    computed = [x * a + d, x * a - a * x, d - d, -d, d * d, (x + a).scale(q), d * x - x * d]
    for elem in computed:
        rebuilt = AlgebraElement(elem.ring, dict(elem.terms()))
        assert rebuilt == elem
        assert hash(rebuilt) == hash(elem)
        assert str(rebuilt) == str(elem)
        assert tuple(rebuilt.terms()) == tuple(elem.terms())
        assert all(not poly.is_zero() for _, poly in elem.terms())
    assert (d - d).is_zero()


def test_algebra_element_str():
    algebra = make(BASE_DOC)
    x = word_element(algebra, "x")
    a = word_element(algebra, "a")
    two = LaurentPolynomial.constant(algebra.torus_variables, Scalar(2))
    elem = x * a - x.scale(two)
    text = str(elem)
    assert "x*a" in text and "x" in text


def test_load_dga_text_and_json_path_errors():
    text = json.dumps(BASE_DOC)
    algebra = load_dga_text(text, source="inline")
    assert algebra.name == "sample"

    bad = dict(BASE_DOC)
    bad["differential"] = {"a": [{"coefficient": "1 +", "word": []}]}
    with pytest.raises(ParseError) as err:
        load_dga_text(json.dumps(bad), source="doc.json")
    assert "doc.json" in str(err.value)
    assert "differential" in str(err.value)


def test_invalid_json_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_dga_text("{not json", source="x")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_dga_text('{"name": "x", "generators": [{"name": "a", "degree": %s}]}' % ("7" * 5000))
    path = tmp_path / "latin1.dga.json"
    path.write_bytes(json.dumps(BASE_DOC).replace("sample", "sampl\u00e9").encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8 text"):
        load_dga(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(torus_variables=["Q", "Q"]),
        lambda d: d.update(torus_variables=["i"]),
        lambda d: d.update(torus_variables=["_w"]),
        lambda d: d.update(generators=[{"name": "Q", "degree": 0}]),
        lambda d: d.update(generators=[{"name": "a", "degree": "x"}]),
        lambda d: d.update(differential={"zz": []}),
        lambda d: d.update(differential={"a": [{"coefficient": "1", "word": ["zz"]}]}),
        lambda d: d.update(differential={"a": [{"word": []}]}),
        lambda d: d.pop("name"),
        lambda d: d.update(generators=[{"name": "a", "degree": 0}, {"name": "a", "degree": 1}]),
        lambda d: d.update(torus_variables=["é"]),
        lambda d: d.update(generators=[{"name": "i", "degree": 0}]),
        lambda d: d.update(differential={"a": [{"coefficient": "7" * 5000, "word": []}]}),
    ],
)
def test_document_validation(mutate):
    doc = json.loads(json.dumps(BASE_DOC))
    mutate(doc)
    with pytest.raises(ParseError):
        make(doc)


def test_generator_lookup_errors():
    algebra = make(BASE_DOC)
    with pytest.raises(DomainError):
        algebra.generator("missing")


def test_unknot_d_squared_is_zero_symbolically():
    algebra = load_bundled("unknot")
    c = word_element(algebra, "c")
    dc = algebra.apply_differential(c)
    assert algebra.apply_differential(dc).is_zero()
    assert isinstance(algebra.generator("e"), Generator)
    assert isinstance(algebra, DGA)

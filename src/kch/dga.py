"""Differential graded algebras presented by generators and differentials.

The algebra is free and noncommutative on named graded generators, with
central coefficients in a Laurent polynomial ring whose variables record the
torus parameters of a link diagram.  Elements are finite sums
``coefficient * word`` where a word is a tuple of generator names.  The
differential is specified on generators and extended by the graded Leibniz
rule d(vw) = d(v) w + (-1)^{|v|} v d(w).

Algebras load from a small JSON document format::

    {
      "name": "unknot",
      "torus_variables": ["Q", "X", "P"],
      "generators": [{"name": "c", "degree": 1}, ...],
      "differential": {"c": [{"coefficient": "1 - X", "word": ["e"]}, ...]}
    }

Every validation error carries the JSON path of the offending value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import DomainError, ParseError, RingMismatchError
from .laurent import LaurentPolynomial, _NAME, parse_polynomial

Word = tuple[str, ...]

RESERVED_NAMES = frozenset({"i", "_w"})


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int


class AlgebraElement:
    """A noncommutative polynomial in generator words with central coefficients."""

    __slots__ = ("ring", "_terms")

    def __init__(
        self,
        ring: Iterable[str],
        terms: Mapping[Word, LaurentPolynomial] | Iterable[tuple[Word, LaurentPolynomial]],
    ) -> None:
        ring = tuple(ring)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Word, LaurentPolynomial] = {}
        for word, poly in items:
            word = tuple(word)
            if poly.variables != ring:
                raise RingMismatchError(
                    f"coefficient ring {poly.variables!r} does not match {ring!r}"
                )
            acc[word] = acc[word] + poly if word in acc else poly
        _make(ring, acc, self)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def zero(cls, ring: Iterable[str]) -> "AlgebraElement":
        return cls(ring, {})

    def terms(self):
        return iter(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _check_ring(self, other: "AlgebraElement") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"mismatched rings {self.ring!r} and {other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_ring(other)
        acc = dict(self._terms)
        for word, poly in other._terms:
            acc[word] = acc[word] + poly if word in acc else poly
        return _make(self.ring, acc)

    def __neg__(self) -> "AlgebraElement":
        return _make(self.ring, {w: -p for w, p in self._terms})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_ring(other)
        acc: dict[Word, LaurentPolynomial] = {}
        for w1, p1 in self._terms:
            for w2, p2 in other._terms:
                word = w1 + w2
                product = p1 * p2
                acc[word] = acc[word] + product if word in acc else product
        return _make(self.ring, acc)

    def scale(self, poly: LaurentPolynomial) -> "AlgebraElement":
        if poly.variables != self.ring:
            raise RingMismatchError(
                f"coefficient ring {poly.variables!r} does not match {self.ring!r}"
            )
        return _make(self.ring, {w: p * poly for w, p in self._terms})

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.ring, self._terms))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        if len(self._terms) == 1 and self._terms[0][0] == ():
            return str(self._terms[0][1])
        pieces = []
        for word, poly in self._terms:
            body = "*".join(word)
            text = str(poly)
            if not body:
                pieces.append(f"({text})" if " " in text else text)
            elif text == "1":
                pieces.append(body)
            else:
                wrapped = f"({text})" if (" " in text or "*" in text) else text
                pieces.append(f"{wrapped}*{body}")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"AlgebraElement({self.ring!r}, {self})"


def _make(ring: tuple[str, ...], acc: Mapping, element=None) -> AlgebraElement:
    """Drop zero coefficients and order words by length, then by name; checks
    nothing.  Fills ``element`` when the constructor passes itself."""
    if element is None:
        element = object.__new__(AlgebraElement)
    object.__setattr__(element, "ring", ring)
    nonzero = [kv for kv in acc.items() if not kv[1].is_zero()]
    nonzero.sort(key=lambda kv: (len(kv[0]), kv[0]))
    object.__setattr__(element, "_terms", tuple(nonzero))
    return element


@dataclass(frozen=True)
class DgaCheckReport:
    """Outcome of the structural checks on a loaded algebra."""

    degrees_ok: bool
    degree_violations: tuple[str, ...]
    d_squared_ok: bool
    d_squared_images: tuple[tuple[str, AlgebraElement], ...]

    @property
    def ok(self) -> bool:
        return self.degrees_ok and self.d_squared_ok

    def nonzero_images(self) -> tuple[tuple[str, AlgebraElement], ...]:
        return tuple((g, im) for g, im in self.d_squared_images if not im.is_zero())


class DGA:
    # ``_report`` holds the first ``check()``'s report, and ``_augmentation``
    # the augmentation system once ``kch.augment`` has built it (a failed
    # build is not stored); the read-only ``differential`` keeps both current
    __slots__ = (
        "name", "torus_variables", "generators", "differential", "_by_name", "_report",
        "_augmentation",
    )

    def __init__(
        self,
        name: str,
        torus_variables: Iterable[str],
        generators: Iterable[Generator],
        differential: Mapping[str, AlgebraElement],
    ) -> None:
        torus_variables = tuple(torus_variables)
        generators = tuple(generators)
        by_name = {g.name: g for g in generators}
        if len(by_name) != len(generators):
            raise DomainError("duplicate generator names")
        ring = torus_variables
        diff: dict[str, AlgebraElement] = {}
        for gen_name, image in differential.items():
            if gen_name not in by_name:
                raise DomainError(f"differential given for unknown generator {gen_name!r}")
            if image.ring != ring:
                raise RingMismatchError("differential image lives in the wrong ring")
            diff[gen_name] = image
        for g in generators:
            diff.setdefault(g.name, AlgebraElement.zero(ring))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "torus_variables", torus_variables)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "differential", MappingProxyType(diff))
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_report", None)
        object.__setattr__(self, "_augmentation", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("DGA is immutable")

    def generator(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise DomainError(f"unknown generator {name!r}") from None

    def word_degree(self, word: Word) -> int:
        return sum(self.generator(g).degree for g in word)

    def differential_of(self, name: str) -> AlgebraElement:
        self.generator(name)
        return self.differential[name]

    def apply_differential(self, element: AlgebraElement) -> AlgebraElement:
        """Extend the differential to products by the graded Leibniz rule."""
        if element.ring != self.torus_variables:
            raise RingMismatchError("element lives in the wrong ring")
        out = AlgebraElement.zero(self.torus_variables)
        for word, poly in element.terms():
            sign = 1
            for i, gen_name in enumerate(word):
                image = self.differential_of(gen_name)
                if not image.is_zero():
                    pieces = {}
                    for w2, p2 in image.terms():
                        new_word = word[:i] + w2 + word[i + 1 :]
                        scaled = p2 * poly if sign > 0 else -(p2 * poly)
                        prior = pieces.get(new_word)
                        pieces[new_word] = scaled if prior is None else prior + scaled
                    out = out + AlgebraElement(self.torus_variables, pieces)
                if self.generator(gen_name).degree % 2:
                    sign = -sign
        return out

    def check(self) -> DgaCheckReport:
        if self._report is not None:
            return self._report
        violations = []
        for g in self.generators:
            expected = g.degree - 1
            for word, _ in self.differential[g.name].terms():
                actual = self.word_degree(word)
                if actual != expected:
                    violations.append(
                        f"d({g.name}) term {'*'.join(word) or '1'} has degree "
                        f"{actual}, expected {expected}"
                    )
        images = tuple(
            (g.name, self.apply_differential(self.differential[g.name]))
            for g in self.generators
        )
        report = DgaCheckReport(
            degrees_ok=not violations,
            degree_violations=tuple(violations),
            d_squared_ok=all(im.is_zero() for _, im in images),
            d_squared_images=images,
        )
        object.__setattr__(self, "_report", report)
        return report


# -- JSON document loading ----------------------------------------------------

def _located(where: str, message: str) -> ParseError:
    return ParseError(f"{where}: {message}")


def _expect_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise _located(where, f"expected a string, got {type(value).__name__}")
    return value


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise _located(where, f"expected a list, got {type(value).__name__}")
    return value


def _expect_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise _located(where, f"expected an object, got {type(value).__name__}")
    return value


def _expect_identifier(value, where: str) -> str:
    text = _expect_str(value, where)
    if not _NAME.fullmatch(text):
        raise _located(where, f"{text!r} is not a valid name")
    if text in RESERVED_NAMES:
        raise _located(where, f"{text!r} is reserved")
    return text


def load_dga_text(text: str, *, source: str = "<string>") -> DGA:
    try:
        document = json.loads(text)
    except ValueError as exc:  # bad JSON, or a number past Python's int conversion limit
        raise ParseError(f"{source}: invalid JSON: {exc}") from exc
    return build_dga(document, source=source)


def _read_text(path) -> str:
    """The UTF-8 text of a file; bytes that do not decode are malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_dga(path) -> DGA:
    return load_dga_text(_read_text(path), source=str(path))


def build_dga(document, *, source: str = "<document>") -> DGA:
    root = _expect_dict(document, source)
    name = _expect_str(root.get("name"), f"{source}:name")

    raw_torus = _expect_list(root.get("torus_variables"), f"{source}:torus_variables")
    if not raw_torus:
        raise _located(f"{source}:torus_variables", "at least one torus variable is required")
    torus = tuple(
        _expect_identifier(v, f"{source}:torus_variables[{k}]") for k, v in enumerate(raw_torus)
    )
    if len(set(torus)) != len(torus):
        raise _located(f"{source}:torus_variables", "torus variable names must be distinct")

    raw_gens = _expect_list(root.get("generators"), f"{source}:generators")
    generators = []
    seen = set(torus)
    for k, raw in enumerate(raw_gens):
        where = f"{source}:generators[{k}]"
        entry = _expect_dict(raw, where)
        gname = _expect_identifier(entry.get("name"), f"{where}.name")
        degree = entry.get("degree")
        if isinstance(degree, bool) or not isinstance(degree, int):
            raise _located(f"{where}.degree", "degree must be an integer")
        if gname in seen:
            raise _located(f"{where}.name", f"name {gname!r} already in use")
        seen.add(gname)
        generators.append(Generator(gname, degree))
    gen_names = {g.name for g in generators}

    raw_diff = _expect_dict(root.get("differential", {}), f"{source}:differential")
    differential: dict[str, AlgebraElement] = {}
    for gname, raw_terms in raw_diff.items():
        where = f"{source}:differential.{gname}"
        if gname not in gen_names:
            raise _located(where, f"unknown generator {gname!r}")
        terms = []
        for k, raw_term in enumerate(_expect_list(raw_terms, where)):
            term_where = f"{where}[{k}]"
            entry = _expect_dict(raw_term, term_where)
            coeff_text = _expect_str(entry.get("coefficient"), f"{term_where}.coefficient")
            try:
                poly = parse_polynomial(coeff_text, torus)
            except ParseError as exc:
                raise _located(f"{term_where}.coefficient", str(exc)) from exc
            raw_word = _expect_list(entry.get("word"), f"{term_where}.word")
            word = []
            for j, letter in enumerate(raw_word):
                letter = _expect_str(letter, f"{term_where}.word[{j}]")
                if letter not in gen_names:
                    raise _located(f"{term_where}.word[{j}]", f"unknown generator {letter!r}")
                word.append(letter)
            terms.append((tuple(word), poly))
        differential[gname] = AlgebraElement(torus, terms)

    return DGA(name or source, torus, generators, differential)


def bundled_names() -> tuple[str, ...]:
    names = (entry.name for entry in resources.files("kch").joinpath("data").iterdir())
    return tuple(sorted(n.removesuffix(".dga.json") for n in names if n.endswith(".dga.json")))


def load_bundled(name: str) -> DGA:
    path = resources.files("kch").joinpath("data", f"{name}.dga.json")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DomainError(
            f"no bundled algebra named {name!r}; available: {', '.join(bundled_names())}"
        ) from None
    return load_dga_text(text, source=f"bundled:{name}")

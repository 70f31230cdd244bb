"""Seeded input writers for the benchmark workloads.

Every writer takes a ``random.Random`` built from the run's seed and returns
text in the formats the library's public parsers read: PD codes, DGA JSON
documents, polynomial text, JSON matrices and eigenvalue lists.  The same
seed always yields the same text.  Planted answers (the polynomial an
elimination must reach, points on and off a variety) are returned beside the
text so that the oracles never read the output under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

TORUS = ("Q", "X", "P")


# -- braid closures --------------------------------------------------------------


def random_braid(rng: random.Random, strands: int, crossings: int) -> list[int]:
    """A braid word in sigma_1..sigma_{strands-1} using every generator.

    Entry +i is sigma_i and -i its inverse.  Using every generator keeps each
    strand position in some crossing, so the closure has no free circle.
    """
    if crossings < strands - 1:
        raise ValueError("too few crossings to use every generator")
    word = list(range(1, strands))
    word += [rng.randrange(1, strands) for _ in range(crossings - len(word))]
    rng.shuffle(word)
    return [g if rng.random() < 0.5 else -g for g in word]


def braid_closure_pd(strands: int, word: list[int]) -> str:
    """PD text of the closure of a braid word, strands running upward.

    Each crossing lists its four arcs counterclockwise from the incoming
    under-strand.  Arcs leaving the top of the braid are identified with the
    arcs entering its bottom.
    """
    current = list(range(1, strands + 1))
    next_label = strands + 1
    records = []
    for letter in word:
        i = abs(letter) - 1
        bottom_left, bottom_right = current[i], current[i + 1]
        top_left, top_right = next_label, next_label + 1
        next_label += 2
        if letter > 0:
            # the strand rising left to right runs under
            records.append([bottom_left, bottom_right, top_right, top_left])
        else:
            records.append([bottom_right, top_right, top_left, bottom_left])
        current[i], current[i + 1] = top_left, top_right
    closing = {label: position + 1 for position, label in enumerate(current)}
    used = sorted({closing.get(label, label) for record in records for label in record})
    compact = {label: k + 1 for k, label in enumerate(used)}
    return ";".join(
        "X[" + ",".join(str(compact[closing.get(label, label)]) for label in record) + "]"
        for record in records
    )


def zipf_weights(size: int, exponent: float) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(size)]


# -- polynomial text ------------------------------------------------------------


def _monomial_text(coeff: Fraction, exps: dict[str, int]) -> str:
    factors = [name if e == 1 else f"{name}^{e}" for name, e in exps.items() if e]
    magnitude = abs(coeff)
    if not factors:
        body = str(magnitude)
    elif magnitude == 1:
        body = "*".join(factors)
    else:
        body = "*".join([str(magnitude)] + factors)
    return ("-" if coeff < 0 else "+") + body


def polynomial_text(terms: dict[tuple[int, ...], Fraction], names: tuple[str, ...]) -> str:
    """Render a map exponent-vector -> rational as parse_polynomial input."""
    pieces = [
        _monomial_text(coeff, dict(zip(names, exps)))
        for exps, coeff in sorted(terms.items())
        if coeff
    ]
    if not pieces:
        return "0"
    text = "".join(pieces)
    return text[1:] if text.startswith("+") else text


def _small_coefficient(rng: random.Random) -> Fraction:
    value = rng.choice([1, 1, 1, 2, 3])
    return Fraction(-value if rng.random() < 0.5 else value)


def random_torus_terms(
    rng: random.Random, count: int, low: int, high: int
) -> dict[tuple[int, ...], Fraction]:
    """A sparse Laurent polynomial in Q, X, P with exponents in [low, high]."""
    terms: dict[tuple[int, ...], Fraction] = {}
    while len(terms) < count:
        exps = tuple(rng.randint(low, high) for _ in TORUS)
        terms[exps] = _small_coefficient(rng)
    return terms


# -- planted augmentation varieties ----------------------------------------------


@dataclass(frozen=True)
class PlantedDga:
    """A DGA document whose augmentation variety is known in advance.

    ``g`` maps each unknown to its torus polynomial text, ``h`` is the text of
    h(u; Q, X, P) over the ring ``unknowns + TORUS``; eliminating u from
    u_i = g_i, h(u) = 0 leaves h(g).  ``points`` are torus points at which
    ``augmentation_exists`` is asked.
    """

    text: str
    unknowns: tuple[str, ...]
    g: dict[str, str]
    h: str
    points: tuple[dict[str, str], ...]


_POINT_VALUES = [Fraction(v) for v in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(-1, 3)]
# small planted coordinates keep the solved coefficients of h small
_PLANTED_VALUES = [Fraction(v) for v in (1, -1, 2, -2)]


def _evaluate(terms: dict[tuple[int, ...], Fraction], point: tuple[Fraction, ...]) -> Fraction:
    total = Fraction(0)
    for exps, coeff in terms.items():
        value = coeff
        for base, e in zip(point, exps):
            value *= base**e
        total += value
    return total


def _mul_terms(
    left: dict[tuple[int, ...], Fraction], right: dict[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _add_element(target: dict, source: dict, word_prefix: tuple[str, ...], factor: dict) -> None:
    """target += factor * word_prefix * source, for word -> torus-terms maps."""
    for word, coeff in source.items():
        key = word_prefix + word
        merged = dict(target.get(key, {}))
        for exps, c in _mul_terms(factor, coeff).items():
            merged[exps] = merged.get(exps, Fraction(0)) + c
        target[key] = {e: c for e, c in merged.items() if c}


def planted_dga(rng: random.Random, index: int, count: int) -> PlantedDga:
    """One seeded DGA with ``count`` unknowns: u_i - g_i and h(u), mixed by
    u-multiples.

    The constant and Q-linear coefficients of h are solved for so that two
    random torus points lie on the variety; two more random points are asked
    as well, whose answer only the oracle decides.
    """
    gens = tuple(f"v{k}" for k in range(count))
    unknowns = tuple(f"u_{name}" for name in gens)
    g_terms = [random_torus_terms(rng, rng.randint(2, 4 - count), -1, 1) for _ in gens]

    # h(u) = sum over u-monomials of degree 1..2 with torus coefficients
    u_monomials = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)] if count == 2 else [(1,), (2,)]
    chosen = rng.sample(u_monomials, k=2)
    if not any(sum(m) == 2 for m in chosen):
        chosen[-1] = u_monomials[-1]
    h_coeffs = {m: random_torus_terms(rng, rng.randint(1, 2), 0, 1) for m in chosen}

    on_points = [tuple(rng.choice(_PLANTED_VALUES) for _ in TORUS) for _ in range(2)]
    # h(g)(pt) + c0 + c1*Q must vanish at both planted points
    base_values = []
    for pt in on_points:
        g_values = [_evaluate(terms, pt) for terms in g_terms]
        value = Fraction(0)
        for mono, coeff in h_coeffs.items():
            term = _evaluate(coeff, pt)
            for gv, e in zip(g_values, mono):
                term *= gv**e
            value += term
        base_values.append(value)
    q0, q1 = on_points[0][0], on_points[1][0]
    if q0 == q1:
        c1 = Fraction(0)
        c0 = -base_values[0]
        if base_values[0] != base_values[1]:
            on_points = on_points[:1]
    else:
        c1 = -(base_values[0] - base_values[1]) / (q0 - q1)
        c0 = -base_values[0] - c1 * q0
    constant = {exps: c for exps, c in {(0, 0, 0): c0, (1, 0, 0): c1}.items() if c}
    if constant:
        h_coeffs[(0,) * count] = constant

    def u_word(mono: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(name for name, e in zip(gens, mono) for _ in range(e))

    one = {(0, 0, 0): Fraction(1)}
    differential: dict[str, dict] = {}
    for k, name in enumerate(gens):
        differential[f"a{k}"] = {(name,): one, (): {e: -c for e, c in g_terms[k].items()}}
    differential["b"] = {}
    for mono, coeff in h_coeffs.items():
        _add_element(differential["b"], {(): coeff}, u_word(mono), one)
    # mixing: d(b) += u_j * d(a_k) is an invertible row operation, so the
    # ideal and its variety are unchanged while the generators no longer
    # show the planted form
    j, k = rng.randrange(count), rng.randrange(count)
    _add_element(differential["b"], differential[f"a{k}"], (gens[j],), one)

    generators = [{"name": name, "degree": 0} for name in gens]
    generators += [{"name": f"a{k}", "degree": 1} for k in range(count)]
    generators += [{"name": "b", "degree": 1}]
    document = {
        "name": f"planted_{index}",
        "torus_variables": list(TORUS),
        "generators": generators,
        "differential": {
            name: [
                {"coefficient": polynomial_text(coeff, TORUS), "word": list(word)}
                for word, coeff in sorted(element.items())
                if coeff
            ]
            for name, element in differential.items()
        },
    }
    off_points = [tuple(rng.choice(_POINT_VALUES) for _ in TORUS) for _ in range(2)]
    points = tuple(
        {name: str(value) for name, value in zip(TORUS, pt)} for pt in on_points + off_points
    )
    h_full: dict[tuple[int, ...], Fraction] = {}
    for mono, coeff in h_coeffs.items():
        for exps, c in coeff.items():
            h_full[mono + exps] = h_full.get(mono + exps, Fraction(0)) + c
    return PlantedDga(
        text=json.dumps(document),
        unknowns=unknowns,
        g={u: polynomial_text(terms, TORUS) for u, terms in zip(unknowns, g_terms)},
        h=polynomial_text(h_full, unknowns + TORUS),
        points=points,
    )


# -- series inputs ---------------------------------------------------------------


def mirror_curve_text(rng: random.Random, p_degree: int, p_low: int) -> str:
    """A curve P - 1 - X*f(Q, P) with f = a*Q*P^d + b*P^e, 0 <= e <= d.

    Q stays symbolic.  P = 1 is a simple root at X = 0 (dA/dP = 1 there), so
    the branch exists to every order and each coefficient divides exactly.
    The exponents d = ``p_degree`` and e = ``p_low`` are given, since they,
    more than the random coefficients a and b, set the cost of the branch.
    """
    f = {(1, p_degree): _small_coefficient(rng), (0, p_low): _small_coefficient(rng)}
    terms = {(0, 0, 1): Fraction(1), (0, 0, 0): Fraction(-1)}
    for (q, p), coeff in f.items():
        terms[(q, 1, p)] = terms.get((q, 1, p), Fraction(0)) - coeff
    return polynomial_text(terms, TORUS)


def _rational_text(rng: random.Random, values: list[int]) -> str:
    value = Fraction(rng.choice(values), rng.choice([1, 1, 2]))
    return str(value)


def quadratic_form_json(rng: random.Random, n: int, off_diagonal) -> str:
    """A symmetric, diagonally dominant (so invertible) n x n matrix as JSON.

    The entries at the (i, j) positions of ``off_diagonal`` and their mirror
    images are +-1, the other off-diagonal entries 0.
    """
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = str(Fraction(rng.randint(2 * n + 1, 2 * n + 5), 2))
    for i, j in off_diagonal:
        rows[i][j] = rows[j][i] = str(rng.choice([-1, 1]))
    return json.dumps(rows)


def cubic_form_json(rng: random.Random, n: int, keys) -> str:
    """A fully symmetric n x n x n array, nonzero exactly at the permutations
    of the sorted index triples in ``keys``."""
    from itertools import permutations

    array = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for key in keys:
        value = _rational_text(rng, [1, -1, 2, -2])
        for i, j, k in set(permutations(key)):
            array[i][j][k] = value
    return json.dumps(array)


def spectrum_text(rng: random.Random, size: int) -> str:
    """Comma-separated nonzero Gaussian rationals, e.g. ``2, -1/2, (1+2i)``."""
    values = []
    for _ in range(size):
        re = rng.choice([-2, -1, 1, 2, 3])
        im = rng.choice([0, 0, 1, -1])
        if rng.random() < 0.3:
            values.append(f"{re}/2")
        elif im:
            values.append(f"({re}{'+' if im > 0 else '-'}{abs(im)}i)")
        else:
            values.append(str(re))
    return ", ".join(values)

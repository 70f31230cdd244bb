"""The three request streams and their oracles.

A workload turns a seed into an endless, deterministic stream of requests.
``execute`` makes the library calls of one request and is the only code the
benchmark times; ``verify`` checks the result against an oracle that does not
read the output under test.  Both receive the imported ``kch`` package and
look every name up on it at call time, so a traced run sees its wrappers.

Streams come in cycles of fixed composition (``cycle`` requests each); the
runner stops at a cycle boundary, so every run measures the same mix.  A
traced run serves ``traced_cycles_per_second`` cycles per second of
``--seconds`` with each cycle replayed untraced; at the baseline that takes
about half (augmentation, series) to nine tenths (knot) of ``--seconds``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator

import generators as gen
import knot_table

MATRIX_ORDER = 4
FEYNMAN_ORDER = 4


@dataclass(frozen=True)
class Request:
    kind: str
    payload: Any


# |k + N| of a request's three Wilson levels comes from one band each, so
# that the cost of evaluating them varies little between requests
LEVEL_BANDS = ((2, 5), (6, 9), (10, 12))


def _levels(rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Three distinct (N, k) levels, one with |k + N| in each of ``LEVEL_BANDS``."""
    levels = []
    for low, high in LEVEL_BANDS:
        n = rng.randint(2, 4)
        total = rng.choice([-1, 1]) * rng.randint(low, high)
        levels.append((n, total - n))
    return tuple(levels)


def mirror_homfly(kch, homfly_value):
    """P(a^-1, -z): the skein polynomial the mirror diagram must have."""
    return kch.LaurentPolynomial(
        homfly_value.variables,
        [((-ea, ez), coeff if ez % 2 == 0 else -coeff) for (ea, ez), coeff in homfly_value.terms()],
    )


def mirror_diagram(kch, diagram):
    for index in range(diagram.crossing_count):
        diagram = kch.switch_crossing(diagram, index)
    return diagram


class KnotInvariants:
    """Braid-closure diagrams: parse, skein polynomial, three Wilson levels.

    The diagrams come from the table of ``knot_table.py``: 600 random braid
    closures, 40 for each (strands, crossings) cell, in 15 strata of equal
    size ranked by their skein recursion.  Each cycle serves one diagram of
    every stratum, each stratum walking its diagrams in a seeded order, plus
    5 repeats, one from each group of three adjacent strata, rotating through
    the group's strata from cycle to cycle.  A repeat is drawn from the first
    4 diagrams served in its stratum, with popularity falling as rank^-0.6.
    The strata keep each cycle's cost, and so each run's, nearly the same
    for every seed; the repeats give a reuse or caching change something to
    show.  The 25% repeat share, the pool size and the skew are synthetic
    choices, not measured traffic; a caching gain on this workload scales
    with them.  A run longer than 40 cycles serves a stratum's diagrams again.
    """

    name = "knot_invariants"
    cycle = 20
    traced_cycles_per_second = 0.1
    hot_size = 4
    group_strata = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm(self, kch) -> None:
        for n in range(1, 25):
            kch.cyclotomic_polynomial(n)

    def requests(self) -> Iterator[Request]:
        rng = random.Random(f"{self.name}:{self.seed}")
        strata = [rng.sample(texts, len(texts)) for texts in knot_table.load()]
        weights = gen.zipf_weights(self.hot_size, 0.6)
        served = 0
        while True:
            batch = [texts[served % len(texts)] for texts in strata]
            served += 1
            for first in range(0, len(strata), self.group_strata):
                texts = strata[first + served % self.group_strata]
                hot = min(served, self.hot_size)
                batch += rng.choices(texts[:hot], weights=weights[:hot])
            rng.shuffle(batch)
            for text in batch:
                yield Request("knot", (text, _levels(rng)))

    def execute(self, kch, request: Request):
        text, levels = request.payload
        diagram = kch.parse_pd(text)
        polynomial = kch.homfly(diagram)
        values = [kch.wilson_loop(diagram, n, k) for n, k in levels]
        return diagram, polynomial, values

    def verify(self, kch, request: Request, output) -> bool:
        diagram, polynomial, values = output
        mirrored = kch.homfly(mirror_diagram(kch, diagram))
        finite = all(abs(v) < float("inf") for v in values)
        return finite and mirrored == mirror_homfly(kch, polynomial)


def planted_polynomial(kch, planted: gen.PlantedDga):
    """h(g) over the torus ring, composed directly from the planted pieces."""
    ring = planted.unknowns + gen.TORUS
    h = kch.parse_polynomial(planted.h, ring)
    g = [kch.parse_polynomial(planted.g[u], gen.TORUS) for u in planted.unknowns]
    width = len(planted.unknowns)
    total = kch.LaurentPolynomial.zero(gen.TORUS)
    for exps, coeff in h.terms():
        term = kch.LaurentPolynomial.monomial(gen.TORUS, exps[width:], coeff)
        for g_i, e in zip(g, exps[:width]):
            term = term * g_i**e
        total = total + term
    return total


class AugmentationVarieties:
    """Seeded DGA documents with a planted augmentation variety.

    Every document is distinct, so a result cache predicts no change here;
    Groebner elimination and exact rational arithmetic carry the cost.  Each
    cycle of 2 holds one system in one unknown and one in two unknowns; the
    latter carry the tail.
    """

    name = "augmentation_varieties"
    cycle = 2
    traced_cycles_per_second = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm(self, kch) -> None:
        pass

    def requests(self) -> Iterator[Request]:
        rng = random.Random(f"{self.name}:{self.seed}")
        index = 0
        while True:
            yield Request("dga", gen.planted_dga(rng, index, 1 + index % 2))
            index += 1

    def execute(self, kch, request: Request):
        planted = request.payload
        dga = kch.load_dga_text(planted.text)
        report = dga.check()
        variety = kch.eliminate_augmentation_ideal(dga)
        exists = [
            kch.augmentation_exists(dga, {name: kch.parse_scalar(v) for name, v in point.items()})
            for point in planted.points
        ]
        return report, variety, exists

    def verify(self, kch, request: Request, output) -> bool:
        report, variety, exists = output
        planted = request.payload
        composed = planted_polynomial(kch, planted)
        expected = composed.strip_monomial_factor()[0].primitive_normalized()
        on_variety = [
            composed.evaluate({name: kch.parse_scalar(v) for name, v in point.items()}).is_zero()
            for point in planted.points
        ]
        return (
            report.ok
            and variety.principal
            and variety.polynomial == expected
            and exists == on_variety
        )


def _series_product(a: list, b: list, order: int) -> list:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
    return out


def branch_satisfies_curve(kch, curve_text: str, coefficients, q_value: Fraction) -> bool:
    """A(X, P(X)) = O(X^{order+1}) at Q = q_value, in plain Fraction series.

    Shares no series code with the library: the branch coefficients are
    evaluated at one rational Q and the curve is summed term by term.
    """
    order = len(coefficients) - 1
    q = kch.Scalar.of(q_value)
    branch = [c.evaluate({"Q": q}).re for c in coefficients]
    curve = kch.parse_polynomial(curve_text, gen.TORUS)
    total = [Fraction(0)] * (order + 1)
    for (eq, ex, ep), coeff in curve.terms():
        power = [Fraction(1)] + [Fraction(0)] * order
        for _ in range(ep):
            power = _series_product(power, branch, order)
        scale = coeff.re * q_value**eq
        for k in range(order + 1 - ex):
            total[k + ex] += scale * power[k]
    return not any(total)


def trace_coefficients(eigenvalues, order: int) -> list[tuple[Fraction, Fraction]]:
    """prod_i 1/(1 - lambda_i t) to the given order, over (re, im) pairs."""
    coeffs = [(Fraction(1), Fraction(0))] + [(Fraction(0), Fraction(0))] * order
    for value in eigenvalues:
        re, im = value.re, value.im
        for k in range(1, order + 1):
            # c_k += lambda * c_{k-1}, running upward, multiplies by 1/(1 - lambda t)
            pr, pi = coeffs[k - 1]
            cr, ci = coeffs[k]
            coeffs[k] = (cr + re * pr - im * pi, ci + re * pi + im * pr)
    return coeffs


class SeriesExpansions:
    """A seeded mix of mirror branches, graph expansions and trace series.

    Each cycle of 10 holds 5 mirror-branch requests (the shapes below), 2
    scalar graph sums (dimension 2 and 3), 2 symmetric-trace series and 1
    matrix-model expansion, in a seeded order.  Fixing the parameters that
    set a request's cost keeps the per-run mix steady.  The 5:2:2:1 mix is a
    synthetic choice, not measured traffic, made so that both reported
    percentiles fall inside a tight cluster of request costs rather than in
    a gap between clusters, where they would jump between runs: at the
    baseline the cheap trace and matrix requests and the smallest curve take
    40% of the requests, the two middle curves (80-90 ms) the next 20% and
    so the median, and the two largest curves (about 350 ms) the top 20%
    and so the p90.  The graph sums are checked against the library's Stein
    and Wick routes in ``verify``, untimed.
    """

    name = "series_expansions"
    cycle = 10
    traced_cycles_per_second = 0.2
    # (order, d, e) of the five mirror curves in every cycle, see
    # gen.mirror_curve_text; d and e set a curve's cost
    mirror_shapes = ((9, 1, 0), (12, 1, 0), (8, 2, 0), (11, 2, 2), (11, 2, 2))
    # (n, nonzero off-diagonal positions of Q, nonzero index triples of C)
    # of the two scalar graph sums; where Q and C are nonzero sets their cost
    # more than the values there do (100 ms and 160 ms at the baseline)
    scalar_shapes = (
        (2, ((0, 1),), ((0, 0, 0), (0, 0, 1), (1, 1, 1))),
        (3, ((0, 1), (1, 2)), ((0, 0, 0), (1, 1, 2))),
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm(self, kch) -> None:
        # fills the pairing censuses the graph sums read through lru_cache
        one = kch.QuadraticForm([[1]])
        cubic = kch.CubicForm.from_array([[[1]]])
        kch.scalar_model_series(one, cubic, FEYNMAN_ORDER)
        kch.matrix_model_series(MATRIX_ORDER)

    def requests(self) -> Iterator[Request]:
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:
            batch = []
            for order, p_degree, p_low in self.mirror_shapes:
                q_value = Fraction(rng.choice([2, 3, -2]), rng.choice([1, 3]))
                curve = gen.mirror_curve_text(rng, p_degree, p_low)
                batch.append(Request("mirror", (curve, order, q_value)))
            for n, off_diagonal, keys in self.scalar_shapes:
                batch.append(
                    Request(
                        "scalar",
                        (gen.quadratic_form_json(rng, n, off_diagonal), gen.cubic_form_json(rng, n, keys)),
                    )
                )
            batch.append(Request("matrix", rng.randint(1, 3)))
            for _ in range(2):
                batch.append(
                    Request("symtrace", (gen.spectrum_text(rng, rng.randint(2, 4)), rng.randint(8, 12)))
                )
            rng.shuffle(batch)
            yield from batch

    def execute(self, kch, request: Request):
        kind, payload = request.kind, request.payload
        if kind == "mirror":
            text, order, _ = payload
            curve = kch.parse_polynomial(text, gen.TORUS)
            branch = kch.branch_series(curve, 1, order)
            p = kch.p_series(branch)
            potential = kch.potential_series(p)
            derivative = kch.potential_x_derivative(potential)
            report = kch.verify_on_curve(curve, branch)
            return branch, p, derivative, report
        if kind == "scalar":
            q_text, c_text = payload
            parse = kch.parse_scalar
            q = kch.QuadraticForm([[parse(v) for v in row] for row in json.loads(q_text)])
            c = kch.CubicForm.from_array(
                [[[parse(v) for v in row] for row in plane] for plane in json.loads(c_text)]
            )
            return q, c, kch.scalar_model_series(q, c, FEYNMAN_ORDER)
        if kind == "matrix":
            symbolic = kch.matrix_model_series(MATRIX_ORDER)
            return kch.evaluate_matrix_series(symbolic, payload)
        text, order = payload
        spectrum = kch.HolonomySpectrum([kch.parse_scalar(v) for v in text.split(",")])
        return spectrum, kch.symmetric_trace_series(spectrum, order)

    def verify(self, kch, request: Request, output) -> bool:
        kind, payload = request.kind, request.payload
        if kind == "mirror":
            text, order, q_value = payload
            branch, p, derivative, report = output
            return (
                report.ok
                and derivative == p
                and branch.order == order
                and branch_satisfies_curve(kch, text, branch.series.coefficients, q_value)
            )
        if kind == "scalar":
            q, c, graph_route = output
            return graph_route == kch.stein_oracle_series(q, c, FEYNMAN_ORDER)
        if kind == "matrix":
            return output == kch.matrix_wick_oracle_series(payload, MATRIX_ORDER)
        spectrum, series = output
        expected = trace_coefficients(spectrum.eigenvalues, series.order)
        actual = [
            (c.constant_term().re, c.constant_term().im) for c in series.coefficients
        ]
        return actual == expected


WORKLOADS = {cls.name: cls for cls in (KnotInvariants, AugmentationVarieties, SeriesExpansions)}

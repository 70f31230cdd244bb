"""Perturbative expansion of a cubic deformation of a Gaussian integral.

The partition function of exp(-1/2 Q_ij x_i x_j + hbar C_ijk x_i x_j x_k),
normalized so the pure Gaussian contributes 1, expands as

    Z(hbar) = sum_m  hbar^m / m! * < V^m >,    V = sum_ijk C_ijk x_i x_j x_k,

where the expectation is the Gaussian one with covariance Q^{ij} (the matrix
inverse of Q_ij).  The coefficient of hbar^m is computed two independent ways:

* graph route: sum over perfect matchings of the 3m half-edges (three per
  vertex), each matching weighted by the full tensor contraction of vertex
  factors C against edge factors Q^{ij}.  The weight depends only on the
  isomorphism class of the matching's multigraph, so the sum runs over
  classes: one contraction per class, times the number of matchings in it
  (8 classes for the 10,395 matchings at m = 4);
* oracle route: expand V^m as a polynomial and evaluate Gaussian moments by
  the integration-by-parts recursion <x_i P> = sum_j Q^{ij} <dP/dx_j>.

The two share no moment code and must agree exactly.

The Hermitian one-matrix analogue replaces the vertex by tr M^3 and the
propagator by <M_ab M_cd> = delta_ad delta_bc; each matching then closes index
loops, contributing N per loop.  Matchings are fattened into ribbon graphs
whose face count h, loop count r and genus g satisfy 2 - 2g - h = 1 - r.

Both models read one cached walk over the matchings per order, counted by
(isomorphism class, face count of the standard-rotation ribbon); the class,
face and ribbon censuses are views of it.  Each class keeps its contraction
plan; the scalar model contracts on the form's integral adjugate (fraction-free
elimination) and divides each order's sum once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, prod
from typing import Iterator, Mapping, Sequence

from .errors import DomainError, check_count
from .laurent import _check_variables, _denominator, _dot, _make, _narrow, _scalar
from .scalars import ZERO, Scalar
from .series import FormalSeries

Edge = tuple[int, int]


def _adjugate_det(matrix: Sequence[Sequence]) -> tuple[tuple[tuple, ...], object]:
    """(adj(M), det(M)) of a Gaussian-integer matrix (narrow ints and
    imaginary ``Scalar``s) by fraction-free Gauss-Jordan elimination of
    [M | I] (Bareiss 1968): every entry stays a minor, so each division is
    exact, and [M | I] ends as [det I | adj] up to the row swaps' sign."""
    n = len(matrix)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    pivot = sign = 1
    for k in range(n):
        p = next((r for r in range(k, n) if work[r][k]), None)
        if p is None:
            raise DomainError("quadratic form is singular")
        if p != k:
            work[k], work[p], sign = work[p], work[k], -sign
        previous, top = pivot, work[k]
        pivot = top[k]
        for i, row in enumerate(work):
            if i != k:
                factor = row[k]
                work[i] = [_exact_quotient(pivot * a - factor * b, previous) for a, b in zip(row, top)]
    return tuple(tuple(sign * value for value in row[n:]) for row in work), sign * pivot


def _exact_quotient(a, b):
    """a / b for Gaussian integers whose quotient is one, narrow."""
    return a // b if type(a) is int and type(b) is int else _narrow(a / b)


class QuadraticForm:
    """Symmetric invertible matrix Q_ij with its cached inverse Q^{ij}, also
    kept as adj(M) / unit for the integral M = D Q (D the lcm of the entries'
    denominators) and unit = det(M) / D, which the graph sums read directly."""

    __slots__ = ("matrix", "propagator", "_adjugate", "_unit")

    def __init__(self, rows: Sequence[Sequence]) -> None:
        matrix = tuple(tuple(Scalar.of(entry) for entry in row) for row in rows)
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix):
            raise DomainError("quadratic form must be a nonempty square matrix")
        for i, j in combinations(range(n), 2):
            if matrix[i][j] != matrix[j][i]:
                raise DomainError(f"quadratic form is not symmetric at ({i},{j})")
        # narrowed before and after scaling: a Fraction times D stays a Fraction
        entries = [[_narrow(value) for value in row] for row in matrix]
        d = _denominator(value for row in entries for value in row)
        adjugate, det = _adjugate_det([[_narrow(value * d) for value in row] for row in entries])
        unit = det * Fraction(1, d)
        propagator = tuple(tuple(_scalar(a / unit) for a in row) for row in adjugate)
        for name, value in zip(self.__slots__, (matrix, propagator, adjugate, unit)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("QuadraticForm is immutable")

    @property
    def dimension(self) -> int:
        return len(self.matrix)


class CubicForm:
    """Fully symmetric rank-3 coefficient array C_ijk."""

    __slots__ = ("dimension", "_entries")

    def __init__(self, dimension: int, entries: Mapping[tuple[int, int, int], Scalar]) -> None:
        check_count(dimension, "cubic form dimension", least=1)
        canonical: dict[tuple[int, int, int], Scalar] = {}
        for key, value in entries.items():
            if not _is_int_tuple(key, 3) or not all(0 <= t < dimension for t in key):
                raise DomainError(f"cubic index {key!r} out of range for dimension {dimension}")
            value = Scalar.of(value)
            sorted_key = tuple(sorted(key))
            if sorted_key in canonical and canonical[sorted_key] != value:
                raise DomainError(f"cubic form entries conflict at {sorted_key!r}")
            canonical[sorted_key] = value
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "_entries", canonical)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CubicForm is immutable")

    @classmethod
    def from_array(cls, array: Sequence[Sequence[Sequence]]) -> "CubicForm":
        n = len(array)
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in array):
            raise DomainError("cubic array is not n*n*n")
        entries = {(i, j, k): array[i][j][k] for i, j, k in product(range(n), repeat=3)}
        return cls(n, entries)

    def entry(self, i: int, j: int, k: int) -> Scalar:
        return self._entries.get(tuple(sorted((i, j, k))), ZERO)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self._entries.values())


# -- pairings of half-edges ---------------------------------------------------


def _is_int_tuple(value, length: int) -> bool:
    return type(value) is tuple and len(value) == length and all(type(t) is int for t in value)


@dataclass(frozen=True)
class Pairing:
    """Perfect matching on the 3m half-edges; vertex v owns 3v, 3v+1, 3v+2."""

    m: int
    matching: tuple[Edge, ...]

    def __post_init__(self):
        check_count(self.m, "vertex count")
        total = 3 * self.m
        if total % 2:
            raise DomainError("a perfect matching needs an even number of half-edges")
        seen = set()
        for record in self.matching:
            if not _is_int_tuple(record, 2):
                raise DomainError(f"half-edge pair {record!r} is not two integers")
            a, b = record
            if not (0 <= a < b < total):
                raise DomainError(f"half-edge pair ({a},{b}) out of range or unordered")
            seen.update(record)
        if len(seen) != total or len(self.matching) != total // 2:
            raise DomainError("matching is not a perfect matching")
        object.__setattr__(self, "matching", tuple(sorted(self.matching)))

    def partner(self) -> dict[int, int]:
        return {h: g for a, b in self.matching for h, g in ((a, b), (b, a))}

    def vertex_edges(self) -> tuple[Edge, ...]:
        """Edges as unordered vertex pairs, sorted; the labeled multigraph."""
        return tuple(sorted((min(a // 3, b // 3), max(a // 3, b // 3)) for a, b in self.matching))


# the census walks all (3m-1)!! matchings of order m once: the 10,395 at order 4
# take about 0.1 s on a shared 2-vCPU VM, order 6 would walk 34,459,425
MAX_FEYNMAN_ORDER = 4


def _check_pairing_order(order: int) -> None:
    check_count(order, "expansion order", cap=MAX_FEYNMAN_ORDER, cap_name="Feynman order cap")


def _matchings(m: int) -> Iterator[tuple[Edge, ...]]:
    """Perfect matchings of the 3m half-edges as sorted (a, b) pairs with
    a < b, smallest-first; none when 3m is odd.  Callers check the order."""

    def extend(unmatched: tuple[int, ...], pairs: tuple[Edge, ...]):
        if not unmatched:
            yield pairs
            return
        a = unmatched[0]
        for idx in range(1, len(unmatched)):
            rest = unmatched[1:idx] + unmatched[idx + 1 :]
            yield from extend(rest, pairs + ((a, unmatched[idx]),))

    if (3 * m) % 2 == 0:
        yield from extend(tuple(range(3 * m)), ())


def enumerate_pairings(m: int) -> tuple[Pairing, ...]:
    """All perfect matchings of 3m half-edges, smallest-first deterministic order.

    Orders above ``MAX_FEYNMAN_ORDER`` raise ``ResourceLimitError``.
    """
    _check_pairing_order(m)
    return tuple(Pairing(m, pairs) for pairs in _matchings(m))


def double_factorial(k: int) -> int:
    return prod(range(k, 1, -2))


# -- multigraph bookkeeping ---------------------------------------------------


def _connected(m: int, edges: Sequence[Edge]) -> bool:
    # the empty graph has zero components, not one
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(m)}) == 1


def canonical_graph_class(m: int, edges: Sequence[Edge]) -> tuple[Edge, ...]:
    """Isomorphism-class label: minimum relabeled edge multiset over vertex permutations."""
    best = None
    for perm in permutations(range(m)):
        relabeled = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    return best if best is not None else ()


@lru_cache(maxsize=None)
def _pairing_census(m: int):
    """The one walk over the matchings of order m: how many pairings realize
    each (``canonical_graph_class`` label, face count of the standard-rotation
    ribbon), with each distinct labeled multigraph canonicalised once; and per
    class, (label, pairings, connected, contraction plan), the label standing
    for its class.  The order is checked here, so every view is guarded."""
    _check_pairing_order(m)
    sigma = [h - h % 3 + (h + 1) % 3 for h in range(3 * m)]
    partner = [0] * (3 * m)
    labeled: Counter = Counter()
    for pairs in _matchings(m):
        for a, b in pairs:
            partner[a] = b
            partner[b] = a
        edges = tuple(sorted((a // 3, b // 3) for a, b in pairs))
        labeled[edges, _count_faces(sigma, partner)] += 1
    labels = {edges: canonical_graph_class(m, edges) for edges, _ in labeled}
    census: Counter = Counter()
    classes: Counter = Counter()
    for (edges, faces), count in labeled.items():
        census[labels[edges], faces] += count
        classes[labels[edges]] += count
    return tuple(sorted(census.items())), tuple(
        (label, count, _connected(m, label), _contraction_plan(label, m))
        for label, count in sorted(classes.items())
    )


def connected_isomorphism_classes(m: int) -> dict[tuple[Edge, ...], int]:
    """Pairing counts per connected-graph isomorphism class at order m."""
    return {label: count for label, count, connected, _ in _pairing_census(m)[1] if connected}


# -- scalar model -------------------------------------------------------------


def _contraction_plan(edges: Sequence[Edge], m: int) -> tuple:
    """How ``_contract_multigraph`` visits one labeled multigraph: per
    vertex, in order, (loop flag, closed (state slot, stub) pairs, kept state
    slots, stub start).  A state is the tuple of indices carried by the edges
    with exactly one visited endpoint: the edges kept open, in order, then
    the ones this vertex opens.  Stubs are read loop first, then closing
    edges, then opening edges; symmetry of C makes their order irrelevant."""
    open_edges: list[int] = []
    plan = []
    for v in range(m):
        loops = sum(1 for a, b in edges if a == v and b == v)
        closing = [eid for eid, (a, b) in enumerate(edges) if (a == v) != (b == v) and min(a, b) < v]
        opening = [eid for eid, (a, b) in enumerate(edges) if (a == v) != (b == v) and max(a, b) > v]
        if 2 * loops + len(closing) + len(opening) != 3:
            raise DomainError("multigraph is not trivalent")
        closed = tuple((open_edges.index(eid), pos) for pos, eid in enumerate(closing, 2 * loops))
        kept = tuple(k for k, eid in enumerate(open_edges) if eid not in closing)
        open_edges = [open_edges[k] for k in kept] + opening
        plan.append((bool(loops), closed, kept, 2 * loops + len(closing)))
    return tuple(plan)


def _contract_multigraph(plan: tuple, propagator, vertices):
    """Tensor contraction of one labeled multigraph by its plan, on an n*n
    ``propagator`` proportional to Q^{ij} and ``vertices``, the nonzero
    ((i, j, k), C_ijk) over all ordered triples.  Each state reads the row of
    each edge it closes once.  Values are exact and narrow: int, Fraction, or
    a ``Scalar`` only with an imaginary part."""
    states = {(): 1}
    for loop, closed, kept, start in plan:
        next_states = {}
        for state, weight in states.items():
            rows = [(propagator[state[k]], pos) for k, pos in closed]
            prefix = tuple([state[k] for k in kept])
            for idx, factor in vertices:
                if loop:
                    factor = factor * propagator[idx[0]][idx[1]]
                for row, pos in rows:
                    factor = factor * row[idx[pos]]
                if not factor:
                    continue
                key = prefix + idx[start:]
                total = next_states.get(key, 0) + weight * factor
                if total:
                    next_states[key] = total
                else:
                    next_states.pop(key, None)
        states = next_states
        if not states:
            return 0
    return states.get((), 0)


def _check_model(q: QuadraticForm, c: CubicForm) -> None:
    if q.dimension != c.dimension:
        raise DomainError(
            f"quadratic dimension {q.dimension} differs from cubic dimension {c.dimension}"
        )


def _graph_series(
    q: QuadraticForm, c: CubicForm, order: int, connected_only: bool
) -> FormalSeries:
    """Coefficient of hbar^m is (1/m!) times the sum over pairing classes
    (the connected ones, if asked) of count * contraction.

    Each class is contracted by its cached plan on the form's integral
    adjugate adj(D Q) and on one vertex list (each nonzero C entry over its
    ordered triples, times the lcm Dc of their denominators).  So every weight
    is an integer (a ``Scalar`` with integral parts where an entry is
    imaginary); each order's sum is divided once, by (det(D Q)/D)^edges Dc^m m!.
    """
    _check_model(q, c)
    _check_pairing_order(order)
    entries = {key: _narrow(value) for key, value in c._entries.items() if value}
    d_cubic = _denominator(entries.values())
    vertices = sorted(
        (idx, _narrow(value * d_cubic))
        for key, value in entries.items()
        for idx in set(permutations(key))
    )
    values = []
    for m in range(order + 1):
        total = 0
        for _, count, connected, plan in _pairing_census(m)[1]:
            if connected or not connected_only:
                total += _contract_multigraph(plan, q._adjugate, vertices) * count
        values.append(total / (q._unit ** (3 * m // 2) * d_cubic**m * factorial(m)))
    return FormalSeries.from_scalars("hbar", values)


def scalar_model_series(q: QuadraticForm, c: CubicForm, order: int) -> FormalSeries:
    """Coefficient of hbar^m is (1/m!) * sum over pairings of the contraction.

    Orders above ``MAX_FEYNMAN_ORDER`` raise ``ResourceLimitError`` before
    any pairing is built.
    """
    return _graph_series(q, c, order, connected_only=False)


def connected_scalar_series(q: QuadraticForm, c: CubicForm, order: int) -> FormalSeries:
    """Same weights as scalar_model_series but restricted to connected graphs."""
    return _graph_series(q, c, order, connected_only=True)


# -- moment oracle ------------------------------------------------------------


def stein_oracle_series(q: QuadraticForm, c: CubicForm, order: int) -> FormalSeries:
    """Moment-recursion evaluation of the same expansion; no graphs involved.

    Gaussian moments follow <x_i x^alpha> = sum_j Q^{ij} alpha_j <x^{alpha - e_j}>,
    the integration-by-parts identity, memoized over exponent vectors.  The
    values are exact, held as int or Fraction, and as a ``Scalar`` only with
    an imaginary part.
    """
    _check_model(q, c)
    check_count(order, "expansion order")
    n = q.dimension
    propagator = [[_narrow(value) for value in row] for row in q.propagator]
    moments: dict[tuple[int, ...], object] = {(0,) * n: 1}

    def moment(exps: tuple[int, ...]):
        known = moments.get(exps)
        if known is not None:
            return known
        if sum(exps) % 2:
            moments[exps] = 0
            return 0
        i = next(k for k, e in enumerate(exps) if e > 0)
        reduced = list(exps)
        reduced[i] -= 1
        total = 0
        for j in range(n):
            if reduced[j] == 0 or not propagator[i][j]:
                continue
            lower = list(reduced)
            lower[j] -= 1
            total = total + propagator[i][j] * reduced[j] * moment(tuple(lower))
        moments[exps] = total = _narrow(total)
        return total

    # V over x0..x{n-1}: each stored C_ijk (i <= j <= k) once per distinct
    # permutation of its indices
    variables = tuple(f"x{i}" for i in range(n))
    cubic = _make(variables, {
        tuple(map(key.count, range(n))): value * len(set(permutations(key)))
        for key, value in c._entries.items()
    })
    power = _make(variables, {(0,) * n: 1})
    values = []
    for m in range(order + 1):
        if m > 0:
            power = _dot(variables, [(power, cubic)])
        expectation = 0
        for exps, coeff in power._terms:
            value = moment(exps)
            if value:
                expectation = expectation + coeff * value
        values.append(expectation * Fraction(1, factorial(m)))
    return FormalSeries.from_scalars("hbar", values)


# -- connected/disconnected bookkeeping ---------------------------------------


def connected_log(z: FormalSeries) -> FormalSeries:
    """Formal log of a full expansion; the sum over connected graphs."""
    return z.log()


def connected_exp(f: FormalSeries) -> FormalSeries:
    """Formal exp of a connected sum; inverse of connected_log."""
    return f.exp()


# -- ribbon graphs ------------------------------------------------------------


@dataclass(frozen=True)
class RibbonGraph:
    """A pairing fattened by a cyclic half-edge order at each vertex.

    ``rotation`` lists one 3-cycle per vertex; cycle (a, b, c) sends a to b,
    b to c, c to a.  Cycle v must consist of exactly {3v, 3v+1, 3v+2}.
    """

    pairing: Pairing
    rotation: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.rotation) != self.pairing.m:
            raise DomainError("need exactly one rotation cycle per vertex")
        for v, cycle in enumerate(self.rotation):
            if sorted(cycle) != [3 * v, 3 * v + 1, 3 * v + 2]:
                raise DomainError(
                    f"rotation cycle {cycle!r} is not the half-edge triple of vertex {v}"
                )

    @classmethod
    def standard(cls, pairing: Pairing) -> "RibbonGraph":
        """The matrix-model rotations: (3v, 3v+1, 3v+2) at each vertex."""
        return cls(pairing, tuple((3 * v, 3 * v + 1, 3 * v + 2) for v in range(pairing.m)))

    def vertex_count(self) -> int:
        return self.pairing.m

    def edge_count(self) -> int:
        return len(self.pairing.matching)


def _count_faces(sigma: Sequence[int], partner: Sequence[int]) -> int:
    """Cycles of h -> sigma(partner(h)) on the half-edges: the boundary faces."""
    seen = [False] * len(sigma)
    faces = 0
    for start in range(len(sigma)):
        if seen[start]:
            continue
        faces += 1
        h = start
        while not seen[h]:
            seen[h] = True
            h = sigma[partner[h]]
    return faces


def trace_faces(graph: RibbonGraph) -> int:
    """Number of cycles of (rotation o edge involution): the boundary faces."""
    sigma = [0] * (3 * graph.pairing.m)
    for a, b, c in graph.rotation:
        sigma[a], sigma[b], sigma[c] = b, c, a
    return _count_faces(sigma, graph.pairing.partner())


def _euler_genus(h: int, v: int, e: int) -> tuple[int, int]:
    """(g, r) of a connected ribbon graph with h faces, v vertices and e edges.

    Euler count: 2 - 2g - h = chi(surface) = chi(graph) = 1 - r with
    r = e - v + 1.
    """
    r = e - v + 1
    genus2 = 1 + r - h
    if genus2 % 2 or genus2 < 0:
        raise DomainError(f"inconsistent face count h={h} for loop count r={r}")
    return genus2 // 2, r


def ribbon_faces(graph: RibbonGraph) -> tuple[int, int, int]:
    """(h, g, r) for a connected ribbon graph: faces, genus, loops."""
    m = graph.pairing.m
    if not _connected(m, graph.pairing.vertex_edges()):
        raise DomainError("ribbon graph is disconnected; split components first")
    h = trace_faces(graph)
    genus, r = _euler_genus(h, graph.vertex_count(), graph.edge_count())
    return h, genus, r


# -- matrix model -------------------------------------------------------------

MATRIX_VARIABLE = "N"


def _face_census(m: int) -> tuple[tuple[int, int], ...]:
    """(face count, pairings) pairs at order m with the standard rotations."""
    census: Counter = Counter()
    for (_, faces), count in _pairing_census(m)[0]:
        census[faces] += count
    return tuple(sorted(census.items()))


def matrix_model_series(
    order: int, *, matrix_variable: str = MATRIX_VARIABLE
) -> FormalSeries:
    """Genus expansion of the Hermitian one-matrix model with vertex tr M^3.

    Coefficient of g^m is (1/m!) * sum over pairings of N^h, h the face count
    of the standard-rotation ribbon; returned as polynomials in the symbolic
    matrix size, independent of any particular N.  Orders above
    ``MAX_FEYNMAN_ORDER`` raise ``ResourceLimitError`` before any pairing is
    built.
    """
    _check_pairing_order(order)
    ring = (matrix_variable,)
    _check_variables(ring)
    coefficients = [
        _make(ring, {(faces,): Fraction(count, factorial(m)) for faces, count in _face_census(m)})
        for m in range(order + 1)
    ]
    return FormalSeries("g", order, coefficients)


def matrix_wick_oracle_series(size: int, order: int) -> FormalSeries:
    """Entry-level Wick oracle for <(tr M^3)^m> at a concrete matrix size.

    tr M^3 = sum M_{i0 i1} M_{i1 i2} M_{i2 i0}; the propagator
    <M_ab M_cd> = delta_ad delta_bc identifies index variables, and each
    resulting identification class ranges freely over the size, contributing
    one factor of size per class.  No ribbon structure is consulted.
    """
    check_count(size, "matrix size", least=1)
    check_count(order, "expansion order")
    values = []
    for m in range(order + 1):
        total = sum(count * size**classes for classes, count in _wick_class_counts(m))
        values.append(Fraction(total, factorial(m)))
    return FormalSeries.from_scalars("g", values)


@lru_cache(maxsize=None)
def _wick_class_counts(m: int) -> tuple[tuple[int, int], ...]:
    """(index classes, pairings) pairs of <(tr M^3)^m>, found by union-find.

    Index variable x = 3v + s is the row of factor s of vertex v, whose
    column is 3v + (s+1 mod 3).  The count does not depend on the matrix
    size, so each order is enumerated once.
    """
    census: Counter = Counter()
    for pairing in enumerate_pairings(m):
        parent = list(range(3 * m))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for f, g in pairing.matching:
            # <M_{f col(f)} M_{g col(g)}> identifies f with col(g), col(f) with g
            parent[find(f)] = find(g - g % 3 + (g + 1) % 3)
            parent[find(f - f % 3 + (f + 1) % 3)] = find(g)
        census[len({find(x) for x in range(3 * m)})] += 1
    return tuple(sorted(census.items()))


def evaluate_matrix_series(series: FormalSeries, size: int) -> FormalSeries:
    """Substitute a concrete matrix size into a symbolic matrix-model series."""
    check_count(size, "matrix size", least=1)
    ring = series.ring
    if len(ring) != 1:
        raise DomainError("expected a series with one symbolic matrix-size variable")
    coefficients = [coeff.substitute(ring[0], size) for coeff in series.coefficients]
    return FormalSeries(series.variable, series.order, coefficients)


def ribbon_census(order: int) -> tuple[dict[tuple[int, int], int], int]:
    """(g,h) census of connected standard-rotation ribbons at one order.

    Returns the counter and the number of disconnected pairings, which carry
    no single (g,h) and are tallied separately.  Orders above
    ``MAX_FEYNMAN_ORDER`` raise ``ResourceLimitError`` before any pairing is
    built.
    """
    census: Counter = Counter()
    disconnected = 0
    for (label, faces), count in _pairing_census(order)[0]:
        if _connected(order, label):
            census[_euler_genus(faces, order, 3 * order // 2)[0], faces] += count
        else:
            disconnected += count
    return dict(sorted(census.items())), disconnected

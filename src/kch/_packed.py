"""The packed kernel behind ``kch.series`` and ``kch.mirror``.

A Laurent polynomial with Gaussian-integer coefficients becomes one Python
int (Kronecker substitution): its coefficient at each exponent vector sits
in a fixed-width slot, so a product of polynomials is one int product.  See
``_Kernel`` for the layout and the bounds that size it, and ``PAIR_MICROS``
for when an operation runs on term dicts instead.  ``PACKED_COUNTERS`` sums
the work of every run, added once per run.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import inf
from operator import add, itemgetter, lshift, mul, sub
from typing import Iterable, Sequence

from .errors import DomainError
from .laurent import LaurentPolynomial, _adopt, _dot, _make
from .scalars import Scalar
from .series import MAX_PACKED_BITS, _parts

_INPUT, _DOT, _DIVIDE = range(3)
# An operation runs on term dicts where that is estimated cheaper than
# packed.  Timed with CPython 3.11 on one core of a shared x86-64 VM, one
# pair of terms in a term-dict product (``laurent._dot``) costs about
# PAIR_MICROS microseconds (0.5 to 1.2, growing with the coefficients), and
# one product of two b-bit ints about _product_micros(b): 0.3 us at 2^8
# bits, 27 us at 2^12, 1.8 ms at 2^16 and 0.14 s at 2^20 (Karatsuba).  Timed
# both ways, the estimate took the faster evaluation in 32 of 34 operations
# on seven curves (the two misses are branches in two and three parameters
# at 40 and 73 ms on term dicts against 25 and 57 ms packed) and in 1,496 of
# the 1,500 of the first 200 series requests of the benchmark's seeds 1-3
# (all packed, at most 1,536 bits; the misses are sub-millisecond).  Either
# side of the crossover: the order-60 branch of P - 1 + Q*X*P^2 - 3*X*P^2
# (15,616 bits) packs in 64 ms against 610 ms on term dicts, and the
# order-200 log of the branch of 1 - X - P + Q*X*P (64,320 bits) runs on
# term dicts in 0.10 s against 0.47 s packed.
PAIR_MICROS = 0.6
# array type codes by word width in bits: a slot of one word unpacks as one
# array item
_WORD_CODES = {array(code).itemsize * 8: code for code in "BHIQ"}

# work summed over all kernel runs: "runs", "term_dict_runs" among them,
# "nodes" recorded, "products" (pairs of values multiplied, an int product
# each when packed) and "bits" (slots times slot width of a packed value,
# summed over the packed runs)
PACKED_COUNTERS: Counter = Counter()


class _Gaussian:
    """A packed value with imaginary parts: its real and imaginary packed ints."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int) -> None:
        self.re = re
        self.im = im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __add__(self, other):
        if type(other) is int:
            return _Gaussian(self.re + other, self.im)
        return _Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is int:
            return _Gaussian(self.re * other, self.im * other)
        return _Gaussian(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    __rmul__ = __mul__

    def __lshift__(self, bits: int) -> "_Gaussian":
        return _Gaussian(self.re << bits, self.im << bits)

    def __floordiv__(self, divisor: int) -> "_Gaussian":
        return _Gaussian(self.re // divisor, self.im // divisor)


class _Kernel:
    """One series operation on Kronecker-packed integers.

    The operation is recorded as a list of nodes over one parameter ring:
    inputs (Laurent polynomials with Gaussian-integer coefficients), sums of
    f * x * y over earlier nodes x, y with int factors f, and exact
    divisions.  As each node is recorded, the same recurrence runs on
    bounds: an l1 norm (sum of |re| + |im| over the terms) and an exponent
    range per parameter.  The l1 norm is submultiplicative and subadditive,
    so a node's bound bounds every coefficient of it, and its range holds
    every exponent.

    ``run`` derives the layout from the values that are packed or unpacked:
    the slot width w (every bound below 2^(w-1)) and a stride per parameter
    (slots per unit exponent, from the widest range).  A value V with offset
    lo (its own lowest exponent per parameter) is the int sum over its terms
    c X^e of c 2^(w * sum_i (e_i - lo_i) stride_i), that is V X^-lo at
    X_i = 2^(w stride_i).  Evaluation is a ring homomorphism, so a product of
    values is the product of their ints, and moving a term to the offset of
    the node it is summed into is a left shift.  ``run`` then evaluates every
    node on those ints (on pairs of ints, ``_Gaussian``, where a value is
    imaginary).  ``unpack`` reads a node's slots back in linear time: it
    adds a bias of 2^(w-1) per slot, which makes every slot nonnegative,
    and cuts the bytes of the sum.

    The nodes run as polynomials with Gaussian-integer coefficients instead
    where a divisor is not a monomial, where a packed value would pass
    ``MAX_PACKED_BITS``, or, in a layout of more than one slot, where they
    are estimated cheaper (``_prefers_term_dicts``).  For the estimate each
    node also carries a bound on its count of terms: an input's own, and for
    a sum of products the smaller of the count of exponent vectors in its
    range and the sum over its pairs of the products of their bounds.
    """

    def __init__(self, variables: tuple[str, ...]) -> None:
        self.variables = variables
        self.nodes = []
        self.norms = []
        # per parameter, the lowest and highest exponent of each node; a zero
        # node's range is empty, (inf, -inf), so it drops out of min and max
        self.ranges = [([], []) for _ in variables]
        self.terms = []
        self.decoded = set()
        # the sum over the pairs of nonzero sums of products of the products
        # of their term bounds, and whether a divisor forces term dicts
        self.pair_terms = 0
        self.sparse = False
        # pairs summed by nonzero sums of products, for ``PACKED_COUNTERS``
        self.products = 0

    def _add(self, kind: int, data, norm: int, ranges, terms) -> int:
        """Record a node with its norm bound and, read only when the norm is
        nonzero, its (lowest, highest) exponent per parameter; its term
        bound is ``terms``, and at most the count of exponent vectors in
        that range."""
        self.nodes.append((kind, data))
        self.norms.append(norm)
        if not norm:
            ranges = repeat((inf, -inf))
        volume = 1
        for (low, high), (lo, hi) in zip(self.ranges, ranges):
            low.append(lo)
            high.append(hi)
            volume *= hi - lo + 1
        self.terms.append(min(terms, volume) if norm else 0)
        return len(self.nodes) - 1

    def input(self, poly: LaurentPolynomial, scale: int = 1) -> int:
        """A node for poly * scale, which must have Gaussian-integer coefficients."""
        re, im = poly._terms, []
        if scale != 1 or not all(type(c) is int for _, c in re):
            re, im = _split(re, scale)
        columns = zip(*[e for e, _ in re], *[e for e, _ in im])
        ranges = [(min(c), max(c)) for c in columns]
        node = self._add(_INPUT, (re, im), _norm(re, im), ranges, len(re) + len(im))
        self.decoded.add(node)
        return node

    def dot(self, xs: Sequence[int], ys: Sequence[int], factors: Sequence[int] | None = None):
        """A node for the sum of factors[t] * xs[t] * ys[t] over earlier nodes
        (every factor 1 when none are given)."""
        norm_of, terms_of = self.norms.__getitem__, self.terms.__getitem__
        products = map(mul, map(norm_of, xs), map(norm_of, ys))
        if factors is not None:
            products = map(mul, map(abs, factors), products)
        norm = sum(products)
        pair_terms = sum(map(mul, map(terms_of, xs), map(terms_of, ys)))
        if norm:
            self.pair_terms += pair_terms
            self.products += len(xs)
        ranges = (
            (min(map(add, map(low.__getitem__, xs), map(low.__getitem__, ys))),
             max(map(add, map(high.__getitem__, xs), map(high.__getitem__, ys))))
            for low, high in self.ranges
        )
        return self._add(_DOT, (factors, xs, ys), norm, ranges, pair_terms)

    def divide(self, x: int, divisor: LaurentPolynomial, fail) -> int:
        """A node for the exact quotient x / divisor (Gaussian-integer coefficients).

        A monomial divisor divides each slot, and the quotient's norm is at
        most x's.  Any other divisor can widen a quotient past every bound
        kept here, so it sends the whole run to term dicts, where the
        quotient is ``exact_divide``'s; a DomainError there raises
        ``fail(x)``.
        """
        monomial = len(divisor._terms) == 1
        self.sparse = self.sparse or not monomial
        columns = zip(*(e for e, _ in divisor._terms))
        ranges = [
            (low[x] - min(c), high[x] - max(c)) for (low, high), c in zip(self.ranges, columns)
        ]
        terms = self.terms[x] if monomial else inf
        return self._add(_DIVIDE, (x, divisor, fail), self.norms[x], ranges, terms)

    def _layout(self) -> None:
        norms = self.norms
        live = [node for node in self.decoded if norms[node]]
        bound = max((norms[node] for node in live), default=1)
        spans = [max((high[n] - low[n] + 1 for n in live), default=1) for low, high in self.ranges]
        # every bound below 2^(width-1); one array word per slot where one is enough
        bits = bound.bit_length() + 1
        width = next((w for w in sorted(_WORD_CODES) if w >= bits), -(-bits // 64) * 64)
        slots = 1
        strides = []
        for span in spans:
            strides.append(slots)
            slots *= span
        self.width, self.spans, self.strides, self.slots = width, spans, strides, slots
        self.sparse = (
            self.sparse or slots * width > MAX_PACKED_BITS or self._prefers_term_dicts()
        )
        if self.sparse:
            return
        # the slot position of each node's offset; a zero node's lies far
        # above every other, so that a term it zeroes shifts left, not right
        positions = [0 if n else None for n in norms]
        for (low, _), stride in zip(self.ranges, strides):
            positions = [p if p is None else p + lo * stride for p, lo in zip(positions, low)]
        far = 2 * max((abs(p) for p in positions if p is not None), default=0) + 1
        self.positions = [far if p is None else p for p in positions]
        self.bytes = width // 8
        self.half = 1 << (width - 1)
        self.empty = self.half.to_bytes(self.bytes, "little")
        self.bias = int.from_bytes(self.empty * slots, "little")

    def _prefers_term_dicts(self) -> bool:
        """Whether term dicts are estimated cheaper than packed ints.

        Term dicts pay ``PAIR_MICROS`` per pair of terms, from the term
        bounds.  Packed ints pay one int product per pair, its factors
        taken as half as wide as the extent of the node that sums them.
        With one slot (over no parameters, say) every value is one term, so
        a pair is the same int product either way, and packing saves the
        dict work.
        """
        if self.slots == 1:
            return False
        packed = 0.0
        for node, (kind, data) in enumerate(self.nodes):
            if kind == _DOT and self.norms[node]:
                extent = 1 + sum(
                    (high[node] - low[node]) * stride
                    for (low, high), stride in zip(self.ranges, self.strides)
                )
                packed += len(data[1]) * _product_micros(self.width * extent // 2)
        return PAIR_MICROS * self.pair_terms < packed

    def run(self, outputs: Iterable[int]) -> None:
        """Fix the layout, then evaluate every node packed or as term dicts."""
        self.decoded.update(outputs)
        self._layout()
        PACKED_COUNTERS.update(
            runs=1, term_dict_runs=int(self.sparse), nodes=len(self.nodes),
            products=self.products, bits=0 if self.sparse else self.slots * self.width,
        )
        if self.sparse:
            return self._run_sparse()
        width, norms, positions = self.width, self.norms, self.positions
        values = self.values = []
        value_of, position_of = values.__getitem__, positions.__getitem__
        for node, (kind, data) in enumerate(self.nodes):
            if not norms[node]:
                value = 0
            elif kind == _DOT:
                factors, xs, ys = data
                products = map(mul, map(value_of, xs), map(value_of, ys))
                if factors is not None:
                    products = map(mul, factors, products)
                offsets = map(add, map(position_of, xs), map(position_of, ys))
                shifts = map(mul, map(sub, offsets, repeat(positions[node])), repeat(width))
                value = sum(map(lshift, products, shifts))
            elif kind == _INPUT:
                value = self._pack_parts(*data, node)
            else:
                value = _divide(values[data[0]], data[1])
            values.append(value)

    def _run_sparse(self) -> None:
        """Every node as a polynomial with Gaussian-integer coefficients."""
        variables = self.variables
        zero = _make(variables, {})
        values = self.values = []
        value_of = values.__getitem__
        for node, (kind, data) in enumerate(self.nodes):
            if not self.norms[node]:
                value = zero
            elif kind == _DOT:
                factors, xs, ys = data
                pairs = zip(map(value_of, xs), map(value_of, ys))
                if factors is None:
                    value = _dot(variables, pairs)
                else:
                    # one sum per distinct factor, scaled once
                    groups = {}
                    for f, pair in zip(factors, pairs):
                        groups.setdefault(f, []).append(pair)
                    value = sum((_dot(variables, g, f) for f, g in groups.items()), zero)
            elif kind == _INPUT:
                re, im = data
                acc = dict(re)
                for e, c in im:
                    acc[e] = Scalar(acc.get(e, 0), c)
                value = _make(variables, acc)
            else:
                x, divisor, fail = data
                try:
                    value = values[x].exact_divide(divisor)
                except DomainError as exc:
                    raise fail(values[x]) from exc
            values.append(value)

    def is_zero(self, node: int) -> bool:
        """Whether the value of a run node is zero, read without unpacking:
        a packed value is zero exactly when its polynomial is."""
        value = self.values[node]
        return value.is_zero() if self.sparse else not value

    def _pack_parts(self, re, im, node: int):
        """The packed value of real and imaginary (exponents, int) terms: an
        int, or a ``_Gaussian`` pair when there are imaginary terms."""
        value = self._pack(re, node)
        return _Gaussian(value, self._pack(im, node)) if im else value

    def _pack(self, terms, node: int) -> int:
        """The packed int of (exponents, int) terms at the offset of ``node``.

        A few terms are shifted into place; more are written as biased bytes
        and read as one int, in time linear in the slots.
        """
        width, strides, base = self.width, self.strides, self.positions[node]
        if len(terms) <= 8:
            return sum(c << (width * (sum(map(mul, e, strides)) - base)) for e, c in terms)
        size, half = self.bytes, self.half
        buffer = bytearray(self.empty * self.slots)
        for exps, c in terms:
            slot = (sum(map(mul, exps, strides)) - base) * size
            buffer[slot : slot + size] = (c + half).to_bytes(size, "little")
        return int.from_bytes(buffer, "little") - self.bias

    def _slots(self, values: list[int]) -> list[list[tuple[int, int]]]:
        """(slot, coefficient) over the nonzero slots of each packed int, all
        read from one byte string."""
        size, half, slots = self.bytes, self.half, self.slots
        bias, block = self.bias, slots * size
        data = b"".join((value + bias).to_bytes(block, "little") for value in values)
        code = _WORD_CODES.get(self.width)
        if not code:
            empty = self.empty
            return [
                [
                    (slot, int.from_bytes(chunk, "little") - half)
                    for slot in range(slots)
                    if (chunk := data[start + slot * size : start + slot * size + size]) != empty
                ]
                for start in range(0, len(data), block)
            ]
        words = array(code, data)
        if sys.byteorder == "big":
            words.byteswap()
        return [
            [(slot, word - half) for slot, word in enumerate(words[start : start + slots])
             if word != half]
            for start in range(0, len(words), slots)
        ]

    def unpack(self, nodes: Sequence[int], denominators: Sequence[int]) -> list[LaurentPolynomial]:
        """The value of each node divided by its denominator, as a polynomial.

        Slots run in the term order (the last parameter's stride is the
        largest), so a real value's terms come out canonical.
        """
        if self.sparse:
            return [self.values[n].scale(Fraction(1, d)) for n, d in zip(nodes, denominators)]
        values = [self.values[node] for node in nodes]
        parts = [part for v in values for part in ((v,) if type(v) is int else (v.re, v.im))]
        decoded = iter(self._slots(parts))
        layout = list(zip(self.strides, self.spans))
        out = []
        for node, value, denominator in zip(nodes, values, denominators):
            lo = [low[node] for low, _ in self.ranges]
            if type(value) is int:
                slots = next(decoded)
                if denominator != 1:
                    slots = [
                        (slot, Fraction(c, denominator) if c % denominator else c // denominator)
                        for slot, c in slots
                    ]
                out.append(_adopt(self.variables, _exponents(slots, lo, layout)))
                continue
            re, im = dict(next(decoded)), dict(next(decoded))
            acc = {}
            for slot in re.keys() | im.keys():
                a = Fraction(re.get(slot, 0), denominator)
                b = Fraction(im.get(slot, 0), denominator)
                acc[slot] = Scalar(a, b) if b else a
            out.append(_make(self.variables, dict(_exponents(acc.items(), lo, layout))))
        return out


def _product_micros(bits: int) -> float:
    """The time of one product of two ``bits``-bit ints, in microseconds
    (see ``PAIR_MICROS``)."""
    return 0.15 + 2.5 * (bits / 1024) ** 1.585


def _divide(value, divisor: LaurentPolynomial):
    """The packed value divided by a monomial, slot by slot: each slot is a
    multiple of its Gaussian-integer coefficient c, so dividing the int by a
    real c (by the norm of c, after a product with its conjugate) is exact."""
    re, im = _parts(divisor._terms[0][1])
    if im:
        return (value * _Gaussian(re, -im)) // (re * re + im * im)
    return value // re


def _split(terms, scale: int = 1) -> tuple[list, list]:
    """Real and imaginary (exponents, int) terms of terms * scale."""
    re, im = [], []
    for e, c in terms:
        a, b = _parts(c, scale)
        if a:
            re.append((e, a))
        if b:
            im.append((e, b))
    return re, im


def _norm(re, im) -> int:
    """The l1 norm, sum of |re| + |im| over the terms."""
    return sum(map(abs, map(itemgetter(1), re))) + sum(map(abs, map(itemgetter(1), im)))


def _exponents(slots, lo, layout) -> list:
    """(exponent vector, c) for (slot, c) pairs of a value with offset lo."""
    if len(lo) == 1:
        (low,) = lo
        return [((low + slot,), c) for slot, c in slots]
    return [(tuple(l + slot // s % n for l, (s, n) in zip(lo, layout)), c) for slot, c in slots]

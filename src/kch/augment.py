"""Augmentations of a graded algebra and their variety over the torus ring.

An augmentation sends every degree-zero generator to a scalar, every other
generator to zero, and must annihilate each differential image.  Collecting
the image of each degree-one generator under that evaluation yields a
polynomial system in one unknown per degree-zero generator, with coefficients
Laurent in the torus variables.  Eliminating the unknowns (after inverting
the torus variables by saturation) cuts out the augmentation variety.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import sub
from types import MappingProxyType
from typing import Mapping

from .dga import DGA, AlgebraElement
from .errors import DomainError, max_steps_limit
from .groebner import DEFAULT_MAX_STEPS, _eliminate, ideal_contains_one, reduced_groebner_basis
from .laurent import LaurentPolynomial, _check_variables, _denominator, _make
from .scalars import Scalar

SATURATION_VARIABLE = "_w"


@dataclass(frozen=True)
class AugmentationSystem:
    """Equations epsilon(d(a)) = 0, one per degree-one generator."""

    dga_name: str
    torus_variables: tuple[str, ...]
    unknowns: tuple[str, ...]
    unknown_of: Mapping[str, str]
    ring: tuple[str, ...]
    equations: tuple[tuple[str, LaurentPolynomial], ...]


@dataclass(frozen=True)
class AugmentationVarietyResult:
    principal: bool
    polynomial: LaurentPolynomial | None
    generators: tuple[LaurentPolynomial, ...]
    notes: tuple[str, ...]


def augmentation_system(dga: DGA) -> AugmentationSystem:
    """The system of ``dga``, built and checked once and then kept on it."""
    if dga._augmentation is None:
        object.__setattr__(dga, "_augmentation", _build_system(dga))
    return dga._augmentation


def _build_system(dga: DGA) -> AugmentationSystem:
    report = dga.check()
    if not report.ok:
        problems = list(report.degree_violations)
        problems += [f"d(d({g})) = {im}" for g, im in report.nonzero_images()]
        raise DomainError(
            f"algebra {dga.name!r} fails structural checks: " + "; ".join(problems)
        )
    degree_zero = [g.name for g in dga.generators if g.degree == 0]
    unknown_of = {name: f"u_{name}" for name in degree_zero}
    unknowns = tuple(unknown_of[name] for name in degree_zero)
    forbidden = set(dga.torus_variables) | {g.name for g in dga.generators}
    for unknown in unknowns:
        if unknown in forbidden:
            raise DomainError(f"unknown name {unknown!r} collides with a declared name")
    ring = unknowns + dga.torus_variables
    # every name valid and distinct, the elimination ring's saturation variable too
    _check_variables(ring + (SATURATION_VARIABLE,))
    equations = []
    for g in dga.generators:
        if g.degree != 1:
            continue
        poly = _epsilon_image(dga, dga.differential_of(g.name), ring, unknown_of)
        equations.append((g.name, poly))
    return AugmentationSystem(
        dga_name=dga.name,
        torus_variables=dga.torus_variables,
        unknowns=unknowns,
        unknown_of=MappingProxyType(unknown_of),
        ring=ring,
        equations=tuple(equations),
    )


def _epsilon_image(
    dga: DGA, element: AlgebraElement, ring: tuple[str, ...], unknown_of: Mapping[str, str]
) -> LaurentPolynomial:
    """epsilon(element): each word's unknown counts go in front of its
    coefficient's exponents, all summed in one map."""
    position = {name: k for k, name in enumerate(unknown_of)}
    acc = {}
    for word, coeff in element.terms():
        if any(dga.generator(letter).degree != 0 for letter in word):
            continue
        counts = [0] * len(position)
        for letter in word:
            counts[position[letter]] += 1
        for exps, c in coeff._terms:
            key = (*counts, *exps)
            acc[key] = acc.get(key, 0) + c
    return _make(ring, acc)


def _validated_point(
    torus_variables: tuple[str, ...], point: Mapping[str, Scalar | int | Fraction]
) -> dict[str, Scalar]:
    values = {}
    for name in torus_variables:
        if name not in point:
            raise DomainError(f"no value supplied for torus variable {name!r}")
        value = Scalar.of(point[name])
        if value.is_zero():
            raise DomainError(f"torus coordinate {name!r} must be nonzero")
        values[name] = value
    extras = set(point) - set(torus_variables)
    if extras:
        raise DomainError(f"unexpected torus coordinates {sorted(extras)!r}")
    return values


def is_augmentation(
    dga: DGA,
    values: Mapping[str, Scalar | int | Fraction],
    point: Mapping[str, Scalar | int | Fraction],
) -> bool:
    """Check a concrete assignment of degree-zero generator values at a torus point."""
    system = augmentation_system(dga)
    assignment = {}
    for gen_name, unknown in system.unknown_of.items():
        if gen_name not in values:
            raise DomainError(f"no value supplied for degree-zero generator {gen_name!r}")
        assignment[unknown] = Scalar.of(values[gen_name])
    extras = set(values) - set(system.unknown_of)
    if extras:
        raise DomainError(f"values supplied for non-degree-zero names {sorted(extras)!r}")
    full = dict(assignment)
    full.update(_validated_point(system.torus_variables, point))
    return all(eq.evaluate(full).is_zero() for _, eq in system.equations)


def augmentation_exists(
    dga: DGA, point: Mapping[str, Scalar | int | Fraction], *, max_steps: int | None = None
) -> bool:
    """Decide solvability of the augmentation equations at a fixed torus point.

    The specialized system, each equation scaled to integral coefficients,
    generates an ideal in the unknowns alone; by the Nullstellensatz it has
    a solution over the complex numbers exactly when that is not the unit
    ideal.
    """
    max_steps = max_steps_limit(DEFAULT_MAX_STEPS, max_steps)
    system = augmentation_system(dga)
    at = []
    for value in _validated_point(system.torus_variables, point).values():
        d = lcm(value.re.denominator, value.im.denominator)
        at.append((value.re.numerator if not value.im else value * d, d))
    specialized = [_integral_specialization(eq, system.unknowns, at) for _, eq in system.equations]
    if not system.unknowns:
        return all(poly.is_zero() for poly in specialized)
    return not ideal_contains_one(specialized, max_steps=max_steps)


def _integral_specialization(
    eq: LaurentPolynomial, unknowns: tuple[str, ...], at: list
) -> LaurentPolynomial:
    """eq at the torus point whose coordinates are g/d (g a Gaussian integer,
    d > 0), over the unknowns, times the nonzero constant that makes every
    coefficient integral: its coefficients' common denominator and, per torus
    variable, g^(-min e) * d^(max e) over the variable's exponents e."""
    width = len(unknowns)
    scale = _denominator(c for _, c in eq._terms)
    columns = list(zip(*(e[width:] for e, _ in eq._terms)))
    lows, highs = list(map(min, columns)), list(map(max, columns))
    acc = {}
    for exps, c in eq._terms:
        c = c.numerator * (scale // c.denominator) if type(c) is Fraction else c * scale
        for (g, d), e, low, high in zip(at, exps[width:], lows, highs):
            c = c * g ** (e - low) * d ** (high - e)
        key = exps[:width]
        acc[key] = acc[key] + c if key in acc else c
    return _make(unknowns, acc)


def _elimination_generator(
    eq: LaurentPolynomial, ring: tuple[str, ...], unknowns: int
) -> LaurentPolynomial:
    """eq over ``ring`` (unknowns, saturation variable, torus block), with
    the torus exponents shifted by their column minima to be nonnegative.

    Torus variables are units, and the ideal is saturated against them, so
    this does not change the variety.  Unknown exponents are untouched: the
    unknowns are not invertible and stripping them would drop components.
    """
    shift = [min(0, *column) for column in zip(*(e[unknowns:] for e, _ in eq._terms))]
    return _make(
        ring, {(*e[:unknowns], 0, *map(sub, e[unknowns:], shift)): c for e, c in eq._terms}
    )


def eliminate_augmentation_ideal(
    dga: DGA, *, max_steps: int | None = None
) -> AugmentationVarietyResult:
    """Project the augmentation ideal onto the torus variables.

    Variables are ordered unknowns, saturation variable, torus block; under
    lex order the members of the minimal basis that hold only torus variables
    form a basis of the elimination ideal, and only they are reduced.  Each
    survivor is normalized to integer content one with a positive leading
    coefficient.
    """
    max_steps = max_steps_limit(DEFAULT_MAX_STEPS, max_steps)
    system = augmentation_system(dga)
    elim_ring = system.unknowns + (SATURATION_VARIABLE,) + system.torus_variables
    notes = [
        f"unknowns: {', '.join(system.unknowns) if system.unknowns else '(none)'}",
        f"equations from degree-one generators: {len(system.equations)}",
        f"saturated against {SATURATION_VARIABLE}*{'*'.join(system.torus_variables)}",
    ]
    width = len(system.unknowns)
    generators = [_elimination_generator(eq, elim_ring, width) for _, eq in system.equations]
    saturation_exps = (0,) * width + (1,) * (1 + len(system.torus_variables))
    generators.append(_make(elim_ring, {(0,) * len(elim_ring): 1, saturation_exps: -1}))
    size, block = _eliminate(generators, system.torus_variables, max_steps)
    basis = reduced_groebner_basis(block, max_steps=max_steps)
    eliminated = [g.primitive_normalized() for g in basis]
    eliminated.sort(key=lambda p: (len(p._terms), str(p)))
    notes.append(f"reduced basis has {size} elements, {len(eliminated)} in the torus block")
    if not eliminated:
        notes.append("no torus constraints: the variety is the whole torus")
        return AugmentationVarietyResult(True, None, (), tuple(notes))
    principal = len(eliminated) == 1
    polynomial = eliminated[0] if principal else None
    if principal and polynomial.is_constant():
        notes.append("the variety is empty: the ideal meets the coefficient field")
    return AugmentationVarietyResult(principal, polynomial, tuple(eliminated), tuple(notes))

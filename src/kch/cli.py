"""Command-line entry point.

One verb per construction: ``dga check``, ``aug poly|exists``,
``feynman scalar|matrix|ribbon``, ``homfly``, ``wilson``, ``symtrace``,
``mirror branch``.  Every subcommand takes ``--json`` for a stable
machine-readable schema (documented in the README).  Exit codes: 0 success,
1 invariant or verification failure, 2 parse or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from string import whitespace

from .augment import augmentation_exists, eliminate_augmentation_ideal
from .dga import DGA, _read_text, bundled_names, load_bundled, load_dga_text
from .errors import KchError, ParseError, _integer_text
from .feynman import (
    CubicForm,
    QuadraticForm,
    evaluate_matrix_series,
    matrix_model_series,
    matrix_wick_oracle_series,
    ribbon_census,
    scalar_model_series,
    stein_oracle_series,
)
from .homfly import BUNDLED_DIAGRAMS, DEFAULT_MAX_CROSSINGS, homfly
from .laurent import _NAME, parse_polynomial
from .mirror import (
    branch_series,
    p_series,
    potential_series,
    potential_x_derivative,
    verify_on_curve,
)
from .pd import parse_pd
from .scalars import Scalar, parse_scalar
from .symfunc import SERIES_VARIABLE, HolonomySpectrum, symmetric_trace_series
from .wilson import wilson_loop


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _file_text(spec: str) -> str | None:
    """The text of the file a CLI spec names, or None when it names none; a
    name the OS cannot hold (too long, or with a NUL byte) names no file."""
    return _read_text(spec) if os.path.isfile(spec) else None


def _load_algebra(spec: str) -> DGA:
    text = _file_text(spec)
    if text is not None:
        return load_dga_text(text, source=spec)
    if spec in bundled_names():
        return load_bundled(spec)
    raise ParseError(
        f"{spec!r} is neither a file nor a bundled algebra "
        f"(bundled: {', '.join(bundled_names())})"
    )


def _load_diagram_text(spec: str) -> str:
    text = _file_text(spec)
    if text is not None:
        return text.strip(whitespace)
    if spec in BUNDLED_DIAGRAMS:
        return BUNDLED_DIAGRAMS[spec]
    if "X[" in spec or "UNKNOT" in spec:
        return spec
    raise ParseError(
        f"{spec!r} is neither a file, a bundled diagram name, nor inline PD text "
        f"(bundled: {', '.join(sorted(BUNDLED_DIAGRAMS))})"
    )


def _parse_point(text: str) -> dict[str, Scalar]:
    point = {}
    for piece in text.split(","):
        piece = piece.strip(whitespace)
        if not piece:
            continue
        if "=" not in piece:
            raise ParseError(f"expected NAME=VALUE in point assignment, got {piece!r}")
        name, _, raw = piece.partition("=")
        name = name.strip(whitespace)
        if not _NAME.fullmatch(name):
            raise ParseError(f"invalid coordinate name {name!r} in point assignment")
        if name in point:
            raise ParseError(f"coordinate {name!r} is given twice in point assignment")
        point[name] = parse_scalar(raw)
    if not point:
        raise ParseError("empty point assignment")
    return point


def _integer(text: str) -> int:
    """An integer option, read by the one integer-text rule."""
    try:
        return _integer_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational_entry(value, where: str) -> Fraction:
    """An int, or a string in the ``parse_scalar`` grammar with no imaginary part."""
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, str):
        raise ParseError(f"{where}: entries must be integers or rational strings")
    try:
        scalar = parse_scalar(value)
    except ParseError:
        scalar = None
    if scalar is None or scalar.im:
        raise ParseError(f"{where}: {value!r} is not a rational")
    return scalar.re


def _parse_array(text: str, flag: str, depth: int, shape: str) -> list:
    """A JSON array nested ``depth`` deep with rational entries, read in order."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # bad JSON, or a number past Python's int conversion limit
        raise ParseError(f"{flag}: invalid JSON: {exc}") from exc

    def read(value, level: int, where: str):
        if level == depth:
            return _rational_entry(value, flag + where)
        if not isinstance(value, list):
            raise ParseError(f"{flag}: expected {shape}")
        return [read(v, level + 1, f"{where}[{i}]") for i, v in enumerate(value)]

    return read(data, 0, "")


def _split_eigenvalues(text: str) -> list[Scalar]:
    # no scalar literal holds a comma
    values = [parse_scalar(piece) for piece in text.split(",") if piece.strip(whitespace)]
    if not values:
        raise ParseError("--eigs: no eigenvalues given")
    return values


# -- subcommand handlers -------------------------------------------------------


def _cmd_dga_check(args) -> int:
    algebra = _load_algebra(args.document)
    report = algebra.check()
    if args.json:
        _print_json(
            {
                "name": algebra.name,
                "degrees_ok": report.degrees_ok,
                "degree_violations": list(report.degree_violations),
                "d_squared_ok": report.d_squared_ok,
                "differentials": {
                    g.name: str(algebra.differential_of(g.name)) for g in algebra.generators
                },
                "d_squared_images": {g: str(im) for g, im in report.nonzero_images()},
            }
        )
    else:
        print(f"algebra: {algebra.name}")
        print(f"torus variables: {', '.join(algebra.torus_variables)}")
        for g in algebra.generators:
            print(f"d({g.name}) = {algebra.differential_of(g.name)}")
        print(f"degrees: {'ok' if report.degrees_ok else 'FAILED'}")
        for violation in report.degree_violations:
            print(f"  {violation}")
        print(f"d^2 = 0: {'ok' if report.d_squared_ok else 'FAILED'}")
        for g, image in report.nonzero_images():
            print(f"  d(d({g})) = {image}")
    return 0 if report.ok else 1


def _cmd_aug_poly(args) -> int:
    algebra = _load_algebra(args.document)
    result = eliminate_augmentation_ideal(algebra)
    if args.json:
        _print_json(
            {
                "principal": result.principal,
                "polynomial": None if result.polynomial is None else str(result.polynomial),
                "generators": [str(g) for g in result.generators],
            }
        )
    else:
        print(f"principal: {'yes' if result.principal else 'no'}")
        if result.polynomial is not None:
            print(f"polynomial: {result.polynomial}")
        if not result.principal:
            for g in result.generators:
                print(f"generator: {g}")
        for note in result.notes:
            print(f"note: {note}")
    return 0


def _cmd_aug_exists(args) -> int:
    algebra = _load_algebra(args.document)
    point = _parse_point(args.at)
    exists = augmentation_exists(algebra, point)
    if args.json:
        _print_json({"exists": exists})
    else:
        print(f"exists: {'yes' if exists else 'no'}")
    return 0


def _checked_rows(graph, oracle, order: int):
    """For each order m: m, the graph-sum and oracle constant terms as text,
    and whether they agree; then whether every order agrees."""
    rows = []
    for m in range(order + 1):
        left = graph.coefficient(m).constant_term()
        right = oracle.coefficient(m).constant_term()
        rows.append((m, str(left), str(right), left == right))
    return rows, all(row[3] for row in rows)


def _classes(census) -> list[dict]:
    """The (g, h) classes of a ribbon census, in order, as JSON records."""
    return [{"g": g, "h": h, "count": count} for (g, h), count in sorted(census.items())]


def _cmd_feynman_scalar(args) -> int:
    q = QuadraticForm(_parse_array(args.q, "--q", 2, "a JSON array of arrays"))
    c = CubicForm.from_array(_parse_array(args.c, "--c", 3, "a triply nested JSON array"))
    if args.n != q.dimension:
        raise ParseError(
            f"--n {args.n} does not match the {q.dimension}-dimensional quadratic form"
        )
    rows, all_match = _checked_rows(
        scalar_model_series(q, c, args.order), stein_oracle_series(q, c, args.order), args.order
    )
    if args.json:
        _print_json(
            {
                "orders": [
                    {"order": m, "graph_sum": l, "oracle": r, "match": match}
                    for m, l, r, match in rows
                ]
            }
        )
    else:
        width = max(len(l) for _, l, _, _ in rows)
        print(f"{'order':<6} {'graph-sum':<{max(9, width)}} {'oracle':<{max(6, width)}} match")
        for m, left, right, match in rows:
            print(
                f"{m:<6} {left:<{max(9, width)}} {right:<{max(6, width)}} "
                f"{'yes' if match else 'NO'}"
            )
    return 0 if all_match else 1


def _cmd_feynman_matrix(args) -> int:
    symbolic = matrix_model_series(args.order)
    oracle = matrix_wick_oracle_series(args.N, args.order)
    rows, all_match = _checked_rows(evaluate_matrix_series(symbolic, args.N), oracle, args.order)
    polynomials = [str(symbolic.coefficient(m)) for m in range(args.order + 1)]
    # the 3m half-edges of m cubic vertices pair up only when m is even
    censuses = [(m, *ribbon_census(m)) for m in range(2, args.order + 1, 2)]
    if args.json:
        _print_json(
            {
                "N": args.N,
                "orders": [
                    {"order": m, "polynomial": poly, "evaluated": l, "oracle": r, "match": match}
                    for poly, (m, l, r, match) in zip(polynomials, rows)
                ],
                "census": [
                    {"order": m, "classes": _classes(census), "disconnected_pairings": d}
                    for m, census, d in censuses
                ],
            }
        )
    else:
        print(f"{'order':<6} {'graph-sum':<24} {'at N=' + str(args.N):<12} oracle  match")
        for poly, (m, left, right, match) in zip(polynomials, rows):
            print(f"{m:<6} {poly:<24} {left:<12} {right:<7} {'yes' if match else 'NO'}")
        print()
        print("ribbon census (connected pairings, standard rotations):")
        for m, census, disconnected in censuses:
            body = ", ".join(
                f"(g={g},h={h}) x {count}" for (g, h), count in sorted(census.items())
            )
            extra = f", disconnected pairings: {disconnected}" if disconnected else ""
            print(f"  order {m}: {body or '(empty)'}{extra}")
    return 0 if all_match else 1


def _cmd_feynman_ribbon(args) -> int:
    census, disconnected = ribbon_census(args.order)
    total = sum(census.values()) + disconnected
    if args.json:
        _print_json(
            {"order": args.order, "pairings": total, "classes": _classes(census),
             "disconnected_pairings": disconnected}
        )
    else:
        print(f"order {args.order}: {total} pairings, {total - disconnected} connected")
        for (g, h), count in sorted(census.items()):
            print(f"  (g={g}, h={h}): {count}")
        if disconnected:
            print(f"  disconnected pairings: {disconnected}")
    return 0


def _skein_work(run):
    """``run()`` and the skein work it did: each ``SKEIN_COUNTERS`` delta."""
    counters = sys.modules["kch.homfly"].SKEIN_COUNTERS  # the module, not the function
    keys = ("crossings_removed", "nodes", "memo_hits", "smoothings", "switches")
    before = [counters[key] for key in keys]
    value = run()
    return value, {key: counters[key] - b for key, b in zip(keys, before)}


def _cmd_homfly(args) -> int:
    diagram = parse_pd(_load_diagram_text(args.pd))
    poly, skein = _skein_work(
        lambda: homfly(diagram, resolution=args.resolution, max_crossings=args.max_crossings)
    )
    if args.json:
        payload = {
            "homfly": str(poly),
            "crossings": diagram.crossing_count,
            "components": diagram.component_count,
            "writhe": diagram.writhe(),
        }
        _print_json({**payload, "skein": skein} if args.stats else payload)
    else:
        print(
            f"diagram: crossings {diagram.crossing_count}, "
            f"components {diagram.component_count}, writhe {diagram.writhe()}"
        )
        print(f"P = {poly}")
    return 0


def _cmd_wilson(args) -> int:
    diagram = parse_pd(_load_diagram_text(args.pd))
    value, skein = _skein_work(lambda: wilson_loop(diagram, args.N, args.k))
    if args.json:
        payload = {"N": args.N, "k": args.k, "re": value.real, "im": value.imag}
        _print_json({**payload, "skein": skein} if args.stats else payload)
    else:
        im = value.imag + 0.0  # normalize -0.0
        if abs(im) < 5e-13:  # below printed precision
            im = 0.0
        sign = "-" if im < 0 else "+"
        print(f"W = {value.real:.12f} {sign} {abs(im):.12f}i")
        print(f"(exact cyclotomic arithmetic in Q(zeta_{2 * abs(args.k + args.N)}), "
              "float cross-check within 1e-9)")
    return 0


def _cmd_symtrace(args) -> int:
    spectrum = HolonomySpectrum(_split_eigenvalues(args.eigs))
    series = symmetric_trace_series(spectrum, args.order)
    if args.json:
        _print_json(
            {
                "variable": SERIES_VARIABLE,
                "order": args.order,
                "coefficients": [
                    str(series.coefficient(k).constant_term()) for k in range(args.order + 1)
                ],
            }
        )
    else:
        print(f"series: {series}")
        print(f"({SERIES_VARIABLE} stands for e^-x)")
    return 0


def _cmd_mirror_branch(args) -> int:
    text = _file_text(args.poly)
    text = args.poly if text is None else text.strip(whitespace)
    curve = parse_polynomial(text, ("Q", "X", "P"))
    if args.Q is not None:
        curve = curve.substitute("Q", parse_scalar(args.Q))
    base = parse_scalar(args.base)
    branch = branch_series(curve, base, args.order)
    p = p_series(branch)
    potential = potential_series(p)
    report = verify_on_curve(curve, branch, p=p)
    derivative_ok = potential_x_derivative(potential) == p
    if args.json:
        _print_json(
            {
                "curve": str(curve),
                "base": str(base),
                "branch": str(branch.series),
                "p": str(p),
                "potential": str(potential.series),
                "linear_coefficient": str(potential.linear_coefficient),
                "on_curve": report.ok,
                "first_failure": report.first_failure,
                "derivative_matches_p": derivative_ok,
            }
        )
    else:
        print(f"curve: {curve}")
        print(f"base: P(0) = {base}")
        print(f"branch: P(X) = {branch.series}")
        constant = "" if base == Scalar.of(1) else f"log({base}) + "
        print(f"p(x) = {constant}{p}")
        linear = potential.linear_coefficient
        prefix = "" if linear.is_zero() else f"{linear}*x + "
        print(f"W(x) = {prefix}{potential.series}")
        print(f"dW/dx reproduces p: {'yes' if derivative_ok else 'NO'}")
        if report.ok:
            print(f"on-curve check: ok through X^{branch.order}")
        else:
            print(f"on-curve check: FAILED at order {report.first_failure}")
    return 0 if (report.ok and derivative_ok) else 1


# -- parser ---------------------------------------------------------------------


def _arg(*flags, **options):
    """One argument spec, as ``add_argument`` takes it."""
    return flags, options


DOCUMENT = _arg("document", help="JSON file or bundled algebra name")
PD = _arg("--pd", required=True, help="PD file, bundled diagram name, or inline text")
ORDER = _arg("--order", type=_integer, required=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kch",
        description="Exact computer algebra for knot contact homology, "
        "skein invariants, and cubic Gaussian graph expansions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def group(name, help):
        return commands.add_parser(name, help=help).add_subparsers(
            dest="subcommand", required=True
        )

    def leaf(parent, name, help, handler, *specs, stats=False):
        """Register one subcommand: its own arguments, then ``--json``."""
        command = parent.add_parser(name, help=help)
        for flags, options in specs:
            command.add_argument(*flags, **options)
        command.add_argument("--json", action="store_true")
        if stats:
            command.add_argument("--stats", action="store_true", help="with --json, add skein work")
        command.set_defaults(handler=handler)

    dga = group("dga", "differential graded algebra tools")
    leaf(dga, "check", "validate degrees and d^2 = 0", _cmd_dga_check, DOCUMENT)

    aug = group("aug", "augmentation tools")
    leaf(aug, "poly", "eliminate to the augmentation polynomial", _cmd_aug_poly, DOCUMENT)
    leaf(
        aug, "exists", "decide existence at a torus point", _cmd_aug_exists,
        DOCUMENT, _arg("--at", required=True, help="torus point, e.g. Q=1,X=2,P=1/2"),
    )

    feynman = group("feynman", "perturbative graph expansions")
    leaf(
        feynman, "scalar", "scalar model vs moment oracle", _cmd_feynman_scalar,
        _arg("--n", type=_integer, required=True, help="dimension"),
        _arg("--q", required=True, help="quadratic form, JSON matrix"),
        _arg("--c", required=True, help="cubic form, JSON rank-3 array"),
        ORDER,
    )
    leaf(
        feynman, "matrix", "Hermitian one-matrix model", _cmd_feynman_matrix,
        _arg("--N", type=_integer, required=True, help="matrix size"), ORDER,
    )
    leaf(feynman, "ribbon", "ribbon graph (g,h) census", _cmd_feynman_ribbon, ORDER)

    leaf(
        commands, "homfly", "skein polynomial of a diagram", _cmd_homfly,
        PD,
        _arg("--resolution", type=_integer, default=0),
        _arg("--max-crossings", type=_integer, default=DEFAULT_MAX_CROSSINGS),
        stats=True,
    )
    leaf(
        commands, "wilson", "Wilson loop at level k, rank N", _cmd_wilson,
        PD, _arg("--N", type=_integer, required=True), _arg("--k", type=_integer, required=True),
        stats=True,
    )
    leaf(
        commands, "symtrace", "symmetric-power trace series", _cmd_symtrace,
        _arg("--eigs", required=True, help="comma-separated eigenvalues, e.g. 1,1/2,(2+3i)"),
        ORDER,
    )

    mirror = group("mirror", "mirror curve branches")
    leaf(
        mirror, "branch", "series branch and disk potential", _cmd_mirror_branch,
        _arg("--poly", required=True, help="curve polynomial in Q, X, P: file or inline"),
        ORDER,
        _arg("--Q", help="numeric Q value (default symbolic)"),
        _arg("--base", default="1", help="base value P(0), default 1"),
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except KchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

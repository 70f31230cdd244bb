"""Spans and counters around the library's layer boundaries.

The tracer wraps public functions and methods of the ``kch`` modules from the
outside.  A module-level function is replaced under every name that refers to
it in a loaded ``kch`` module, because callers look names up in their own
module (``kch.homfly`` calls its own ``switch_crossing``, ``kch.wilson`` its own
``homfly``); a method is replaced on its class.  ``restore`` puts every
original back.

Each wrapped call pushes a frame; on return its duration is added to the
parent frame's child time, so self time is duration minus child time.  Calls
at coarse boundaries are also kept as spans (name, start, end, parent span,
request id) and written out when the run ends; calls on hot paths only add to
their totals, and scalar operations are only counted, since a span per
operation would cost more than the operation.

Only the library calls of a request are traced, with one exception: the
reference routes of ``ORACLE_SPANS`` are also recorded while an answer is
verified, outside the request's timed interval, so that their cost stays
visible without counting toward any end-to-end metric.  The layers an oracle
calls in turn are not traced.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, name, span name, keep a span record)
FUNCTIONS = [
    ("kch.pd", "parse_pd", "pd.parse", True),
    ("kch.pd", "switch_crossing", "pd.edit", False),
    ("kch.pd", "smooth_crossing", "pd.edit", False),
    ("kch.homfly", "homfly", "homfly", True),
    ("kch.wilson", "wilson_loop", "wilson", True),
    ("kch.dga", "load_dga_text", "dga.build", True),
    ("kch.augment", "eliminate_augmentation_ideal", "augment.eliminate", True),
    ("kch.augment", "augmentation_exists", "augment.exists", True),
    ("kch.groebner", "reduced_groebner_basis", "groebner.basis", True),
    ("kch.groebner", "s_polynomial", "groebner.spoly", False),
    ("kch.groebner", "normal_form", "groebner.normal_form", False),
    ("kch.mirror", "branch_series", "mirror.branch", True),
    ("kch.mirror", "verify_on_curve", "mirror.verify", True),
    ("kch.feynman", "scalar_model_series", "feynman.graph", True),
    ("kch.feynman", "stein_oracle_series", "feynman.oracle", True),
    ("kch.feynman", "matrix_wick_oracle_series", "feynman.oracle", True),
    ("kch.feynman", "matrix_model_series", "feynman.matrix", True),
    ("kch.feynman", "evaluate_matrix_series", "feynman.matrix", True),
    ("kch.symfunc", "symmetric_trace_series", "symfunc.trace", True),
]

# (module, class, method, span name, keep a span record)
METHODS = [
    ("kch.laurent", "LaurentPolynomial", "__mul__", "laurent.mul", False),
    ("kch.laurent", "LaurentPolynomial", "__rmul__", "laurent.mul", False),
    ("kch.laurent", "LaurentPolynomial", "exact_divide", "laurent.exact_divide", False),
    ("kch.cyclotomic", "CyclotomicElement", "__mul__", "cyclotomic.mul", False),
    ("kch.cyclotomic", "CyclotomicElement", "inverse", "cyclotomic.inverse", False),
    ("kch.dga", "DGA", "check", "dga.check", True),
    ("kch.series", "FormalSeries", "__mul__", "series.mul", False),
    ("kch.series", "FormalSeries", "__rmul__", "series.mul", False),
    ("kch.series", "FormalSeries", "log", "series.log", True),
    ("kch.series", "FormalSeries", "exp", "series.exp", True),
    ("kch.series", "FormalSeries", "inverse", "series.inverse", True),
]

ORACLE_SPANS = {"feynman.oracle"}

SCALAR_OPS = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "inverse", "__pow__",
]


class Tracer:
    def __init__(self) -> None:
        self.active = False
        # set while an answer is verified: only ORACLE_SPANS are recorded then
        self.checking = False
        self.request_id = 0
        self.spans: list = []
        # span name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.scalar_ops = 0
        self.mul_terms_out = 0
        self.spolys_reduced = 0
        self.useful_reductions = 0
        self._pending_spoly = None
        # frames: [start, child seconds, span index or None, enclosing span index]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- frames -------------------------------------------------------------------

    def enter(self, keep: bool) -> list:
        parent = self._stack[-1] if self._stack else None
        enclosing = None
        if parent is not None:
            enclosing = parent[2] if parent[2] is not None else parent[3]
        index = None
        if keep:
            index = len(self.spans)
            self.spans.append(None)
        frame = [perf_counter(), 0.0, index, enclosing]
        self._stack.append(frame)
        return frame

    def leave(self, name: str, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if frame[2] is not None:
            self.spans[frame[2]] = (name, frame[0], end, frame[3], self.request_id)

    def _wrap(self, name: str, original, keep: bool):
        tracer = self
        oracle = name in ORACLE_SPANS
        if name == "laurent.mul":
            def observe(result):
                tracer.mul_terms_out += sum(1 for _ in result.terms())
        elif name == "groebner.spoly":
            def observe(result):
                tracer._pending_spoly = result
        else:
            observe = None

        def wrapper(*args, **kwargs):
            if not (tracer.active or (oracle and tracer.checking)):
                return original(*args, **kwargs)
            frame = tracer.enter(keep)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.leave(name, frame)
            if name == "groebner.normal_form" and args and args[0] is tracer._pending_spoly:
                # only S-polynomial reductions count toward the useful ratio
                tracer._pending_spoly = None
                tracer.spolys_reduced += 1
                tracer.useful_reductions += not result.is_zero()
            elif observe is not None and result is not NotImplemented:
                observe(result)
            return result

        return wrapper

    def _count_scalar(self, original):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.scalar_ops += 1
            return original(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed boundary of the loaded kch modules."""
        namespaces = [m for n, m in sys.modules.items() if n == "kch" or n.startswith("kch.")]
        for module_name, attr, name, keep in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, keep)
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for module_name, cls_name, attr, name, keep in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._set(cls, attr, self._wrap(name, cls.__dict__[attr], keep))
        scalar = sys.modules["kch.scalars"].Scalar
        for attr in SCALAR_OPS:
            self._set(scalar, attr, self._count_scalar(scalar.__dict__[attr]))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def layer_metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name, as (value, unit)."""
        c, s = self.count, self.seconds
        ratio = self.useful_reductions / self.spolys_reduced if self.spolys_reduced else 0.0
        return {
            "pd.parse_calls": (c("pd.parse"), "count"),
            "pd.parse_s": (s("pd.parse"), "s"),
            "pd.edit_calls": (c("pd.edit"), "count"),
            "pd.edit_s": (s("pd.edit"), "s"),
            "homfly.calls": (c("homfly"), "count"),
            "homfly.self_s": (self.self_seconds("homfly"), "s"),
            "homfly.calls_per_request": (c("homfly") / requests, "calls/req"),
            "wilson.calls": (c("wilson"), "count"),
            "wilson.self_s": (self.self_seconds("wilson"), "s"),
            "cyclotomic.mul_calls": (c("cyclotomic.mul"), "count"),
            "cyclotomic.mul_s": (s("cyclotomic.mul"), "s"),
            "cyclotomic.inverse_calls": (c("cyclotomic.inverse"), "count"),
            "cyclotomic.inverse_s": (s("cyclotomic.inverse"), "s"),
            "laurent.mul_calls": (c("laurent.mul"), "count"),
            "laurent.mul_s": (s("laurent.mul"), "s"),
            "laurent.mul_terms_out": (self.mul_terms_out, "count"),
            "laurent.exact_divide_s": (s("laurent.exact_divide"), "s"),
            "scalars.ops": (self.scalar_ops, "count"),
            "dga.build_s": (s("dga.build"), "s"),
            "dga.check_calls": (c("dga.check"), "count"),
            "dga.check_s": (s("dga.check"), "s"),
            "augment.eliminate_s": (s("augment.eliminate"), "s"),
            "augment.exists_calls": (c("augment.exists"), "count"),
            "augment.exists_s": (s("augment.exists"), "s"),
            "groebner.basis_calls": (c("groebner.basis"), "count"),
            "groebner.basis_s": (s("groebner.basis"), "s"),
            "groebner.spoly_calls": (c("groebner.spoly"), "count"),
            "groebner.normal_form_calls": (c("groebner.normal_form"), "count"),
            "groebner.normal_form_s": (s("groebner.normal_form"), "s"),
            "groebner.useful_reduction_ratio": (ratio, "ratio"),
            "series.mul_calls": (c("series.mul"), "count"),
            "series.mul_s": (s("series.mul"), "s"),
            "series.log_s": (s("series.log"), "s"),
            "series.exp_s": (s("series.exp"), "s"),
            "series.inverse_s": (s("series.inverse"), "s"),
            "mirror.branch_s": (s("mirror.branch"), "s"),
            "mirror.verify_s": (s("mirror.verify"), "s"),
            "feynman.graph_s": (s("feynman.graph"), "s"),
            "feynman.oracle_s": (s("feynman.oracle"), "s"),
            "feynman.matrix_s": (s("feynman.matrix"), "s"),
            "symfunc.trace_s": (s("symfunc.trace"), "s"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, request = span
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )

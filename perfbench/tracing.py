"""Spans recorded around calls into designvar's public functions.

The benchmark's own calls into the library are always recorded as root
spans (one per operation, a few per unit of work), which is what the
end-to-end throughput figures are computed from.  In a traced run the
library's public functions are additionally replaced, for the duration
of the traced units only, by wrappers that record one span per call.
The replacement is made in every ``designvar`` module namespace that
holds the function, so calls one library module makes into another
(``run_scenario`` calling ``point_estimate``, ``build_bound`` calling
``certify``) are seen as child spans.  Nothing inside ``src/designvar``
is changed.

A span is ``(name, start, end, parent)``: name ``"<layer>.<function>"``
where the layer is the designvar module, start/end from
``time.perf_counter``, and parent the index of the enclosing span
(-1 for a root).  Spans stay in memory and are written out once the run
ends.
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = (
    "designs",
    "bounds",
    "spectral",
    "bound_estimation",
    "estimators",
    "simulate",
    "conditions",
    "serialization",
    "cli",
)

# Public functions wrapped in a traced run, per designvar module.
TRACED_FUNCTIONS = {
    "designs": (
        "build_design",
        "bernoulli_design",
        "complete_design",
        "block_design",
        "paired_design",
        "cluster_design",
        "custom_design",
        "inclusion_probabilities",
        "joint_probabilities",
        "first_order_design_matrix",
    ),
    "bounds": ("certify", "derive_mask"),
    "spectral": ("eigen_psd_check", "compare_designs", "compare_bounds"),
    "bound_estimation": ("ipw_bound_matrix", "plugin_bound_estimate", "ht_bound_estimate"),
    "estimators": (
        "observe",
        "point_estimate",
        "linearization_vector",
        "linearized_estimator",
        "taylor_variance",
        "taylor_gap",
    ),
    "simulate": ("run_scenario", "consistency_sweep"),
    "conditions": ("first_order_condition_norm", "second_order_condition_norm"),
    "serialization": (
        "write_matrix_csv",
        "write_vector_csv",
        "read_matrix_csv",
        "read_vector_csv",
    ),
}

BUILD_SPANS = tuple(f"designs.{f}" for f in TRACED_FUNCTIONS["designs"][:7])
SHORT_BOUND_NAMES = {"aronow-samii": "as", "neyman": "neyman", "algorithm-m": "algm"}


class Tracer:
    """In-memory span recorder with a stack of open spans.

    Spans are kept as four parallel lists (name, start, end, parent) so
    that recording one allocates no container the garbage collector has
    to traverse; a traced unit can hold a hundred thousand spans.
    """

    def __init__(self):
        self.suspended = False
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.names.append(name)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def spans(self, first: int = 0) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names[first:], self.starts[first:], self.ends[first:],
                        self.parents[first:]))

    def wrap(self, fn, name):
        """A traced stand-in for ``fn``.

        ``name`` is a span name or a function of (args, kwargs) giving one.
        A call made while a span of the same name is innermost (a builder
        recursing into itself, a block sampler drawing its sub-designs)
        joins that span instead of opening a new one.
        """
        tracer = self
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def traced(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            span = name_of(args, kwargs)
            stack = tracer.stack
            if stack and tracer.names[stack[-1]] == span:
                return fn(*args, **kwargs)
            idx = tracer.open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced


def _bound_span(args, kwargs) -> str:
    from designvar.bounds import BOUND_METHOD_ALIASES

    method = args[0] if args else kwargs.get("method", "")
    canonical = BOUND_METHOD_ALIASES.get(str(method).lower(), str(method))
    return "bounds." + SHORT_BOUND_NAMES.get(canonical, canonical)


class Patches:
    """Install traced wrappers into designvar (and numpy's default_rng)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "designvar" or mod_name.startswith("designvar.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import numpy.random

        designs = importlib.import_module("designvar.designs")
        bounds = importlib.import_module("designvar.bounds")
        for layer, names in TRACED_FUNCTIONS.items():
            module = importlib.import_module(f"designvar.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name)
                self._replace_everywhere(original, self.tracer.wrap(original, f"{layer}.{fn_name}"))
        self._replace_everywhere(bounds.build_bound, self.tracer.wrap(bounds.build_bound, _bound_span))
        # Drawing = the per-replicate child generator plus Design.draw.
        self.saved.append((designs.Design, "draw", designs.Design.draw))
        designs.Design.draw = self.tracer.wrap(designs.Design.draw, "designs.draw")
        self.saved.append((numpy.random, "default_rng", numpy.random.default_rng))
        numpy.random.default_rng = self.tracer.wrap(numpy.random.default_rng, "designs.rng")

    def remove(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def outermost_sum(spans: list[tuple], names, direct_only: bool = False) -> float:
    """Summed duration of spans named in ``names`` that have no ancestor
    also named in ``names`` (so nested calls are not counted twice).
    With ``direct_only``, spans opened inside a bounds or spectral call
    (the certification every bound construction runs) are left out."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        parent = s[3]
        if direct_only and parent >= 0 and spans[parent][0].split(".")[0] in ("bounds", "spectral"):
            continue
        nested = False
        while parent >= 0:
            if spans[parent][0] in names:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            total += s[2] - s[1]
    return total


def mean_us(spans: list[tuple], name: str) -> float:
    ds = [s[2] - s[1] for s in spans if s[0] == name]
    return 1e6 * sum(ds) / len(ds) if ds else 0.0


def span_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer figures for one traced unit (0 where a layer is unused)."""

    def total(*names, direct_only=False):
        return outermost_sum(spans, names, direct_only)

    own = self_times(spans)
    draws = sum(1 for s in spans if s[0] == "designs.draw")
    drawing = total("designs.rng") + total("designs.draw")
    m = {
        "designs.build_s": total(*BUILD_SPANS),
        "designs.probabilities_s": total("designs.inclusion_probabilities",
                                         "designs.joint_probabilities"),
        "designs.design_matrix_s": total("designs.first_order_design_matrix"),
        "designs.draw_us": 1e6 * drawing / draws if draws else 0.0,
        "bounds.as_s": total("bounds.as"),
        "bounds.neyman_s": total("bounds.neyman"),
        "bounds.algm_s": total("bounds.algm"),
        "bounds.certify_s": total("bounds.certify", direct_only=True),
        "spectral.psd_check_s": total("spectral.eigen_psd_check", direct_only=True),
        "spectral.compare_s": total("spectral.compare_designs", "spectral.compare_bounds"),
        "bound_estimation.ipw_s": total("bound_estimation.ipw_bound_matrix"),
        "bound_estimation.plugin_us": mean_us(spans, "bound_estimation.plugin_bound_estimate"),
        "estimators.point_us": mean_us(spans, "estimators.point_estimate"),
        "estimators.linearization_s": total("estimators.linearization_vector",
                                            "estimators.linearized_estimator"),
        "estimators.taylor_gap_s": total("estimators.taylor_gap"),
        "simulate.run_scenario_s": total("simulate.run_scenario"),
        "simulate.self_s": sum(o for s, o in zip(spans, own) if s[0] == "simulate.run_scenario"),
        "simulate.sweep_s": total("simulate.consistency_sweep"),
        "conditions.first_order_s": total("conditions.first_order_condition_norm"),
        "conditions.second_order_s": total("conditions.second_order_condition_norm"),
        "serialization.write_s": total("serialization.write_matrix_csv",
                                       "serialization.write_vector_csv"),
        "serialization.read_s": total("serialization.read_matrix_csv",
                                      "serialization.read_vector_csv"),
    }
    for command in ("design", "bound", "compare", "estimate", "simulate"):
        m[f"cli.{command}_s"] = total(f"cli.{command}")
    for layer in LAYERS:
        m[f"self.{layer}_s"] = sum(o for s, o in zip(spans, own) if s[0].split(".")[0] == layer)
    m["trace.covered_s"] = sum(s[2] - s[1] for s in spans if s[3] < 0)
    m["trace.spans"] = len(spans)
    return m

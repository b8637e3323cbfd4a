"""One workload process, started by run.py.

Generates the workload's inputs, prints ``{"ready": <monotonic time>}``
with ``--setup-only``, and otherwise runs units of work for the given
number of seconds and prints one JSON result line.  With ``--trace 1``
the first half of the time runs untraced units and the second half
traced ones (library functions wrapped, see tracing.py); the difference
of their wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def _throughput(units: list[dict], ops: tuple[str, ...], count_keys: tuple[str, ...]) -> float:
    seconds = sum(u["ops"].get(op, 0.0) for u in units for op in ops)
    work = sum(u["counts"].get(key, 0) for u in units for key in count_keys)
    return work / seconds if seconds > 0 else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import designvar

    if not Path(designvar.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"designvar imported from {designvar.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import numpy as np

    from tracing import Patches, Tracer, span_metrics
    from workloads import WORKLOADS, Ctx, import_seconds

    workdir = OUT / f"work-{args.workload}-{time.time_ns()}"
    tracer = Tracer()
    ctx = Ctx(tracer)
    workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
    try:
        workload.setup()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        def run_unit(traced: bool) -> dict:
            tracer.reset()
            ctx.excluded_s = 0.0
            t0 = time.perf_counter()
            counts = workload.unit(ctx)
            wall = time.perf_counter() - t0 - ctx.excluded_s
            ops: dict[str, float] = {}
            spans = tracer.spans()
            for name, start, end, parent in spans:
                if parent < 0:
                    ops[name] = ops.get(name, 0.0) + (end - start)
            steps = [end - start for _, start, end, parent in spans if parent < 0]
            unit = {"wall": wall, "traced": traced, "counts": counts, "ops": ops, "steps": steps}
            if traced:
                unit["layers"] = span_metrics(spans)
                unit["spans"] = spans
            return unit

        def run_units(traced: bool, until: float) -> None:
            """Units until ``until`` seconds have passed, at least one."""
            while True:
                units.append(run_unit(traced))
                if time.perf_counter() - start >= until:
                    return

        units: list[dict] = []
        start = time.perf_counter()
        run_units(False, args.seconds / 2 if args.trace else args.seconds)
        if args.trace:
            patches = Patches(tracer)
            patches.install()
            try:
                run_units(True, args.seconds)
            finally:
                patches.remove()
        tracer.reset()
        extra = workload.finish(ctx)

        plain = [u for u in units if not u["traced"]]
        traced = [u for u in units if u["traced"]]
        counts = units[0]["counts"]
        for i, unit in enumerate(units[1:], start=1):
            for key in counts:
                if unit["counts"].get(key) != counts[key]:
                    ctx.fail(f"count {key} differs between units 0 and {i}: "
                             f"{counts[key]} vs {unit['counts'].get(key)}")
        if len({u["layers"]["trace.spans"] for u in traced}) > 1:
            ctx.fail("count trace.spans differs between traced units")
        _compare_with_earlier_runs(args, counts, ctx)

        result = {
            "ready": ready,
            "walls": [u["wall"] for u in plain],
            "fastest_pass": _fastest_pass(plain),
            "steps": [u["steps"] for u in plain],
            # the larger of the worker and its largest CLI subprocess
            "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
            "attempted": ctx.attempted,
            "failed": ctx.failed,
            "failures": ctx.failures,
            "counts": counts,
            "throughput": {name: _throughput(plain, ops, keys)
                           for name, (ops, keys) in workload.throughput.items()},
            "numpy": np.__version__,
            "extra": extra,
        }
        if args.trace:
            result["layers"] = _layer_metrics(traced, plain, counts, result["throughput"])
            result["layers"]["cli.import_s"] = import_seconds()
            _write_spans(args, traced[-1]["spans"])
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _fastest_pass(units: list[dict]) -> float:
    """A unit's wall time with every step at its fastest.

    The i-th root span of every unit is the same library call or CLI
    command, so this is the sum over i of the shortest i-th span, plus
    the shortest time a unit spent outside root spans.  Units whose
    steps differ (a failed step) fall back to the fastest whole unit.
    """
    steps = [u["steps"] for u in units]
    if len({len(s) for s in steps}) != 1:
        return min(u["wall"] for u in units)
    outside = min(u["wall"] - sum(s) for u, s in zip(units, steps))
    return sum(min(column) for column in zip(*steps)) + max(outside, 0.0)


def _layer_metrics(traced, plain, counts, throughput) -> dict:
    mean = statistics.fmean
    layers = {key: mean(u["layers"][key] for u in traced) for key in traced[0]["layers"]}
    wall = mean(u["wall"] for u in traced)
    covered = layers.pop("trace.covered_s")
    layers["trace.wall_s"] = wall
    layers["trace.uncovered_s"] = wall - covered
    layers["trace.overhead_s"] = wall - mean(u["wall"] for u in plain)
    draws = counts.get("simulate.draws", 0)
    for key in ("designs.kn", "designs.support_points", "designs.distinct_d_values",
                "bounds.algm_iterations", "serialization.bytes_written", "simulate.draws",
                "simulate.infeasible_draws", "simulate.negative_bounds"):
        layers[key] = counts.get(key, 0)
    layers["simulate.infeasible_share"] = counts.get("simulate.infeasible_draws", 0) / draws \
        if draws else 0.0
    layers["simulate.negative_bound_share"] = counts.get("simulate.negative_bounds", 0) / draws \
        if draws else 0.0
    for name in ("draws_per_s", "points_per_s"):
        layers[f"simulate.{name}"] = throughput.get(name, 0.0)
    return layers


def _compare_with_earlier_runs(args, counts: dict, ctx) -> None:
    """Exact counts of one seed must repeat across runs of the same
    program and benchmark, not only across the units of one run."""
    program = hashlib.sha256()
    for path in sorted((ROOT / "src" / "designvar").rglob("*.py")) + sorted(HERE.glob("*.py")):
        program.update(path.read_bytes())
    name = f"{args.workload}-{args.size}-seed{args.seed}-{program.hexdigest()[:12]}.json"
    path = OUT / "counts" / name
    if path.exists():
        earlier = json.loads(path.read_text())
        for key in sorted(set(earlier) | set(counts)):
            if earlier.get(key) != counts.get(key):
                ctx.fail(f"count {key} differs from an earlier run of seed {args.seed}: "
                         f"{earlier.get(key)} vs {counts.get(key)}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))


def _write_spans(args, spans) -> None:
    path = OUT / "spans" / f"{args.workload}-{args.size}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-{time.time_ns()}"
    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({"run_id": run_id, "names": names, "fields": ["name", "start", "end", "parent"],
                   "spans": [[index[s[0]], s[1], s[2], s[3]] for s in spans]}, fh)


if __name__ == "__main__":
    sys.exit(main())

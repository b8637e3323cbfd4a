"""designvar benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (estimate-large or simulate-cli) in
a worker process built from this checkout's ``src/``, checks its
outputs, prints every metric by name with its unit, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are BENCHMARK.json's end-to-end ones, with
``--trace 1`` its per-layer ones (from a separate traced run).

``setup_s`` is process start to the first timed call (interpreter start,
``import designvar``, input generation), the median over the main
worker and twelve set-up-only workers, half of them started before it
and half after.  ``wall_s`` is the fastest pass of the run: a unit's
wall time with each of its steps at the fastest the run saw (see
NOTES.md for why not the median).  ``--size tiny`` shrinks every
workload for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_WORKERS = 12
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    """One BLAS/OpenMP thread (at most nproc, and no spinning helper
    thread on a shared core), designvar from this checkout."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args, env: dict, deadline: float, *extra: str) -> tuple[float, dict]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, *extra]
    started = time.monotonic()
    # own process group, so a timeout also ends the worker's CLI subprocesses
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return started, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("estimate-large", "simulate-cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "designvar" / "__init__.py").is_file():
        return _fail(f"no designvar sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    env = _child_env()

    def probe_setup() -> float:
        started, probe = _worker(args, env, deadline, "--setup-only")
        return probe["ready"] - started

    try:
        setups = [probe_setup() for _ in range(SETUP_ONLY_WORKERS // 2)]
        started, result = _worker(args, env, deadline)
        setups.append(result["ready"] - started)
        setups += [probe_setup() for _ in range(SETUP_ONLY_WORKERS - SETUP_ONLY_WORKERS // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return _fail(f"{args.workload}: {exc}")

    values = dict(result.get("layers", {}))
    values.update(
        setup_s=statistics.median(setups),
        wall_s=result["fastest_pass"],
        peak_rss_mb=result["peak_rss_mb"],
    )
    environment = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "nproc": nproc, "python": platform.python_version(), "numpy": result["numpy"],
        "git_sha": _git_sha(),
        "threads": {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS")},
    }
    attempted, failed = result["attempted"], result["failed"]
    print("# " + " ".join(f"{k}={v}" for k, v in environment.items()))
    print(f"# units={len(result['walls'])} unit_median_s={statistics.median(result['walls'])} "
          f"unit_fastest_s={min(result['walls'])} setup_samples={len(setups)}")
    for message in result["failures"]:
        print(f"# failure: {message}")
    print(f"error_rate = {failed / attempted if attempted else 1.0} ({failed}/{attempted})")
    for name, rate in result["throughput"].items():
        print(f"{name} = {rate} 1/s")
    for design, ops in result["extra"].get("per_design", {}).items():
        print(f"# {design}: " + " ".join(f"{op}={sec:.4f}s" for op, sec in ops.items()))
    metrics = {}
    for m in metrics_spec:
        if m["name"] not in values:
            return _fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]} {m['unit']}")

    record = {"environment": environment, "counts": result["counts"], "metrics": metrics,
              "attempted": attempted, "failed": failed, "failures": result["failures"],
              "walls": result["walls"], "steps": result["steps"], "setups": setups,
              "extra": result["extra"]}
    out = ROOT / ".perfbench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

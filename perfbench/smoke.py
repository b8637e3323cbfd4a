"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload with ``--size tiny`` untraced and traced, and checks
that the result line has exactly the agreed keys, that every metric
BENCHMARK.json names is emitted with its unit, that outputs are correct
and exact counts repeat (the traced run re-checks the untraced run's
counts for the same seed), that the traced run's per-layer self times
plus the uncovered remainder add up to its wall time, and that the
benchmark refuses to run in a directory without the designvar sources.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run("perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise SystemExit(f"{where}: outputs not correct\n{proc.stdout}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise SystemExit(f"{where}: bad metric {m['name']}: {got}")
        if f"{m['name']} = " not in proc.stdout:
            raise SystemExit(f"{where}: {m['name']} not printed by name")
    if trace:
        value = {name: got["value"] for name, got in metrics.items()}
        parts = sum(v for k, v in value.items() if k.startswith("self.")) + value["trace.uncovered_s"]
        if not math.isclose(parts, value["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-12):
            raise SystemExit(f"{where}: self times {parts} do not add up to {value['trace.wall_s']}")
    else:
        if any(metrics[m["name"]]["value"] <= 0 for m in wanted):
            raise SystemExit(f"{where}: an end-to-end metric is not positive")
    print(f"ok  {where}: {len(metrics)} metrics, {result['attempted']} operations")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("perfbench/run.py", "--workload", "estimate-large", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit("benchmark ran without the designvar sources")
    print("ok  refuses to run without src/designvar")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())

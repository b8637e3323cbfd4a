"""The benchmark workloads: estimate-large and simulate-cli.

Each workload generates its inputs from the benchmark seed in
``setup`` (untimed apart from counting towards set-up time), then runs
identical units of work.  Every call into the library goes through
``Ctx.call``, which times it as a root span and counts it as an
attempted operation; output checks go through ``Ctx.check`` inside
``Ctx.excluded()`` windows, whose time is taken out of the unit's wall
time.  A unit returns exact counts that must repeat from unit to unit.

Why (see NOTES.md for the full rationale):

* estimate-large: spec -> SE at kn ~ 100 over a family mix; the exact
  ``Fraction`` work in designs, bounds and bound_estimation dominates,
  and the custom design has thousands of distinct d values where the
  other families have a handful.
* simulate-cli runs three parts back to back:
  - mc-small: seeded Monte Carlo replicates (400 per estimator) on a
    small paired design; the per-draw path with RNG dominates;
  - exact-enum: probability-weighted enumeration of whole supports plus
    condition norms and a consistency sweep; per-draw work without RNG;
  - cli-chain: the command line run as subprocesses, covering the cli
    and file layers and the per-process import cost.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import designvar as dv
from designvar import serialization


class StepFailed(Exception):
    """An operation failed; the rest of its step is skipped."""


class Ctx:
    """Per-run bookkeeping shared by a workload's units."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.excluded_s = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        """One attempted operation, recorded as a root span."""
        self.attempted += 1
        idx = self.tracer.open(name)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any library error is a failed operation
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            raise StepFailed(name) from exc
        finally:
            self.tracer.close(idx)

    def check(self, ok: bool, what: str) -> bool:
        """One output check, counted as an operation."""
        self.attempted += 1
        if not ok:
            self.fail(f"check failed: {what}")
        return bool(ok)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)
            print(f"[perfbench] {message}", file=sys.stderr)

    @contextlib.contextmanager
    def excluded(self):
        """Output checks: not part of the unit's wall time, no spans."""
        t0 = time.perf_counter()
        self.tracer.suspended = True
        try:
            yield
        finally:
            self.tracer.suspended = False
            self.excluded_s += time.perf_counter() - t0


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(float(v)) for v in values)


def _distinct_frac(frac) -> int:
    return len({x for row in frac for x in row})


# ---------------------------------------------------------------------------
# closed forms of d, written from the definitions, independent of designvar


def _d_complete(counts, a, b) -> Fraction:
    n = sum(counts)
    r, i, s, j = a // n, a % n, b // n, b % n
    if i == j:
        return Fraction(n, counts[r]) - 1 if r == s else Fraction(-1)
    if r == s:
        return Fraction((counts[r] - 1) * n, counts[r] * (n - 1)) - 1
    return Fraction(n, n - 1) - 1


def _d_paired(n, a, b) -> Fraction:
    r, i, s, j = a // n, a % n, b // n, b % n
    if i // 2 != j // 2:
        return Fraction(0)
    same_unit = i == j
    same_arm = r == s
    return Fraction(1) if same_unit == same_arm else Fraction(-1)


def _d_bernoulli(p1: Fraction, n, a, b) -> Fraction:
    r, i, s, j = a // n, a % n, b // n, b % n
    if i != j:
        return Fraction(0)
    pi = (1 - p1, p1)
    return 1 / pi[r] - 1 if r == s else Fraction(-1)


def _d_cluster(size, cluster_counts, n, a, b) -> Fraction:
    r, i, s, j = a // n, a % n, b // n, b % n
    m = sum(cluster_counts)
    return _d_complete(cluster_counts, r * m + i // size, s * m + j // size)


def _d_custom(support, n, a, b) -> Fraction:
    r, i, s, j = a // n, a % n, b // n, b % n
    pa = sum((p for arms, p in support if arms[i] == r), Fraction(0))
    pb = sum((p for arms, p in support if arms[j] == s), Fraction(0))
    pab = sum((p for arms, p in support if arms[i] == r and arms[j] == s), Fraction(0))
    return pab / (pa * pb) - 1


def _check_entries(k: int, n: int) -> list[tuple[int, int]]:
    kn = k * n
    entries = [(0, 0), (0, 1), (0, n), (0, n + 1), (1, n), (2, 5), (n - 1, kn - 1), (kn - 1, kn - 1)]
    if k == 3:
        entries += [(0, 2 * n), (2 * n + 1, n + 1)]
    return entries


# ---------------------------------------------------------------------------
# estimate-large


class EstimateLarge:
    name = "estimate-large"
    throughput: dict = {}

    SIZES = {
        "full": dict(two=25, three=(12, 12, 11), pairs=25, bern=50, clusters=(10, 5, 5),
                     custom_n=30, custom_points=60),
        "tiny": dict(two=5, three=(3, 3, 2), pairs=5, bern=10, clusters=(4, 2, 2),
                     custom_n=6, custom_points=12),
    }

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = self.SIZES[size]
        self.workdir = workdir

    def setup(self) -> None:
        z = self.size
        rng = np.random.default_rng(self.seed)
        n_cl, cl_size, cl_arm = z["clusters"]
        p1 = Fraction(1, 3)
        cn = z["custom_n"]
        points = []
        weights = rng.integers(1, 1000, size=z["custom_points"])
        total = int(weights.sum())
        for w in weights:
            points.append((rng.integers(0, 2, size=cn).tolist(), Fraction(int(w), total)))
        two = [z["two"], z["two"]]
        three = list(z["three"])
        pairs = [[2 * i, 2 * i + 1] for i in range(z["pairs"])]
        clusters = [list(range(g * cl_size, (g + 1) * cl_size)) for g in range(n_cl)]
        mc = {"mode": "mc", "seed": self.seed}
        n_pairs, n_bern, n_clustered = 2 * len(pairs), z["bern"], n_cl * cl_size
        # (name, spec, bound methods, k, n, closed form of d[a, b])
        self.designs = [
            ("complete-2", {"type": "complete", "counts": two, **mc}, ("as", "neyman"),
             2, sum(two), lambda a, b: _d_complete(two, a, b)),
            ("complete-3", {"type": "complete", "counts": three, **mc}, ("as",),
             3, sum(three), lambda a, b: _d_complete(three, a, b)),
            ("paired", {"type": "paired", "k": 2, "pairs": pairs, **mc}, ("as", "algm"),
             2, n_pairs, lambda a, b: _d_paired(n_pairs, a, b)),
            ("bernoulli", {"type": "bernoulli", "n": n_bern, "p": "1/3", **mc}, ("as",),
             2, n_bern, lambda a, b: _d_bernoulli(p1, n_bern, a, b)),
            ("cluster", {"type": "cluster", "k": 2, "clusters": clusters,
                         "cluster_design": {"type": "complete", "counts": [cl_arm, cl_arm]}, **mc},
             ("as",), 2, n_clustered,
             lambda a, b: _d_cluster(cl_size, [cl_arm, cl_arm], n_clustered, a, b)),
            ("custom", {"type": "custom", "k": 2, "n": cn, "seed": self.seed,
                        "support": [{"arms": arms, "prob": f"{p.numerator}/{p.denominator}"}
                                    for arms, p in points]},
             ("as", "algm"), 2, cn, lambda a, b: _d_custom(points, cn, a, b)),
        ]
        self.inputs = {}
        self.per_design: dict[str, dict[str, float]] = {}
        for name, _, _, k, n, _ in self.designs:
            y = rng.normal(0.0, 1.0, size=k * n) + np.repeat(np.arange(k, dtype=float), n)
            x = rng.normal(0.0, 1.0, size=(n, 2))
            contrast = np.zeros(k)
            contrast[0], contrast[1] = -1.0, 1.0
            self.inputs[name] = (y, x, contrast)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def unit(self, ctx: Ctx) -> dict:
        counts = dict.fromkeys(
            ("designs.kn", "designs.support_points", "designs.distinct_d_values",
             "bounds.algm_iterations", "serialization.bytes_written"), 0)
        kept = {}
        for index, (name, spec, methods, k, n, closed_form) in enumerate(self.designs):
            first = len(ctx.tracer.names)
            try:
                self._one_design(ctx, index, name, spec, methods, k, n, closed_form,
                                 counts, kept)
            except StepFailed:
                continue
            finally:
                ops = self.per_design[name] = {}
                for op, start, end, parent in ctx.tracer.spans(first):
                    if parent < 0:
                        ops[op] = ops.get(op, 0.0) + end - start
        if "complete-2" in kept and "paired" in kept:
            try:
                cmp = ctx.call("spectral.compare_designs", dv.compare_designs,
                               kept["complete-2"], kept["paired"])
                with ctx.excluded():
                    ctx.check(bool(np.all(np.isfinite(cmp.report.eigenvalues))),
                              "compare_designs eigenvalues finite")
            except StepFailed:
                pass
        return counts

    def _one_design(self, ctx, index, name, spec, methods, k, n, closed_form,
                    counts, kept) -> None:
        y, x, contrast = self.inputs[name]
        design = ctx.call("designs.build_design", dv.build_design, spec)
        pi = ctx.call("designs.inclusion_probabilities", dv.inclusion_probabilities, design)
        p = ctx.call("designs.joint_probabilities", dv.joint_probabilities, design)
        dmat, mask = ctx.call("designs.first_order_design_matrix",
                              dv.first_order_design_matrix, design)
        bounds = [ctx.call(f"bounds.{m}", dv.build_bound, m, dmat, mask, contrast=contrast)
                  for m in methods]
        ctx.call("bounds.certify", dv.certify, bounds[0], dmat, mask)
        psd = ctx.call("spectral.eigen_psd_check", dv.eigen_psd_check,
                       bounds[0].dtilde - dmat.d)
        ipw = ctx.call("bound_estimation.ipw_bound_matrix", dv.ipw_bound_matrix, bounds[0], p)
        rng = ctx.call("designs.rng", np.random.default_rng, (self.seed, index))
        arms = ctx.call("designs.draw", design.draw, rng)
        data = ctx.call("estimators.observe", dv.observe, dv.Assignment(design.layout, arms), y)
        spec_ols = dv.EstimatorSpec("ols", contrast, covariates=x)
        est = ctx.call("estimators.point_estimate", dv.point_estimate, spec_ols, data, pi)
        best = ctx.call("bound_estimation.plugin_bound_estimate", dv.plugin_bound_estimate,
                        spec_ols, data, pi, ipw, bound_method=bounds[0].method)
        written = {"p": p.p, "d": dmat.d, "mask": mask.mask.astype(int), "dtilde": bounds[0].dtilde}
        paths = {}
        for label, matrix in written.items():
            paths[label] = self.workdir / f"{name}-{label}.csv"
            ctx.call("serialization.write_matrix_csv", serialization.write_matrix_csv,
                     paths[label], matrix)
        read = {label: ctx.call("serialization.read_matrix_csv",
                                serialization.read_matrix_csv, path)
                for label, path in paths.items()}

        with ctx.excluded():
            for b in bounds:
                ctx.check(b.certified_bounding == "yes" and b.certified_identified == "yes",
                          f"{name} {b.method} certified yes/yes")
            ctx.check(psd.psd, f"{name} dtilde - d is PSD")
            masked = mask.mask == 1.0
            ctx.check(bool(np.all(dmat.d[masked] == -1.0))
                      and all(dmat.frac[a][b] == -1 for a, b in zip(*np.nonzero(masked))),
                      f"{name} d is exactly -1 at every masked entry")
            for a, b in _check_entries(k, n):
                want = closed_form(a, b)
                ctx.check(dmat.frac[a][b] == want and dmat.d[a, b] == float(want),
                          f"{name} d[{a},{b}] equals the closed form {want}")
            ctx.check(_finite(est, best.value), f"{name} point and bound estimates finite")
            for label, matrix in written.items():
                ctx.check(np.array_equal(read[label], np.asarray(matrix, dtype=float)),
                          f"{name} {label}.csv reads back bit-for-bit")
            counts["designs.kn"] = max(counts["designs.kn"], design.layout.kn)
            counts["designs.support_points"] += len(design.support or ())
            counts["designs.distinct_d_values"] += _distinct_frac(dmat.frac)
            counts["bounds.algm_iterations"] += sum(b.iterations or 0 for b in bounds)
            counts["serialization.bytes_written"] += sum(f.stat().st_size for f in paths.values())
            for path in paths.values():
                path.unlink()
        if name in ("complete-2", "paired"):
            kept[name] = dmat

    def finish(self, ctx: Ctx) -> dict:
        """Seconds per operation and design in the last unit."""
        return {"per_design": self.per_design}


# ---------------------------------------------------------------------------
# mc-small


class McSmall:
    name = "mc-small"
    SIZES = {"full": dict(pairs=10, replicates=400), "tiny": dict(pairs=3, replicates=200)}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = self.SIZES[size]

    def setup(self) -> None:
        pairs = self.size["pairs"]
        n = 2 * pairs
        rng = np.random.default_rng(self.seed)
        self.spec = {"type": "paired", "k": 2, "pairs": [[2 * i, 2 * i + 1] for i in range(pairs)]}
        self.y = rng.normal(0.0, 1.0, size=2 * n) + np.repeat([0.0, 1.0], n)
        self.x = rng.normal(0.0, 1.0, size=(n, 2))
        c = np.array([-1.0, 1.0])
        self.estimators = {"hj": dv.EstimatorSpec("hj", c),
                           "ols": dv.EstimatorSpec("ols", c, covariates=self.x)}
        self.reports = None

    def _scenario(self, design, kind: str, mode: str):
        return dv.SimScenario(design, self.y, self.estimators[kind], "as", mode=mode,
                              replicates=self.size["replicates"] if mode == "mc" else 0,
                              seed=self.seed if mode == "mc" else None)

    def unit(self, ctx: Ctx) -> dict:
        counts = {"designs.kn": 0, "designs.support_points": 0, "designs.distinct_d_values": 0,
                  "simulate.draws": 0, "simulate.infeasible_draws": 0, "simulate.negative_bounds": 0}
        design = ctx.call("designs.build_design", dv.build_design, self.spec)
        reports = {}
        for kind in self.estimators:
            try:
                reports[kind] = ctx.call("simulate.run_scenario_mc", dv.run_scenario,
                                         self._scenario(design, kind, "mc"))
            except StepFailed:
                continue
        with ctx.excluded():
            dmat, _ = dv.first_order_design_matrix(design)
            counts["designs.kn"] = design.layout.kn
            counts["designs.support_points"] = len(design.support)
            counts["designs.distinct_d_values"] = _distinct_frac(dmat.frac)
            for kind, rep in reports.items():
                counts["simulate.draws"] += self.size["replicates"]
                counts["simulate.infeasible_draws"] += rep.infeasible_count
                counts["simulate.negative_bounds"] += rep.negative_bound_count
            if self.reports is None:
                self.design, self.reports = design, reports
        return counts

    def finish(self, ctx: Ctx) -> dict:
        """Each MC mean within 4 MC standard errors of exact enumeration."""
        for kind, rep in (self.reports or {}).items():
            try:
                exact = ctx.call("simulate.run_scenario", dv.run_scenario,
                                 self._scenario(self.design, kind, "exact"))
            except StepFailed:
                continue
            for field in ("mean_estimate", "mean_bound_estimate", "coverage_95"):
                got, want, se = getattr(rep, field), getattr(exact, field), rep.mc_se[field]
                if field == "coverage_95":
                    # an MC coverage of exactly 0 or 1 has a zero sample SE
                    se = max(se, math.sqrt(want * (1.0 - want) / self.size["replicates"]))
                ctx.check(_finite(got, want, se) and abs(got - want) <= 4.0 * se + 1e-12,
                          f"{kind} MC {field} {got} within 4 SE ({se}) of exact {want}")
        return {}


# ---------------------------------------------------------------------------
# exact-enum


class ExactEnum:
    name = "exact-enum"
    SIZES = {
        "full": dict(designs=([5, 5], [3, 2, 2]), base=4, n_list=[8, 12, 24], cap=1000),
        "tiny": dict(designs=([3, 3], [2, 2, 2]), base=2, n_list=[4, 8], cap=20),
    }

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = self.SIZES[size]

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.cases = []
        for counts in self.size["designs"]:
            k, n = len(counts), sum(counts)
            y = rng.normal(0.0, 1.0, size=k * n) + np.repeat(np.arange(k, dtype=float), n)
            x = rng.normal(0.0, 1.0, size=(n, 2))
            c = np.zeros(k)
            c[0], c[1] = -1.0, 1.0
            specs = {"ht": dv.EstimatorSpec("ht", c), "hj": dv.EstimatorSpec("hj", c),
                     "ols": dv.EstimatorSpec("ols", c, covariates=x)}
            self.cases.append(({"type": "complete", "counts": list(counts)}, y, specs))
        base = self.size["base"]
        self.base_y = np.vstack([rng.normal(0.0, 1.0, size=base),
                                 rng.normal(1.0, 1.0, size=base)])
        self.sweep_spec = dv.EstimatorSpec("hj", np.array([-1.0, 1.0]))

    def unit(self, ctx: Ctx) -> dict:
        counts = dict.fromkeys(
            ("designs.kn", "designs.support_points", "designs.distinct_d_values",
             "simulate.draws", "simulate.infeasible_draws", "simulate.negative_bounds",
             "simulate.sweep_rows"), 0)
        for spec, y, specs in self.cases:
            try:
                self._one_design(ctx, spec, y, specs, counts)
            except StepFailed:
                continue
        try:
            rows = ctx.call("simulate.consistency_sweep", dv.consistency_sweep, self.sweep_spec,
                            self.base_y, self.size["n_list"], support_cap=self.size["cap"])
            with ctx.excluded():
                ctx.check(len(rows) == len(self.size["n_list"])
                          and all(_finite(*row.values()) for row in rows), "sweep rows finite")
                counts["simulate.sweep_rows"] = len(rows)
        except StepFailed:
            pass
        return counts

    def _one_design(self, ctx, spec, y, specs, counts) -> None:
        design = ctx.call("designs.build_design", dv.build_design, spec)
        reports = {kind: ctx.call("simulate.run_scenario", dv.run_scenario,
                                  dv.SimScenario(design, y, est, "as", mode="exact"))
                   for kind, est in specs.items()}
        gap = ctx.call("estimators.taylor_gap", dv.taylor_gap, specs["ols"], design, y)
        dmat, mask = ctx.call("designs.first_order_design_matrix",
                              dv.first_order_design_matrix, design)
        bound = ctx.call("bounds.as", dv.build_bound, "as", dmat, mask)
        first = ctx.call("conditions.first_order_condition_norm",
                         dv.first_order_condition_norm, dmat)
        second = ctx.call("conditions.second_order_condition_norm",
                          dv.second_order_condition_norm, design, bound.dtilde)
        with ctx.excluded():
            ht = reports["ht"]
            scale = 1.0 + float(np.max(np.abs(y)))
            ctx.check(abs(ht.bias) <= 1e-9 * scale, f"ht bias {ht.bias} is 0")
            ctx.check(abs(ht.mean_bound_estimate - ht.bound_value)
                      <= 1e-9 * max(1.0, abs(ht.bound_value)),
                      f"ht mean bound estimate {ht.mean_bound_estimate} equals "
                      f"the bound {ht.bound_value}")
            ctx.check(all(_finite(r.mean_estimate, r.bound_value, r.mean_bound_estimate)
                          for r in reports.values()), "scenario reports finite")
            ctx.check(bound.certified_bounding == "yes" and bound.certified_identified == "yes",
                      "as bound certified yes/yes")
            ctx.check(_finite(gap, first, second), "gap and condition norms finite")
            support = len(design.support)
            counts["designs.kn"] = max(counts["designs.kn"], design.layout.kn)
            counts["designs.support_points"] += support
            counts["designs.distinct_d_values"] += _distinct_frac(dmat.frac)
            for rep in reports.values():
                counts["simulate.draws"] += support
                counts["simulate.infeasible_draws"] += rep.infeasible_count
                counts["simulate.negative_bounds"] += rep.negative_bound_count

    def finish(self, ctx: Ctx) -> dict:
        return {}


# ---------------------------------------------------------------------------
# cli-chain


def _strict_json(path: Path):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class CliChain:
    name = "cli-chain"
    SIZES = {"full": dict(half=20, sim=(4, 4)), "tiny": dict(half=5, sim=(2, 2))}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = self.SIZES[size]
        self.workdir = workdir

    def setup(self) -> None:
        half = self.size["half"]
        n = 2 * half
        rng = np.random.default_rng(self.seed)
        w = self.workdir
        w.mkdir(parents=True, exist_ok=True)
        (w / "complete.json").write_text(json.dumps(
            {"type": "complete", "counts": [half, half], "mode": "mc", "seed": self.seed}))
        (w / "paired.json").write_text(json.dumps(
            {"type": "paired", "k": 2, "pairs": [[2 * i, 2 * i + 1] for i in range(half)],
             "mode": "mc", "seed": self.seed}))
        arms = rng.permutation(np.repeat([0, 1], half))
        y = rng.normal(0.0, 1.0, size=n) + arms
        rows = ["unit_id,arm_assigned,y_obs"] + [f"{i},{arms[i]},{float(y[i])!r}" for i in range(n)]
        (w / "observed.csv").write_text("\n".join(rows) + "\n")
        a, b = self.size["sim"]
        sim_y = rng.normal(0.0, 1.0, size=2 * (a + b)) + np.repeat([0.0, 1.0], a + b)
        (w / "scenario.json").write_text(json.dumps(
            {"design": {"type": "complete", "counts": [a, b]}, "y": sim_y.tolist(),
             "estimator": {"kind": "hj", "contrast": [-1, 1]}, "bound": "as", "mode": "exact"}))
        self.units_run = 0

    def _cli(self, *argv) -> None:
        proc = subprocess.run([sys.executable, "-m", "designvar.cli", *map(str, argv)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")

    def unit(self, ctx: Ctx) -> dict:
        w = self.workdir
        out = w / f"out{self.units_run}"
        self.units_run += 1
        steps = [
            ("cli.design", ("design", w / "complete.json", "--out", out / "cr")),
            ("cli.design", ("design", w / "paired.json", "--out", out / "pr")),
            ("cli.bound", ("bound", "--d", out / "cr" / "d.csv", "--mask", out / "cr" / "mask.csv",
                           "--method", "as", "--out", out / "bound")),
            ("cli.compare", ("compare", "--a", out / "cr" / "d.csv", "--b", out / "pr" / "d.csv",
                             "--as", "designs", "--out", out / "compare.json")),
            ("cli.estimate", ("estimate", "--design", w / "complete.json", "--data",
                              w / "observed.csv", "--estimator", "cm", "--contrast=-1,1",
                              "--bound", "as", "--out", out / "estimate.json")),
            ("cli.simulate", ("simulate", w / "scenario.json", "--out", out / "sim")),
        ]
        for name, argv in steps:
            try:
                ctx.call(name, self._cli, *argv)
            except StepFailed:
                continue
        counts = dict.fromkeys(("designs.kn", "designs.support_points", "designs.distinct_d_values",
                                "simulate.draws", "serialization.bytes_written"), 0)
        with ctx.excluded():
            docs = {}
            for label in ("cr/design.json", "pr/design.json", "bound/certification.json",
                          "compare.json", "estimate.json", "sim/report.json"):
                try:
                    docs[label] = _strict_json(out / label)
                    ctx.check(True, f"{label} parses")
                except (OSError, ValueError) as exc:
                    ctx.check(False, f"{label} parses without NaN: {exc}")
            cert = docs.get("bound/certification.json", {})
            ctx.check(cert.get("certified_bounding") == "yes"
                      and cert.get("certified_identified") == "yes", "cli bound certified yes/yes")
            est = docs.get("estimate.json", {})
            ctx.check(_finite(est.get("point_estimate"), est.get("bound_estimate")),
                      "cli estimate finite")
            for label in ("cr/design.json", "pr/design.json"):
                doc = docs.get(label, {})
                counts["designs.kn"] = max(counts["designs.kn"], doc.get("k", 0) * doc.get("n", 0))
            for label in ("cr", "pr"):
                d_csv = out / label / "d.csv"
                if d_csv.exists():
                    values = d_csv.read_text().splitlines()[1:]
                    counts["designs.distinct_d_values"] += len(
                        {v for line in values for v in line.split(",")})
            report = docs.get("sim/report.json", {})
            counts["simulate.draws"] = report.get("replicates", 0) + report.get("infeasible_count", 0)
            counts["designs.support_points"] = counts["simulate.draws"]
            counts["serialization.bytes_written"] = sum(
                p.stat().st_size for p in out.rglob("*.csv"))
            shutil.rmtree(out, ignore_errors=True)
        return counts

    def finish(self, ctx: Ctx) -> dict:
        return {}


# ---------------------------------------------------------------------------
# simulate-cli


class SimulateCli:
    """mc-small, exact-enum and cli-chain run back to back as one unit.

    Kept as one workload so that a run of the time budget holds several
    units (see NOTES.md, noise).  Counts are kept per part under
    "<part>/<count>" and combined under the plain name (largest kn,
    everything else summed).
    """

    name = "simulate-cli"
    throughput = {
        # MC replicates per second of MC run_scenario
        "draws_per_s": (("simulate.run_scenario_mc",), ("mc-small/simulate.draws",)),
        # support points per second of exact run_scenario plus taylor_gap
        "points_per_s": (("simulate.run_scenario", "estimators.taylor_gap"),
                         ("exact-enum/simulate.draws", "exact-enum/designs.support_points")),
    }

    def __init__(self, seed: int, size: str, workdir: Path):
        self.parts = [McSmall(seed, size, workdir), ExactEnum(seed, size, workdir),
                      CliChain(seed, size, workdir)]

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def unit(self, ctx: Ctx) -> dict:
        merged: dict[str, int] = {}
        for part in self.parts:
            for key, value in part.unit(ctx).items():
                merged[f"{part.name}/{key}"] = value
                if key == "designs.kn":
                    merged[key] = max(merged.get(key, 0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged

    def finish(self, ctx: Ctx) -> dict:
        extra = {}
        for part in self.parts:
            extra.update(part.finish(ctx))
        return extra


WORKLOADS = {cls.name: cls for cls in (EstimateLarge, SimulateCli)}


def import_seconds(repeats: int = 3) -> float:
    """Median wall time of ``python -c "import designvar"``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import designvar"], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)

"""The CLI's input contract, probed with generated inputs through ``cli.main``.

Every run must end in one of the documented ways: exit 0 with strict,
finite JSON, or exit 2 (validation) or 3 (numerical failure) with exactly
one stderr line, and never a traceback.  The inputs cover the six design
families with k = 2 and 3, every estimator kind and ``weights`` form,
every bound, exact and Monte Carlo modes, y scaled by 10^+-6, and
``bound`` run on ``design``'s output with ``--mask`` given, omitted or
zeroed.  Examples are derandomized and few, so the probe is repeatable
and quick.
"""

import contextlib
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import designvar as dv
from designvar import serialization as ser
from designvar.cli import main

PROBE = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                 suppress_health_check=list(HealthCheck))


def design_specs(k: int):
    """Small specs of every family with k arms; some are not identified (an
    arm count of 0, a probability row with a 0 or a negative last entry)."""
    rows = st.lists(st.sampled_from(["1/4", "1/3", "1/3", "1/2", "2/3", "0"][:7 - k]),
                    min_size=k - 1, max_size=k - 1).map(
        lambda row: row + [str(1 - sum(map(Fraction, row)))])
    complete = st.lists(st.sampled_from([1, 1, 2, 2, 3, 0]), min_size=k, max_size=k).map(
        lambda counts: {"type": "complete", "counts": counts})
    paired = st.integers(1, 2).map(lambda m: {  # the second pair lists its units backwards
        "type": "paired", "k": k, "pairs": [list(range(k * i, k * i + k))[::-1 if i else 1]
                                            for i in range(m)]})
    bernoulli = (st.tuples(st.sampled_from(["1/3", "1/2", 0.25]), st.integers(1, 4)).map(
        lambda pn: {"type": "bernoulli", "n": pn[1], "p": pn[0]}) if k == 2 else
        st.lists(rows, min_size=1, max_size=4).map(lambda r: {"type": "bernoulli", "probs": r}))
    block = st.tuples(st.integers(1, 2), rows).map(lambda size_row: {
        "type": "block", "k": k, "blocks": [
            {"units": list(range(k)), "type": "complete", "counts": [1] * k},
            {"units": list(range(k, k + size_row[0])), "type": "bernoulli",
             "probs": [size_row[1]] * size_row[0]}]})
    cluster = st.lists(st.integers(1, 2), min_size=k, max_size=k + 1).map(lambda sizes: {
        "type": "cluster", "k": k,
        "clusters": [list(range(sum(sizes[:g]), sum(sizes[:g + 1]))) for g in range(len(sizes))],
        "cluster_design": {"type": "complete",
                           "counts": [1] * (k - 1) + [len(sizes) - k + 1]}})
    custom = st.lists(st.lists(st.integers(0, k - 1), min_size=3, max_size=3),
                      min_size=1, max_size=4, unique_by=tuple).map(lambda points: {
        "type": "custom", "k": k, "n": 3,
        "support": [{"arms": a, "prob": f"1/{len(points)}"} for a in points]})
    return st.one_of(complete, paired, bernoulli, block, cluster, custom)


@st.composite
def problems(draw):
    """(spec, built design or None, k, contrast)."""
    k = draw(st.sampled_from([2, 3]))
    spec = draw(design_specs(k))
    try:
        design = dv.build_design(spec)
        dv.inclusion_probabilities(design)
    except dv.ValidationError:
        design = None
    # mostly valid; a zero entry, a nonzero sum and a wrong length exit 2 where they matter
    valid = [[-1.0, 1.0], [1.0, -1.0]] if k == 2 else [[1.0, -0.5, -0.5], [-1.0, 0.5, 0.5]]
    invalid = [[0.0, 1.0], [1.0, -1.0, 0.0]] if k == 2 else [[-1.0, 1.0, 0.0], [-1.0, 1.0]]
    contrast = draw(st.sampled_from(valid * 4 + invalid))
    return spec, design, k, contrast


def estimators(draw, design, k, contrast):
    kind = draw(st.sampled_from(["ht", "cm", "hj", "ols", "wls"]))
    est = {"kind": kind, "contrast": contrast}
    n = design.layout.n if design is not None else 3
    if kind in ("ols", "wls") and draw(st.booleans()):
        est["covariates"] = [[float(i % 2) + 0.5 * i] for i in range(n)]
    if kind == "wls":
        form = draw(st.sampled_from(["missing", "identity", "invpi", "list", "file"]))
        if form == "list":
            est["weights"] = [1.0 + (i % 3) for i in range(k * n)]
        elif form != "missing":
            est["weights"] = form
    return est


def run(argv):
    """(exit code, stderr) of ``main(argv)``; an exception escapes as a failure."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def check_outcome(code, stderr, out: Path):
    assert code in (0, 2, 3), (code, stderr)
    assert "Traceback" not in stderr
    if code:
        assert stderr.endswith("\n") and stderr.count("\n") == 1, stderr
        return
    for path in out.rglob("*.json"):
        def finite(value, path=path):
            assert not isinstance(value, float) or math.isfinite(value), (path, value)
            for item in (value.values() if isinstance(value, dict) else
                         value if isinstance(value, list) else ()):
                finite(item)
        finite(json.loads(path.read_text(), parse_constant=float))


@PROBE
@given(st.data())
def test_simulate_keeps_the_contract(data):
    spec, design, k, contrast = data.draw(problems())
    n = design.layout.n if design is not None else 3
    scale = data.draw(st.sampled_from([1.0, 1e-6, 1e6]))
    y = [scale * ((i * 7919) % 13 - 6.0) / 3.0 for i in range(k * n)]
    scenario = {"design": spec, "y": y, "estimator": estimators(data.draw, design, k, contrast)}
    bound = data.draw(st.sampled_from(["missing", None, "as", "algm", "neyman"]))
    if bound != "missing":
        scenario["bound"] = bound
    if data.draw(st.booleans()):
        scenario.update(mode="mc", replicates=data.draw(st.integers(1, 30)), seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        weights = scenario["estimator"].get("weights")
        if weights == "file":
            ser.write_vector_csv(tmp / "w.csv", np.linspace(1.0, 2.0, k * n))
            scenario["estimator"]["weights"] = str(tmp / "w.csv")
        (tmp / "scenario.json").write_text(json.dumps(scenario))
        code, stderr = run(["simulate", tmp / "scenario.json", "--out", tmp / "out"])
        check_outcome(code, stderr, tmp / "out")


@PROBE
@given(st.data())
def test_estimate_keeps_the_contract(data):
    spec, design, k, contrast = data.draw(problems())
    if design is None:
        return
    layout = design.layout
    arms = design.draw(np.random.default_rng(data.draw(st.integers(0, 2**16))))
    scale = data.draw(st.sampled_from([1.0, 1e-6, 1e6]))
    est = estimators(data.draw, design, k, contrast)
    bound = data.draw(st.sampled_from(["as", "algm", "neyman"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "spec.json").write_text(json.dumps(spec))
        rows = "".join(f"{i},{a},{scale * (a + 0.25 * i)!r}\n" for i, a in enumerate(arms.tolist()))
        (tmp / "obs.csv").write_text("unit_id,arm_assigned,y_obs\n" + rows)
        argv = ["estimate", "--design", tmp / "spec.json", "--data", tmp / "obs.csv",
                "--estimator", est["kind"], f"--contrast={','.join(map(str, contrast))}",
                "--bound", bound, "--out", tmp / "out" / "report.json"]
        if "covariates" in est:
            x = "".join(f"{i},{row[0]!r}\n" for i, row in enumerate(est["covariates"]))
            (tmp / "x.csv").write_text("unit_id,x1\n" + x)
            argv += ["--covariates", tmp / "x.csv"]
        weights = est.get("weights")
        if weights in ("identity", "invpi"):
            argv += ["--weights", weights]
        elif weights is not None:  # a list or a file: both go through a vector CSV
            ser.write_vector_csv(tmp / "w.csv", np.linspace(1.0, 2.0, layout.kn))
            argv += ["--weights", tmp / "w.csv"]
        (tmp / "out").mkdir()
        code, stderr = run(argv)
        check_outcome(code, stderr, tmp / "out")


@PROBE
@given(st.data())
def test_bound_keeps_the_contract(data):
    spec, design, k, contrast = data.draw(problems())
    method = data.draw(st.sampled_from(["as", "algm", "neyman", "verify"]))
    mask = data.draw(st.sampled_from(["given", "omitted", "zeroed"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "spec.json").write_text(json.dumps(spec))
        code, stderr = run(["design", tmp / "spec.json", "--out", tmp / "design"])
        check_outcome(code, stderr, tmp / "design")
        if code:
            return
        d = tmp / "design" / "d.csv"
        argv = ["bound", "--d", d, "--method", method, "--out", tmp / "out"]
        if mask == "given":
            argv += ["--mask", tmp / "design" / "mask.csv"]
        elif mask == "zeroed":
            kn = design.layout.kn
            ser.write_matrix_csv(tmp / "zero.csv", np.zeros((kn, kn), dtype=int))
            argv += ["--mask", tmp / "zero.csv"]
        if method == "neyman":
            argv.append(f"--contrast={','.join(map(str, contrast))}")
        if method == "verify":
            argv += ["--candidate", d if data.draw(st.booleans()) else tmp / "design" / "p.csv"]
        code, stderr = run(argv)
        check_outcome(code, stderr, tmp / "out")
        if code == 0 and mask == "zeroed" and method in ("as", "algm"):
            verdict = json.loads((tmp / "out" / "certification.json").read_text())
            impossible = ser.read_matrix_csv(tmp / "design" / "mask.csv").any()
            assert verdict["certified_identified"] == ("no" if impossible else "yes")

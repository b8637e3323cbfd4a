"""Command-line interface.

Subcommands: design, bound, estimate, compare, simulate.  All input and
output is file-based (CSV matrices, JSON sidecars); see docs/formats.md.
Exit codes: 0 success, 2 validation error, 3 numerical failure.  On
exit 0 stderr holds zero or more ``warning:`` lines, one per distinct
warning (ill-conditioned solves share one); on exit 2 or 3 it holds one
line, the error.

A process pays for what its subcommand runs and little else.  Each
``cmd_*`` function imports the library modules it needs, so ``design``
loads only ``designs``, ``errors`` and ``serialization``.  The console
script and ``python -m designvar.cli`` enter through ``run``, which
exits without interpreter teardown once ``main`` has returned;
``main`` itself only returns the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import serialization as ser
from .designs import (
    DesignMatrix,
    ImpossibilityMask,
    IndexLayout,
    PiDiagonal,
    _listed,
    build_design,
    first_order_design_matrix,
    inclusion_probabilities,
    joint_probabilities,
    spec_field,
    spec_int,
)
from .errors import (IllConditionedWarning, InfeasiblePointsWarning, NumericalError,
                     ValidationError)

if TYPE_CHECKING:
    from .estimators import EstimatorSpec


def _parse_contrast(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise ValidationError(f"bad contrast {text!r}: {exc}") from exc


def _layout_for_matrix(matrix: np.ndarray, path, k: int | None) -> IndexLayout:
    """Layout of a kn x kn matrix, k from --k and the design.json written beside it."""
    sidecar = Path(path).parent / "design.json"
    recorded = (spec_field(ser.read_json(sidecar), "k", str(sidecar), None, spec_int)
                if sidecar.is_file() else None)
    if k is None and recorded is None:
        raise ValidationError(f"arm count unknown: pass --k or keep design.json beside {path}")
    if k is not None and recorded is not None and k != recorded:
        raise ValidationError(f"--k {k} disagrees with k={recorded} in {sidecar}")
    k = k if k is not None else recorded
    if k < 2:
        raise ValidationError(f"arm count k must be >= 2, got {k}")
    kn = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {matrix.shape}")
    if kn % k:
        raise ValidationError(f"matrix size {kn} is not divisible by k={k}")
    return IndexLayout(k, kn // k)


def cmd_design(args) -> int:
    design = build_design(ser.read_json(args.spec))
    pi = inclusion_probabilities(design)
    p = joint_probabilities(design)
    dmat, mask = first_order_design_matrix(design)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ser.write_vector_csv(out / "pi.csv", pi.probs)
    ser.write_matrix_csv(out / "p.csv", p.p)
    ser.write_matrix_csv(out / "d.csv", dmat.d)
    ser.write_matrix_csv(out / "mask.csv", mask.mask.astype(int))
    ser.write_json(out / "design.json", ser.design_summary(design))
    print(f"wrote pi.csv, p.csv, d.csv, mask.csv, design.json to {out}")
    return 0


def cmd_bound(args) -> int:
    from .bounds import build_bound, certify, user_bound

    d = ser.read_matrix_csv(args.d)
    layout = _layout_for_matrix(d, args.d, args.k)
    dmat = DesignMatrix(layout, d)
    mask = None if args.mask is None else ImpossibilityMask(layout, ser.read_matrix_csv(args.mask))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.method == "verify":
        if args.candidate is None:
            raise ValidationError("--method verify requires --candidate")
        bound = user_bound(ser.read_matrix_csv(args.candidate), layout)
        certify(bound, dmat, mask, tol=args.tol)
    else:
        contrast = _parse_contrast(args.contrast) if args.contrast else None
        bound = build_bound(args.method, dmat, mask, contrast=contrast, tol=args.tol,
                            max_iter=args.max_iter)
        ser.write_matrix_csv(out / "dtilde.csv", bound.dtilde)
    ser.write_json(out / "certification.json", ser.bound_sidecar(bound, args.tol))
    print(
        f"bound method={bound.method} bounding={bound.certified_bounding} "
        f"identified={bound.certified_identified}"
    )
    return 0


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _weights(value, pi: PiDiagonal | None) -> np.ndarray:
    """A wls weighting diagonal: "identity", "invpi", a CSV path or a list
    of numbers.  Only a string names a file; the two keywords read the
    design's pi, so without a design (a sweep) they raise TypeError."""
    if not isinstance(value, str):
        return _floats(_listed(value))
    if value not in ("identity", "invpi"):
        return ser.read_vector_csv(value)
    if pi is None:
        raise TypeError(f"{value!r} weights need a design")
    return np.ones(pi.layout.kn) if value == "identity" else 1.0 / pi.probs


def _estimator(est, what: str, pi: PiDiagonal | None) -> EstimatorSpec:
    """The estimator object of a scenario or of ``estimate``'s options,
    whose design has inclusion probabilities ``pi``, or of a sweep (``pi``
    None).  A wls estimator with a design and without weights has identity
    weights."""
    from .estimators import EstimatorSpec

    kind = spec_field(est, "kind", what)
    identity = _weights("identity", pi) if kind == "wls" and pi is not None else None
    return EstimatorSpec(
        kind,
        spec_field(est, "contrast", what, cast=_floats),
        spec_field(est, "covariates", what, None, _floats),
        spec_field(est, "weights", what, identity, lambda value: _weights(value, pi)),
    )


def cmd_estimate(args) -> int:
    from .bound_estimation import ipw_bound_matrix, plugin_bound_estimate
    from .bounds import build_bound
    from .estimators import point_estimate

    design = build_design(ser.read_json(args.design))
    layout = design.layout
    data = ser.read_observed(args.data, layout)
    pi = inclusion_probabilities(design)
    spec = _estimator({
        "kind": args.estimator,
        "contrast": _parse_contrast(args.contrast),
        "covariates": ser.read_covariates(args.covariates, layout.n) if args.covariates else None,
        "weights": args.weights,
    }, "estimate options", pi)
    estimate = point_estimate(spec, data, pi)
    dmat, mask = first_order_design_matrix(design)
    mask.check_possible(data.assignment)
    bound = build_bound(args.bound, dmat, mask, contrast=spec.contrast)
    ipw = ipw_bound_matrix(bound, design)
    best = plugin_bound_estimate(spec, data, pi, ipw, bound_method=bound.method)
    report = {
        "point_estimate": estimate,
        "bound_estimate": best.value,
        "bound_method": bound.method,
        "estimator": spec.kind,
        # a negative estimate has no square root: se is clamped to 0 and flagged
        "se": math.sqrt(max(best.value, 0.0)),
        "negative_bound_estimate": best.value < 0.0,
    }
    ser.write_json(args.out, report)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    from .spectral import compare_bounds, compare_designs

    a = ser.read_matrix_csv(args.a)
    b = ser.read_matrix_csv(args.b)
    if args.as_what == "designs":
        layout = _layout_for_matrix(a, args.a, args.k)
        # b's k comes from --k or its own design.json, and a's k only without either
        own = args.k is not None or (Path(args.b).parent / "design.json").is_file()
        k_b = args.k if own else layout.k
        comparison = compare_designs(
            DesignMatrix(layout, a), DesignMatrix(_layout_for_matrix(b, args.b, k_b), b),
            tol=args.tol,
        )
        report = ser.eigen_report_dict(comparison.report)
        report["extremal_eigenvalues"] = [lam for lam, _ in comparison.extremal]
        if args.vectors:
            ser.write_matrix_csv(args.vectors, comparison.report.eigenvectors)
            report["vectors_csv"] = str(args.vectors)
    else:
        verdict = compare_bounds(a, b, tol=args.tol)
        report = ser.eigen_report_dict(verdict.evidence)
        report["relation"] = verdict.relation
    ser.write_json(args.out, report)
    print(json.dumps({k: v for k, v in report.items() if k != "eigenvalues"}, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    from .simulate import SimScenario, _tiled_outcomes, consistency_sweep, run_scenario

    doc = ser.read_json(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    what = "scenario"
    sweep = spec_field(doc, "sweep", what, None)
    if sweep is not None:
        rows = consistency_sweep(
            _estimator(spec_field(sweep, "estimator", "sweep"), "sweep estimator", None),
            spec_field(sweep, "base_y", "sweep", cast=_floats),
            spec_field(sweep, "n_list", "sweep", cast=lambda ns: [spec_int(n) for n in ns]),
        )
        ser.write_rows_csv(out / "trend.csv", rows)
        print(f"wrote trend.csv to {out}")
        return 0
    design = build_design(spec_field(doc, "design", what))
    pi = inclusion_probabilities(design)
    y_doc = spec_field(doc, "y", what)
    if isinstance(y_doc, dict):
        base = spec_field(y_doc, "base", 'scenario "y"', cast=_floats)
        y = _tiled_outcomes(base, spec_field(y_doc, "copies", 'scenario "y"', cast=spec_int))
    else:
        y = spec_field(doc, "y", what, cast=_floats)
    scenario = SimScenario(
        design=design,
        y=y,
        estimator=_estimator(spec_field(doc, "estimator", what), "scenario estimator", pi),
        # a missing bound is AS; null is no bound
        bound_method=spec_field(doc, "bound", what, None) if "bound" in doc else "as",
        mode=spec_field(doc, "mode", what, "exact"),
        replicates=spec_field(doc, "replicates", what, 0, spec_int),
        seed=spec_field(doc, "seed", what, None, spec_int),
    )
    report = run_scenario(scenario)
    ser.write_json(out / "report.json", asdict(report))
    print(json.dumps({"bias": report.bias, "empirical_variance": report.empirical_variance}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="designvar",
        description="Design-based variances, variance bounds, and bound estimators "
        "for linear estimators under enumerable experimental designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="emit pi, p, d, and mask for a design spec")
    p.add_argument("spec", help="design spec JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("bound", help="construct or verify a variance-bound matrix")
    p.add_argument("--d", required=True, help="design matrix CSV")
    p.add_argument("--mask", help="impossibility mask CSV (default: where --d is -1)")
    p.add_argument("--method", required=True, choices=["neyman", "as", "algm", "verify"])
    p.add_argument("--candidate", help="candidate bound CSV (verify only)")
    p.add_argument("--contrast", help="comma-separated contrast (neyman)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=10000, dest="max_iter")
    p.add_argument("--k", type=int, default=None,
                   help="arm count (default: k in the design.json beside --d)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("estimate", help="point estimate plus bound estimate from one draw")
    p.add_argument("--design", required=True, help="design spec JSON")
    p.add_argument("--data", required=True, help="observed data CSV")
    p.add_argument("--covariates", help="covariate CSV (ols/wls)")
    p.add_argument("--estimator", required=True, choices=["ht", "cm", "hj", "ols", "wls"])
    p.add_argument("--contrast", required=True)
    p.add_argument("--weights", help='wls weights: "identity", "invpi", or a CSV path')
    p.add_argument("--bound", default="as", choices=["neyman", "as", "algm"])
    p.add_argument("--out", required=True, help="output report JSON path")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("compare", help="spectral comparison of designs or bounds")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--as", dest="as_what", required=True, choices=["designs", "bounds"])
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--k", type=int, default=None,
                   help="arm count for --as designs (default: k in the design.json beside "
                   "each file; --b without one takes --a's)")
    p.add_argument("--vectors", help="optional CSV sidecar for eigenvectors")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="run a scenario or a consistency sweep")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    """Run the subcommand ``argv`` names and return its exit code.

    Warnings are recorded while it runs.  On exit 0 each distinct one is
    printed as one ``warning:`` line on stderr, and the ill-conditioned
    ones as one line, at the largest condition number; on exit 2 or 3 the
    error line is the only one.
    """
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IllConditionedWarning)
        warnings.simplefilter("always", InfeasiblePointsWarning)
        code = _run(args)
    if code == 0:
        messages = [w.message for w in caught]
        ill = [m for m in messages if isinstance(m, IllConditionedWarning)]
        worst = max(ill, key=lambda m: m.cond, default=None)
        for message in dict.fromkeys(str(worst if m in ill else m) for m in messages):
            print(f"warning: {message}", file=sys.stderr)
    return code


def _run(args) -> int:
    """``args.func(args)``, its errors mapped to one stderr line and an exit code."""
    try:
        # numpy stays quiet about overflow: a non-finite result is exit 3
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Console entry point: ``main()``, then exit without interpreter teardown.

    Every output file is closed by its ``with`` block before ``main``
    returns, so only the standard streams need a flush before
    ``os._exit``.  An exception ``main`` does not handle (argparse's
    SystemExit among them) propagates and exits the usual way, and so
    does a flush that fails (a reader that closed the pipe).
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()

import json
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import designvar as dv
from designvar import serialization as ser
from designvar.cli import main
from conftest import D_PAIRED, DT_AS_PAIRED, DT_INVAR_PAIRED, SPECS_N30, SUPPORT_SIZES_N30
from oracles import hc0_sandwich


PAIRED_SPEC = {"type": "paired", "k": 2, "pairs": [[0, 1], [2, 3]]}
COMPLETE_SPEC = {"type": "complete", "counts": [2, 2]}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def paired_dir(tmp_path):
    spec = write_json(tmp_path / "spec.json", PAIRED_SPEC)
    out = tmp_path / "paired"
    assert main(["design", spec, "--out", str(out)]) == 0
    return out


class TestDesignCommand:
    def test_paired_outputs_reference_matrix(self, paired_dir):
        d = ser.read_matrix_csv(paired_dir / "d.csv")
        assert_array_equal(d, D_PAIRED)
        summary = json.loads((paired_dir / "design.json").read_text())
        assert summary["family"] == "paired"
        assert summary["support_size"] == 4

    def test_complete_mask_matches_impossible_positions(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", COMPLETE_SPEC)
        out = tmp_path / "complete"
        assert main(["design", spec, "--out", str(out)]) == 0
        mask = ser.read_matrix_csv(out / "mask.csv")
        d = ser.read_matrix_csv(out / "d.csv")
        assert_array_equal(mask, (d == -1.0).astype(float))

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "paired",\n  "pairs": [[0, 1],]}')
        assert main(["design", str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_infeasible_spec_exits_2(self, tmp_path):
        spec = write_json(
            tmp_path / "spec.json", {"type": "complete", "counts": [2, 2], "n": 5}
        )
        assert main(["design", spec, "--out", str(tmp_path / "x")]) == 2

    def test_design_json_holds_only_what_the_design_determines(self, tmp_path):
        # moment settings in a spec are ignored, like any field the family does not read
        spec = write_json(tmp_path / "spec.json",
                          {**PAIRED_SPEC, "mode": "mc", "seed": 3, "mc_replicates": 10})
        out = tmp_path / "paired"
        assert main(["design", spec, "--out", str(out)]) == 0
        summary = json.loads((out / "design.json").read_text())
        assert summary == {"k": 2, "n": 4, "family": "paired", "support_size": 4,
                           "exact_probabilities": True, "estimated": False}

    def test_paired_mc_ignores_the_cap_in_its_pairs(self, tmp_path):
        # each pair has 2 assignments; a cap of 1 must not reject them, nor the design:
        # the cap bounds only a support something reads
        spec = write_json(tmp_path / "spec.json", {**PAIRED_SPEC, "mode": "mc", "support_cap": 1})
        out = tmp_path / "paired"
        assert main(["design", spec, "--out", str(out)]) == 0
        summary = json.loads((out / "design.json").read_text())
        assert "mode" not in summary and summary["support_size"] == 4

    @pytest.mark.parametrize("family", sorted(SPECS_N30))
    def test_default_specs_of_30_units_build(self, tmp_path, family):
        spec = write_json(tmp_path / "spec.json", SPECS_N30[family])
        assert main(["design", spec, "--out", str(tmp_path / family)]) == 0
        summary = json.loads((tmp_path / family / "design.json").read_text())
        assert summary["support_size"] == SUPPORT_SIZES_N30[family]

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"type": "custom", "n": 2, "support": [{"arms": [0, 1], "prob": 1}]}, '"k"'),
            ({"type": "custom", "k": 2, "n": 2, "support": [{"arms": [0, 1]}]}, '"prob"'),
            ({**COMPLETE_SPEC, "support_cap": "abc"}, '"support_cap"'),
            ({"type": "bernoulli", "n": "three", "p": 0.5}, '"n"'),
            ({"type": "complete", "counts": "ab"}, '"counts"'),
            ({"type": "complete", "counts": 5}, '"counts"'),
            ({"type": "paired", "pairs": 3}, '"pairs"'),
            ({"type": "block", "blocks": [5]}, '"blocks"'),
            ({"type": "block", "blocks": [{"units": 3, "type": "complete", "counts": [1, 1]}]},
             '"units"'),
            ({"type": "cluster", "clusters": 5, "cluster_design": COMPLETE_SPEC}, '"clusters"'),
            ({"type": "cluster", "clusters": [[0], [1]], "cluster_design": 5},
             '"cluster_design"'),
            ({"type": "bernoulli", "n": 3, "p": "abc"}, '"p"'),
            ({"type": "bernoulli", "n": 3, "probs": [0.5, "x"]}, '"probs"'),
            ({"type": "custom", "k": 2, "n": 2, "support": 5}, '"support"'),
            ({"type": "custom", "k": 2, "n": 2, "support": [{"arms": [0, 1], "prob": "zz"}]},
             '"prob"'),
            # integer fields reject non-integral numbers and bools instead of truncating
            ({"type": "complete", "counts": [1.5, 2.9]}, '"counts"'),
            ({"type": "paired", "k": 2.7, "pairs": [[0, 1], [2, 3]]}, '"k"'),
            ({"type": "paired", "pairs": [[0, 1.5], [2, 3]]}, '"pairs"'),
            ({"type": "block", "blocks": [{"units": [0, 0.5], "type": "complete",
                                           "counts": [1, 1]}]}, '"units"'),
            ({"type": "cluster", "clusters": [[0, 1], [2.5]], "cluster_design": COMPLETE_SPEC},
             '"clusters"'),
            ({"type": "custom", "k": True, "n": 2, "support": [{"arms": [0, 1], "prob": 1}]},
             '"k"'),
            ({"type": "custom", "k": 2, "n": 2.5, "support": [{"arms": [0, 1], "prob": 1}]},
             '"n"'),
            ({"type": "custom", "k": 2, "n": 2, "support": [{"arms": [0, 1.5], "prob": 1}]},
             '"arms"'),
            ({**COMPLETE_SPEC, "support_cap": 10.5}, '"support_cap"'),
            ({"type": "bernoulli", "n": False, "p": 0.5}, '"n"'),
            ({"type": "bernoulli", "n": 2, "p": True}, '"p"'),
            ({"type": "custom", "k": 2, "n": 1, "support": [{"arms": [0], "prob": True}]},
             '"prob"'),
            # numeric strings are not integers
            ({"type": "complete", "counts": ["2", " 2 "]}, '"counts"'),
            ({"type": "bernoulli", "n": "4", "p": 0.5}, '"n"'),
        ],
        ids=["custom-without-k", "entry-without-prob", "support-cap-abc",
             "bernoulli-n-text", "complete-counts-text", "complete-counts-number",
             "paired-pairs-number", "block-entry-number", "block-units-number",
             "cluster-clusters-number", "cluster-design-number", "bernoulli-p-text",
             "bernoulli-probs-text-entry", "custom-support-number", "custom-prob-text",
             "complete-counts-fractional", "paired-k-fractional", "paired-pairs-fractional",
             "block-units-fractional", "cluster-clusters-fractional", "custom-k-bool",
             "custom-n-fractional", "custom-arms-fractional", "support-cap-fractional",
             "bernoulli-n-bool", "bernoulli-p-bool", "custom-prob-bool",
             "complete-counts-strings", "bernoulli-n-string"],
    )
    def test_malformed_spec_field_exits_2(self, tmp_path, capsys, spec, named):
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["design", path, "--out", str(tmp_path / "x")]) == 2
        assert named in capsys.readouterr().err

    def test_integral_float_fields_are_integers(self, tmp_path):
        spec = {"type": "paired", "k": 2.0, "pairs": [[0, 1.0], [2, 3]], "support_cap": 4.0}
        out = tmp_path / "paired"
        assert main(["design", write_json(tmp_path / "spec.json", spec), "--out", str(out)]) == 0
        assert_array_equal(ser.read_matrix_csv(out / "d.csv"), D_PAIRED)

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ({"type": "bernoulli", "k": 3, "n": 4, "p": 0.5}, "scalar probability implies k=2"),
            ({"type": "bernoulli", "p": 0.5}, "scalar probability requires explicit n"),
            ({"type": "bernoulli", "n": 2, "probs": []}, "empty probability spec"),
            ({"type": "bernoulli", "probs": [0.5, 0.5]},
             "shared arm probabilities require explicit n"),
            ({"type": "bernoulli", "n": 3, "probs": [[0.5, 0.5], [0.5, 0.5]]},
             "probs row count disagrees with n"),
            ({"type": "bernoulli", "probs": [[0.5, 0.5], [0.2, 0.3, 0.5]]},
             "every probability row must have length k"),
            ({"type": "bernoulli", "n": 2, "probs": [0.5, 0.6]},
             "arm probabilities for unit 0 do not sum to 1"),
            ({"type": "bernoulli", "n": 2, "probs": [1.5, -0.5]},
             "arm probabilities must be nonnegative"),
            ({"type": "complete", "counts": [3, -1]}, "arm counts must be nonnegative"),
            ({"type": "block", "blocks": []}, "block design needs at least one block"),
            ({"type": "block", "blocks": [{"units": [0, 1], "type": "complete", "counts": [1, 1]},
                                          {"units": [2, 3, 4], "type": "complete",
                                           "counts": [1, 1, 1]}]},
             "all blocks must share the same arm count"),
            ({"type": "paired", "k": 2, "pairs": [[0, 1, 2], [3, 4, 5]]},
             "each matched group must have exactly k=2 units, got [0, 1, 2]"),
            ({"type": "cluster", "clusters": [[0, 1], [2, 3]],
              "cluster_design": {"type": "bernoulli", "n": 3, "p": 0.5}},
             "cluster-level design has n=3, expected 2 clusters"),
            ({"type": "custom", "k": 2, "n": 1, "support_cap": 1,
              "support": [{"arms": [0], "prob": 0.5}, {"arms": [1], "prob": 0.5}]},
             "custom support has 2 points, above the cap 1"),
            ({"type": "custom", "k": 1, "n": 2, "support": [{"arms": [0, 0], "prob": 1}]},
             "arm count k must be >= 2, got 1"),
            ([], "design spec must be a JSON object, got list"),
        ],
        ids=["bernoulli-scalar-k3", "bernoulli-scalar-without-n", "bernoulli-probs-empty",
             "bernoulli-shared-row-without-n", "bernoulli-rows-against-n",
             "bernoulli-rows-unequal", "bernoulli-row-sum", "bernoulli-row-negative",
             "complete-count-negative", "block-none", "block-arm-counts-differ",
             "paired-groups-of-3", "cluster-design-n", "custom-over-cap", "custom-k1",
             "spec-list"],
    )
    def test_infeasible_spec_exits_2_with_its_reason(self, tmp_path, capsys, spec, reason):
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["design", path, "--out", str(tmp_path / "x")]) == 2
        assert reason in capsys.readouterr().err

    def test_support_cap_option_is_rejected(self, tmp_path):
        # the spec's "support_cap" field is the one cap setting
        spec = write_json(tmp_path / "spec.json", COMPLETE_SPEC)
        with pytest.raises(SystemExit) as exit_:
            main(["design", spec, "--support-cap", "5", "--out", str(tmp_path / "x")])
        assert exit_.value.code == 2


class TestBoundCommand:
    def test_aronow_samii_matches_reference(self, paired_dir, tmp_path):
        out = tmp_path / "bound"
        code = main([
            "bound", "--d", str(paired_dir / "d.csv"), "--mask",
            str(paired_dir / "mask.csv"), "--method", "as", "--out", str(out),
        ])
        assert code == 0
        assert_array_equal(ser.read_matrix_csv(out / "dtilde.csv"), DT_AS_PAIRED)
        cert = json.loads((out / "certification.json").read_text())
        assert cert["certified_bounding"] == "yes"
        assert cert["certified_identified"] == "yes"

    def test_algm_without_iterations_exits_2(self, paired_dir, tmp_path, capsys):
        code = main([
            "bound", "--d", str(paired_dir / "d.csv"), "--mask", str(paired_dir / "mask.csv"),
            "--method", "algm", "--max-iter", "0", "--out", str(tmp_path / "m"),
        ])
        assert code == 2
        assert "max_iter" in capsys.readouterr().err

    def test_neyman_on_paired_exits_2_naming_blocks(self, paired_dir, tmp_path, capsys):
        code = main([
            "bound", "--d", str(paired_dir / "d.csv"), "--mask",
            str(paired_dir / "mask.csv"), "--method", "neyman",
            "--contrast=-1,1", "--out", str(tmp_path / "nb"),
        ])
        assert code == 2
        assert "diagonal block" in capsys.readouterr().err

    @pytest.mark.parametrize("contrast", ["nan,1", "inf,-inf"])
    def test_neyman_non_finite_contrast_exits_2(self, tmp_path, capsys, contrast):
        cdir = tmp_path / "complete"
        main(["design", write_json(tmp_path / "spec.json", COMPLETE_SPEC), "--out", str(cdir)])
        code = main([
            "bound", "--d", str(cdir / "d.csv"), "--mask", str(cdir / "mask.csv"),
            "--method", "neyman", f"--contrast={contrast}", "--out", str(tmp_path / "nb"),
        ])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_verify_invariant_bound(self, paired_dir, tmp_path):
        cand = tmp_path / "invar.csv"
        ser.write_matrix_csv(cand, DT_INVAR_PAIRED)
        out = tmp_path / "verify"
        code = main([
            "bound", "--d", str(paired_dir / "d.csv"), "--mask",
            str(paired_dir / "mask.csv"), "--method", "verify",
            "--candidate", str(cand), "--out", str(out),
        ])
        assert code == 0
        cert = json.loads((out / "certification.json").read_text())
        assert cert == {
            **cert,
            "certified_bounding": "yes",
            "certified_identified": "yes",
            "method": "user",
        }

    def test_init_option_is_rejected(self, paired_dir, tmp_path):
        # algm always starts from the mask
        with pytest.raises(SystemExit) as exit_:
            main(["bound", "--d", str(paired_dir / "d.csv"), "--mask",
                  str(paired_dir / "mask.csv"), "--method", "algm", "--init", "mask",
                  "--out", str(tmp_path / "x")])
        assert exit_.value.code == 2

    @pytest.mark.parametrize("entry", ["nan", "0.5"])
    def test_mask_entry_other_than_0_or_1_exits_2(self, tmp_path, capsys, entry):
        cdir = tmp_path / "complete"
        main(["design", write_json(tmp_path / "spec.json", COMPLETE_SPEC), "--out", str(cdir)])
        mask = ser.read_matrix_csv(cdir / "mask.csv")
        mask[0, 1] = mask[1, 0] = float(entry)
        ser.write_matrix_csv(cdir / "mask.csv", mask)
        code = main(["bound", "--d", str(cdir / "d.csv"), "--mask", str(cdir / "mask.csv"),
                     "--method", "as", "--out", str(tmp_path / "as")])
        assert code == 2
        assert f"mask entries must be 0 or 1, got {float(entry)}" in capsys.readouterr().err
        assert not (tmp_path / "as").exists()

    @pytest.mark.parametrize(
        "options, reason",
        [
            (["--method", "neyman"], "the block-diagonal bound needs a contrast vector"),
            (["--method", "verify"], "--method verify requires --candidate"),
            (["--method", "neyman", "--contrast=a,b"], "bad contrast 'a,b'"),
            (["--method", "as", "--d", "{bare}/d23.csv", "--k", "2"],
             "expected a square matrix, got shape (2, 3)"),
            # no design.json beside this copy of d to disagree with --k
            (["--method", "as", "--d", "{bare}/d.csv", "--k", "3"],
             "matrix size 8 is not divisible by k=3"),
        ],
        ids=["neyman-without-contrast", "verify-without-candidate", "contrast-text",
             "d-not-square", "k-not-dividing"],
    )
    def test_bad_options_exit_2_with_their_reason(self, tmp_path, capsys, options, reason):
        cdir, bare = tmp_path / "complete", tmp_path / "bare"
        main(["design", write_json(tmp_path / "spec.json", COMPLETE_SPEC), "--out", str(cdir)])
        bare.mkdir()
        ser.write_matrix_csv(bare / "d.csv", ser.read_matrix_csv(cdir / "d.csv"))
        ser.write_matrix_csv(bare / "d23.csv", np.zeros((2, 3)))
        capsys.readouterr()
        code = main(["bound", "--d", str(cdir / "d.csv"), "--mask", str(cdir / "mask.csv"),
                     "--out", str(tmp_path / "b"),
                     *(option.format(bare=bare) for option in options)])
        assert code == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["as", "algm", "neyman"])
    def test_asymmetric_d_exits_2(self, tmp_path, capsys, method):
        cdir = tmp_path / "complete"
        main(["design", write_json(tmp_path / "spec.json", COMPLETE_SPEC), "--out", str(cdir)])
        d = ser.read_matrix_csv(cdir / "d.csv")
        d[0, 1] += 1.0
        ser.write_matrix_csv(cdir / "d.csv", d)
        code = main(["bound", "--d", str(cdir / "d.csv"), "--mask", str(cdir / "mask.csv"),
                     "--method", method, "--contrast=-1,1", "--out", str(tmp_path / "b")])
        assert code == 2
        assert "design matrix is not symmetric" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("method, tol", [("verify", "1e300"), ("as", "inf"), ("algm", "nan")])
    def test_tol_outside_0_1_exits_2(self, tmp_path, capsys, method, tol):
        cdir = tmp_path / "complete"
        main(["design", write_json(tmp_path / "spec.json", COMPLETE_SPEC), "--out", str(cdir)])
        zero = tmp_path / "zero.csv"
        ser.write_matrix_csv(zero, np.zeros((8, 8)))
        args = ["bound", "--d", str(cdir / "d.csv"), "--mask", str(cdir / "mask.csv"),
                "--method", method, "--candidate", str(zero), "--out", str(tmp_path / "b")]
        assert main(args + [f"--tol={tol}"]) == 2
        assert "tol must be a finite number in [0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "b" / "certification.json").exists()
        assert main(args) == 0

    def test_nonconvergence_exits_3(self, paired_dir, tmp_path):
        code = main([
            "bound", "--d", str(paired_dir / "d.csv"), "--mask",
            str(paired_dir / "mask.csv"), "--method", "algm",
            "--max-iter", "1", "--out", str(tmp_path / "x"),
        ])
        assert code == 3


class TestArmCount:
    """k for `bound` and `compare` comes from design.json, never from a default."""

    @pytest.fixture()
    def three_arm_dir(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {"type": "complete", "counts": [2, 2, 2]})
        out = tmp_path / "three"
        assert main(["design", spec, "--out", str(out)]) == 0
        return out

    def bound(self, ddir, tmp_path, *extra):
        return main([
            "bound", "--d", str(ddir / "d.csv"), "--mask", str(ddir / "mask.csv"),
            "--method", "neyman", "--contrast=-2,1,1", "--out", str(tmp_path / "b"), *extra,
        ])

    def test_bound_reads_k_from_design_json(self, three_arm_dir, tmp_path):
        assert self.bound(three_arm_dir, tmp_path) == 0
        dtilde = ser.read_matrix_csv(tmp_path / "b" / "dtilde.csv")
        assert dtilde.shape == (18, 18)
        assert np.all(dtilde[:6, 6:] == 0.0)  # block-diagonal over 3 arms of 6 units

    def test_bound_k_disagreeing_with_design_json_exits_2(self, three_arm_dir, tmp_path, capsys):
        assert self.bound(three_arm_dir, tmp_path, "--k", "2") == 2
        assert "disagrees" in capsys.readouterr().err

    def test_bound_without_any_k_exits_2(self, three_arm_dir, tmp_path, capsys):
        bare = tmp_path / "bare"
        bare.mkdir()
        for name in ("d.csv", "mask.csv"):
            (bare / name).write_bytes((three_arm_dir / name).read_bytes())
        assert self.bound(bare, tmp_path) == 2
        assert "arm count unknown" in capsys.readouterr().err
        assert self.bound(bare, tmp_path, "--k", "3") == 0

    def test_compare_designs_k_from_design_json(self, three_arm_dir, tmp_path):
        d = str(three_arm_dir / "d.csv")
        out = tmp_path / "cmp.json"
        args = ["compare", "--a", d, "--b", d, "--as", "designs", "--out", str(out)]
        assert main(args + ["--k", "2"]) == 2
        assert main(args) == 0
        assert len(json.loads(out.read_text())["eigenvalues"]) == 18


    def test_compare_designs_reads_the_layout_of_b(self, tmp_path, capsys):
        # k = 2, n = 6 against k = 3, n = 4: both matrices are 12 x 12
        dirs = {}
        for name, counts in (("two", [3, 3]), ("three", [2, 1, 1])):
            spec = write_json(tmp_path / f"{name}.json", {"type": "complete", "counts": counts})
            dirs[name] = tmp_path / name
            assert main(["design", spec, "--out", str(dirs[name])]) == 0
        out = str(tmp_path / "cmp.json")
        for a, b in (("two", "three"), ("three", "two")):
            assert main(["compare", "--a", str(dirs[a] / "d.csv"), "--b", str(dirs[b] / "d.csv"),
                         "--as", "designs", "--out", out]) == 2
            assert "different layouts" in capsys.readouterr().err
        two, three = str(dirs["two"] / "d.csv"), str(dirs["three"] / "d.csv")
        assert main(["compare", "--a", two, "--b", three, "--as", "designs", "--k", "2",
                     "--out", out]) == 2
        assert "disagrees with k=3" in capsys.readouterr().err
        # without a design.json beside --b, b takes a's k
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "d.csv").write_bytes((dirs["three"] / "d.csv").read_bytes())
        assert main(["compare", "--a", two, "--b", str(bare / "d.csv"), "--as", "designs",
                     "--out", out]) == 0


class TestCompareCommand:
    def test_design_spectrum(self, paired_dir, tmp_path):
        spec = write_json(tmp_path / "spec.json", COMPLETE_SPEC)
        cdir = tmp_path / "complete"
        main(["design", spec, "--out", str(cdir)])
        out = tmp_path / "cmp.json"
        code = main([
            "compare", "--a", str(cdir / "d.csv"), "--b", str(paired_dir / "d.csv"),
            "--as", "designs", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert_allclose(
            report["eigenvalues"],
            [8 / 3, 0, 0, 0, 0, 0, -4 / 3, -4 / 3],
            atol=1e-9,
        )

    def test_bound_verdict(self, paired_dir, tmp_path):
        m = tmp_path / "m.csv"
        a = tmp_path / "a.csv"
        from conftest import DT_M_PAIRED

        ser.write_matrix_csv(m, DT_M_PAIRED)
        ser.write_matrix_csv(a, DT_AS_PAIRED)
        out = tmp_path / "verdict.json"
        code = main(["compare", "--a", str(m), "--b", str(a), "--as", "bounds",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["relation"] == "a-tighter"

    def test_equal(self, tmp_path):
        a = tmp_path / "a.csv"
        ser.write_matrix_csv(a, DT_AS_PAIRED)
        out = tmp_path / "verdict.json"
        main(["compare", "--a", str(a), "--b", str(a), "--as", "bounds", "--out", str(out)])
        assert json.loads(out.read_text())["relation"] == "equal"

    def test_vectors_sidecar(self, paired_dir, tmp_path):
        spec = write_json(tmp_path / "spec.json", COMPLETE_SPEC)
        cdir = tmp_path / "complete"
        main(["design", spec, "--out", str(cdir)])
        out = tmp_path / "cmp.json"
        vecs = tmp_path / "vectors.csv"
        main([
            "compare", "--a", str(cdir / "d.csv"), "--b", str(paired_dir / "d.csv"),
            "--as", "designs", "--vectors", str(vecs), "--out", str(out),
        ])
        v = ser.read_matrix_csv(vecs)
        assert v.shape == (8, 8)
        assert_allclose(v.T @ v, np.eye(8), atol=1e-8)

    def test_bounds_of_different_shapes_exit_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ser.write_matrix_csv(a, np.eye(8))
        ser.write_matrix_csv(b, np.eye(4))
        assert main(["compare", "--a", str(a), "--b", str(b), "--as", "bounds",
                     "--out", str(tmp_path / "c.json")]) == 2
        assert "bound matrices have different shapes" in capsys.readouterr().err


class TestEstimateCommand:
    def test_ols_bernoulli_matches_hc0(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 6
        design_spec = {"type": "bernoulli", "k": 2, "n": n, "p": 0.5, "mode": "mc",
                       "seed": 3, "mc_replicates": 10}
        design = dv.build_design(design_spec)
        arms = design.draw(np.random.default_rng(4))
        y_obs_units = rng.normal(size=n)
        x = rng.normal(size=(n, 1))
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "unit_id,arm_assigned,y_obs\n"
            + "\n".join(f"{u},{arms[u]},{float(y_obs_units[u])!r}" for u in range(n))
            + "\n"
        )
        cov = tmp_path / "x.csv"
        cov.write_text(
            "unit_id,x1\n" + "\n".join(f"{u},{float(x[u, 0])!r}" for u in range(n)) + "\n"
        )
        out = tmp_path / "report.json"
        code = main([
            "estimate", "--design", write_json(tmp_path / "d.json", design_spec),
            "--data", str(obs), "--covariates", str(cov), "--estimator", "ols",
            "--contrast=-1,1", "--bound", "as", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        layout = design.layout
        data = ser.read_observed(obs, layout)
        hc0 = hc0_sandwich(data, dv.expand_covariates(x, layout), np.array([-1.0, 1.0]))
        assert_allclose(report["bound_estimate"], hc0, rtol=1e-12)
        assert_allclose(report["se"], np.sqrt(max(hc0, 0.0)), rtol=1e-12)

    def test_negative_bound_estimate_is_flagged(self, tmp_path):
        # constant outcomes: Algorithm M's bound is PSD only within its tolerance, and
        # its single-draw estimate of the zero variance comes out just below zero
        obs = tmp_path / "obs.csv"
        obs.write_text("unit_id,arm_assigned,y_obs\n0,0,1.0\n1,0,1.0\n2,1,1.0\n3,1,1.0\n")
        reports = {}
        for bound in ("algm", "as"):
            out = tmp_path / f"{bound}.json"
            code = main([
                "estimate", "--design", write_json(tmp_path / "d.json", COMPLETE_SPEC),
                "--data", str(obs), "--estimator", "ht", "--contrast=-1,1",
                "--bound", bound, "--out", str(out),
            ])
            assert code == 0
            reports[bound] = json.loads(out.read_text())
        assert reports["algm"]["bound_estimate"] < 0.0
        assert reports["algm"]["negative_bound_estimate"] is True
        assert reports["algm"]["se"] == 0.0
        assert reports["as"]["bound_estimate"] >= 0.0
        assert reports["as"]["negative_bound_estimate"] is False

    def test_cm_empty_arm_exits_3(self, tmp_path):
        design_spec = {"type": "bernoulli", "k": 2, "n": 3, "p": 0.5}
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "unit_id,arm_assigned,y_obs\n0,0,1.0\n1,0,2.0\n2,0,3.0\n"
        )
        code = main([
            "estimate", "--design", write_json(tmp_path / "d.json", design_spec),
            "--data", str(obs), "--estimator", "cm", "--contrast=-1,1",
            "--bound", "as", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 3

    def test_wls_invpi_weights_equal_hajek(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1,2.0\n2,1,3.0\n3,0,4.0\n"
        )
        reports = {}
        for kind, extra in (("hj", []), ("wls", ["--weights", "invpi"])):
            out = tmp_path / f"{kind}.json"
            code = main([
                "estimate", "--design", write_json(tmp_path / "d.json", PAIRED_SPEC),
                "--data", str(obs), "--estimator", kind, "--contrast=-1,1",
                "--bound", "as", "--out", str(out), *extra,
            ])
            assert code == 0
            reports[kind] = json.loads(out.read_text())
        assert_allclose(
            reports["hj"]["point_estimate"], reports["wls"]["point_estimate"],
            atol=1e-12,
        )
        assert_allclose(
            reports["hj"]["bound_estimate"], reports["wls"]["bound_estimate"],
            atol=1e-12,
        )

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_outcome_exits_2(self, tmp_path, bad):
        obs = tmp_path / "obs.csv"
        obs.write_text(f"unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1,{bad}\n2,1,3.0\n3,0,4.0\n")
        out = tmp_path / "r.json"
        code = main([
            "estimate", "--design", write_json(tmp_path / "d.json", PAIRED_SPEC),
            "--data", str(obs), "--estimator", "hj", "--contrast=-1,1",
            "--bound", "as", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows, column",
        [
            ("0,0,1.0\n1,1,abc\n2,1,3.0\n3,0,4.0\n", "y_obs"),  # not a number
            ("0,0,1.0\n1,1\n2,1,3.0\n3,0,4.0\n", "y_obs"),  # short row
            ("0,0,1.0\n1,one,2.0\n2,1,3.0\n3,0,4.0\n", "arm_assigned"),
            ("0,0,1.0\n1.5,1,2.0\n2,1,3.0\n3,0,4.0\n", "unit_id"),
        ],
    )
    def test_malformed_data_cell_exits_2(self, tmp_path, capsys, rows, column):
        obs = tmp_path / "obs.csv"
        obs.write_text("unit_id,arm_assigned,y_obs\n" + rows)
        out = tmp_path / "r.json"
        code = main([
            "estimate", "--design", write_json(tmp_path / "d.json", PAIRED_SPEC),
            "--data", str(obs), "--estimator", "hj", "--contrast=-1,1",
            "--bound", "as", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "obs.csv" in err and "row 3" in err and repr(column) in err

    def test_overlong_data_field_exits_2(self, tmp_path, capsys):
        # past csv.field_size_limit(): a validation error, not a csv traceback
        obs = tmp_path / "obs.csv"
        obs.write_text("unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1," + "1" * 200_000
                       + "\n2,1,3.0\n3,0,4.0\n")
        out = tmp_path / "r.json"
        code = main([
            "estimate", "--design", write_json(tmp_path / "d.json", PAIRED_SPEC),
            "--data", str(obs), "--estimator", "hj", "--contrast=-1,1",
            "--bound", "as", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "obs.csv: row 3: field larger than field limit" in err

    @pytest.mark.parametrize("rows", ["0,1.0\n1,oops\n2,0.5\n3,0.1\n",
                                      "0,1.0\n1\n2,0.5\n3,0.1\n"])
    def test_malformed_covariate_cell_exits_2(self, tmp_path, capsys, rows):
        obs = tmp_path / "obs.csv"
        obs.write_text("unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1,2.0\n2,1,3.0\n3,0,4.0\n")
        cov = tmp_path / "x.csv"
        cov.write_text("unit_id,x1\n" + rows)
        out = tmp_path / "r.json"
        code = main([
            "estimate", "--design", write_json(tmp_path / "d.json", PAIRED_SPEC),
            "--data", str(obs), "--covariates", str(cov), "--estimator", "ols",
            "--contrast=-1,1", "--bound", "as", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "x.csv" in err and "row 3" in err and "'x1'" in err

    def test_repeated_unit_id_in_covariates_exits_2(self, tmp_path, capsys):
        # a unit_id-only table: without the check, unit 1's covariates were never read
        obs = tmp_path / "obs.csv"
        obs.write_text("unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1,2.0\n2,1,3.0\n3,0,4.0\n")
        cov = tmp_path / "x.csv"
        cov.write_text("unit_id\n0\n0\n2\n3\n")
        out = tmp_path / "r.json"
        code = main([
            "estimate", "--design", write_json(tmp_path / "d.json", PAIRED_SPEC),
            "--data", str(obs), "--covariates", str(cov), "--estimator", "ols",
            "--contrast=-1,1", "--bound", "as", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        assert "x.csv: row 3: unit_id 0 repeats" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["missing.csv", "given.csv", "identity", "invpi"])
    def test_weights_on_a_non_wls_estimator_exit_2(self, tmp_path, capsys, monkeypatch, weights):
        # as a scenario's non-wls estimator with "weights" does
        monkeypatch.chdir(tmp_path)
        ser.write_vector_csv(tmp_path / "given.csv", np.ones(8))
        obs = tmp_path / "obs.csv"
        obs.write_text("unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1,2.0\n2,1,3.0\n3,0,4.0\n")
        out = tmp_path / "r.json"
        code = main([
            "estimate", "--design", write_json(tmp_path / "d.json", PAIRED_SPEC),
            "--data", str(obs), "--estimator", "hj", "--contrast=-1,1",
            "--weights", weights, "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        named = "missing.csv" if weights == "missing.csv" else "weighting diagonal"
        assert named in capsys.readouterr().err

    def test_malformed_weights_file_names_its_row(self, tmp_path, capsys):
        weights = tmp_path / "w.csv"
        weights.write_text("0,1,2,3,4,5,6,7\n1,1,x,1,1,1,1,1\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1,2.0\n2,1,3.0\n3,0,4.0\n")
        code = main([
            "estimate", "--design", write_json(tmp_path / "d.json", PAIRED_SPEC),
            "--data", str(obs), "--estimator", "wls", "--contrast=-1,1",
            "--weights", str(weights), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "w.csv: row 2" in capsys.readouterr().err

    def test_ht_paired_algm_pipeline(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1,2.0\n2,1,3.0\n3,0,4.0\n"
        )
        out = tmp_path / "r.json"
        code = main([
            "estimate", "--design", write_json(tmp_path / "d.json", PAIRED_SPEC),
            "--data", str(obs), "--estimator", "ht", "--contrast=-1,1",
            "--bound", "algm", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert np.isfinite(report["point_estimate"])
        assert np.isfinite(report["se"])


    @pytest.mark.parametrize("spec, impossible, possible, pair", [
        (PAIRED_SPEC, [0, 0, 1, 1], [0, 1, 1, 0],
         "unit 0 to arm 0 together with unit 1 to arm 0"),
        ({"type": "cluster", "k": 2, "clusters": [[0, 1], [2, 3]],
          "cluster_design": {"type": "complete", "counts": [1, 1]}}, [0, 1, 1, 0], [0, 0, 1, 1],
         "unit 0 to arm 0 together with unit 1 to arm 1"),
    ], ids=["paired", "cluster"])
    def test_impossible_observed_assignment_exits_2(self, tmp_path, capsys, spec, impossible,
                                                    possible, pair):
        obs = tmp_path / "obs.csv"
        args = ["estimate", "--design", write_json(tmp_path / "d.json", spec), "--data",
                str(obs), "--estimator", "hj", "--contrast=-1,1", "--out", str(tmp_path / "r.json")]
        for arms, code in ((impossible, 2), (possible, 0)):
            obs.write_text("unit_id,arm_assigned,y_obs\n"
                           + "".join(f"{u},{arm},{u + 1.5}\n" for u, arm in enumerate(arms)))
            assert main(args) == code
            assert (tmp_path / "r.json").exists() == (code == 0)
        assert pair in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, options, reason",
        [
            ("unit_id,y_obs\n0,1.0\n1,2.0\n2,3.0\n3,4.0\n", [],
             "missing column(s) ['arm_assigned']"),
            ("", [], "empty file"),
            ("unit_id,arm_assigned,y_obs\n0,0,1.0\n1,5,2.0\n2,1,3.0\n3,0,4.0\n", [],
             "row 3: arm 5 outside 0..1"),
            ("unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1,2.0\n2,1,3.0\n3,0,4.0\n",
             ["--estimator", "wls", "--weights", "{tmp}/w.csv"], "expected a single data row"),
        ],
        ids=["without-arm-column", "empty-table", "arm-outside-k", "wls-weights-two-rows"],
    )
    def test_bad_input_exits_2_with_its_reason(self, tmp_path, capsys, table, options, reason):
        obs = tmp_path / "obs.csv"
        obs.write_text(table)
        ser.write_matrix_csv(tmp_path / "w.csv", np.ones((2, 8)))
        code = main(["estimate", "--design", write_json(tmp_path / "d.json", COMPLETE_SPEC),
                     "--data", str(obs), "--estimator", "ht", "--contrast=-1,1",
                     "--out", str(tmp_path / "r.json"),
                     *(option.format(tmp=tmp_path) for option in options)])
        assert code == 2
        assert reason in capsys.readouterr().err


class TestSimulateCommand:
    def test_exact_scenario(self, tmp_path):
        scenario = {
            "design": PAIRED_SPEC,
            "y": [0.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0],
            "estimator": {"kind": "ht", "contrast": [-1, 1]},
            "bound": "as",
            "mode": "exact",
        }
        out = tmp_path / "sim"
        code = main(["simulate", write_json(tmp_path / "s.json", scenario), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["bias"]) <= 1e-12
        assert_allclose(report["empirical_variance"], report["taylor_variance"], atol=1e-9)

    def test_mc_without_seed_exits_2(self, tmp_path):
        scenario = {
            "design": PAIRED_SPEC,
            "y": [0.0] * 8,
            "estimator": {"kind": "ht", "contrast": [-1, 1]},
            "mode": "mc",
            "replicates": 10,
        }
        code = main(["simulate", write_json(tmp_path / "s.json", scenario),
                     "--out", str(tmp_path / "sim")])
        assert code == 2

    def test_non_finite_report_exits_3(self, tmp_path, capsys):
        # squares of an outcome of 1e200 overflow to inf
        scenario = {
            "design": PAIRED_SPEC,
            "y": [0.0, 1e200, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0],
            "estimator": {"kind": "ht", "contrast": [-1, 1]},
        }
        out = tmp_path / "sim"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings stay quiet
            code = main(["simulate", write_json(tmp_path / "s.json", scenario), "--out", str(out)])
        assert code == 3
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_one_replicate_reports_null_mc_se(self, tmp_path):
        # one draw has no spread: every Monte Carlo standard error is null
        scenario = {
            "design": {"type": "bernoulli", "n": 2, "p": 0.5},
            "y": [0.0, 1.0, 1.0, 2.0],
            "estimator": {"kind": "ht", "contrast": [-1, 1]},
            "mode": "mc",
            "replicates": 1,
            "seed": 0,
        }
        out = tmp_path / "sim"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", write_json(tmp_path / "s.json", scenario), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mc_se"] == dict.fromkeys(
            ["mean_estimate", "empirical_variance", "mean_bound_estimate", "coverage_95"])
        assert np.isfinite(report["mean_estimate"])

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"design": PAIRED_SPEC, "estimator": {"kind": "ht", "contrast": [-1, 1]}}, '"y"'),
            ([1, 2], "scenario must be a JSON object"),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8, "estimator": {"contrast": [-1, 1]}}, '"kind"'),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8,
              "estimator": {"kind": "ht", "contrast": [-1, 1]},
              "mode": "mc", "seed": 0, "replicates": "many"}, '"replicates"'),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8,
              "estimator": {"kind": "ht", "contrast": [-1, 1]},
              "mode": "mc", "seed": "abc", "replicates": 5}, '"seed"'),
            ({"sweep": {"base_y": [[0.0, 1.0], [1.0, 2.0]], "n_list": [4]}}, '"estimator"'),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8,
              "estimator": {"kind": "ht", "contrast": [-1, 1]},
              "mode": "mc", "seed": -1, "replicates": 5}, "seed"),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8, "estimator": {"kind": 5, "contrast": [-1, 1]}},
             "kind"),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8,
              "estimator": {"kind": "ht", "contrast": [-1, 1]},
              "mode": "mc", "seed": 0, "replicates": 5.5}, '"replicates"'),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8,
              "estimator": {"kind": "ht", "contrast": [-1, 1]},
              "mode": "mc", "seed": True, "replicates": 5}, '"seed"'),
            ({"design": PAIRED_SPEC, "y": {"base": [[0.0, 1.0], [1.0, 2.0]], "copies": 1.5},
              "estimator": {"kind": "ht", "contrast": [-1, 1]}}, '"copies"'),
            ({"sweep": {"estimator": {"kind": "cm", "contrast": [-1, 1]},
                        "base_y": [[0.0, 1.0], [1.0, 2.0]], "n_list": [4, 6.5]}}, '"n_list"'),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8,
              "estimator": {"kind": "ht", "contrast": [-1, 1, 0]}}, "contrast"),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8,
              "estimator": {"kind": "cm", "contrast": [1]}}, "contrast"),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8,
              "estimator": {"kind": "ht", "contrast": [-1, 1]}, "bound": 3}, "bound method"),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8,
              "estimator": {"kind": "ht", "contrast": [-1, 1]}, "mode": 3}, "mode"),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8,
              "estimator": {"kind": "wls", "contrast": [-1, 1], "weights": 0}}, '"weights"'),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8,
              "estimator": {"kind": "wls", "contrast": [-1, 1], "weights": {}}}, '"weights"'),
            ({"design": PAIRED_SPEC, "y": [0.0] * 8,
              "estimator": {"kind": "wls", "contrast": [-1, 1], "weights": [1.0]}}, "weights"),
            ({"sweep": {"estimator": {"kind": "ols", "contrast": [-1, 1],
                                      "covariates": [[1.0], [2.0]]},
                        "base_y": [[0.0, 1.0], [1.0, 2.0]], "n_list": [4]}}, "covariates"),
            ({"sweep": {"estimator": {"kind": "wls", "contrast": [-1, 1], "weights": [1.0] * 8},
                        "base_y": [[0.0, 1.0], [1.0, 2.0]], "n_list": [4]}}, "weights"),
            ({"sweep": {"estimator": {"kind": "wls", "contrast": [-1, 1], "weights": "invpi"},
                        "base_y": [[0.0, 1.0], [1.0, 2.0]], "n_list": [4]}}, '"weights"'),
            ({"sweep": {"estimator": {"kind": "cm", "contrast": [-1, 1]},
                        "base_y": [[], []], "n_list": [4]}}, "base_y"),
        ],
        ids=["without-y", "top-level-list", "estimator-without-kind", "replicates-many",
             "seed-text", "sweep-without-estimator", "seed-negative", "kind-number",
             "replicates-fractional", "seed-bool", "copies-fractional", "n-list-fractional",
             "contrast-length-3", "contrast-length-1", "bound-number", "mode-number",
             "weights-zero", "weights-object", "weights-short-list", "sweep-covariates",
             "sweep-weights-list", "sweep-weights-invpi", "sweep-base-y-empty-rows"],
    )
    def test_malformed_scenario_field_exits_2(self, tmp_path, capsys, doc, named):
        path = write_json(tmp_path / "s.json", doc)
        assert main(["simulate", path, "--out", str(tmp_path / "sim")]) == 2
        assert named in capsys.readouterr().err

    def test_weights_true_exits_2_without_opening_a_file(self, tmp_path, capsys, monkeypatch):
        # a non-string weights value never reaches open(): true would open fd 1
        def refuse(*args, **kwargs):
            raise AssertionError(f"open{args}")

        scenario = {"design": PAIRED_SPEC, "y": [0.0] * 8,
                    "estimator": {"kind": "wls", "contrast": [-1, 1], "weights": True}}
        path = write_json(tmp_path / "s.json", scenario)
        monkeypatch.setattr(ser, "read_vector_csv", refuse)
        assert main(["simulate", path, "--out", str(tmp_path / "sim")]) == 2
        assert '"weights"' in capsys.readouterr().err

    def test_weights_list_equal_to_invpi_gives_the_invpi_report(self, tmp_path):
        design = {"type": "complete", "counts": [2, 3]}
        inv = 1.0 / dv.inclusion_probabilities(dv.build_design(design)).probs
        reports = []
        for weights in ("invpi", inv.tolist()):
            scenario = {"design": design, "y": [0.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0, 2.5, 0.5],
                        "estimator": {"kind": "wls", "contrast": [-1, 1], "weights": weights},
                        "bound": "algm"}
            out = tmp_path / f"sim{len(reports)}"
            assert main(["simulate", write_json(tmp_path / "s.json", scenario),
                         "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_null_bound_writes_no_bound(self, tmp_path):
        scenario = {"design": PAIRED_SPEC, "y": [0.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0],
                    "estimator": {"kind": "cm", "contrast": [-1, 1]}, "bound": None}
        out = tmp_path / "sim"
        assert main(["simulate", write_json(tmp_path / "s.json", scenario), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["bound_value"] is None
        assert report["mean_bound_estimate"] is None
        assert report["coverage_95"] is None

    def test_empty_sweep_exits_2(self, tmp_path):
        scenario = {
            "sweep": {
                "estimator": {"kind": "cm", "contrast": [-1, 1]},
                "base_y": [[0.0, 1.0], [1.0, 2.0]],
                "n_list": [],
            }
        }
        out = tmp_path / "sweep"
        assert main(["simulate", write_json(tmp_path / "s.json", scenario), "--out", str(out)]) == 2

    def test_sweep_writes_trend(self, tmp_path):
        scenario = {
            "sweep": {
                "estimator": {"kind": "cm", "contrast": [-1, 1]},
                "base_y": [[0.0, 1.0], [1.0, 2.0]],
                "n_list": [4, 8],
            }
        }
        out = tmp_path / "sweep"
        code = main(["simulate", write_json(tmp_path / "s.json", scenario), "--out", str(out)])
        assert code == 0
        lines = (out / "trend.csv").read_text().strip().splitlines()
        assert lines[0].startswith("n,")
        assert len(lines) == 3

    def test_oversized_sweep_exits_3(self, tmp_path, capsys):
        scenario = {
            "sweep": {
                "estimator": {"kind": "cm", "contrast": [-1, 1]},
                "base_y": [list(range(20)), list(range(1, 21))],
                "n_list": [40],
            }
        }
        out = tmp_path / "sweep"
        code = main(["simulate", write_json(tmp_path / "s.json", scenario), "--out", str(out)])
        assert code == 3
        assert "entry budget" in capsys.readouterr().err
        assert not (out / "trend.csv").exists()

    @pytest.mark.parametrize(
        "doc, reason",
        [
            ({"estimator": {"kind": "xyz", "contrast": [-1, 1]}}, "unknown estimator kind 'xyz'"),
            ({"estimator": {"kind": "ht", "contrast": [-1, 1], "covariates": [[1], [2], [3], [4]]}},
             "ht does not take covariates"),
            ({"estimator": {"kind": "wls", "contrast": [-1, 1],
                            "weights": [1, 1, 1, -1, 1, 1, 1, 1]}},
             "wls weights must be positive and finite"),
            ({"mode": "mc", "replicates": 0, "seed": 1},
             "monte-carlo scenarios need replicates >= 1"),
            ({"sweep": {"estimator": {"kind": "cm", "contrast": [-1, 1]},
                        "base_y": [[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]], "n_list": [4]}},
             "n=4 is not a multiple of the base population size 3"),
            ({"sweep": {"estimator": {"kind": "cm", "contrast": [-1, 1]},
                        "base_y": [[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]], "n_list": [3]}},
             "balanced design needs even n, got 3"),
            ({"y": [float("nan"), 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0]},
             "potential outcomes must be finite"),
            ({"estimator": {"kind": "ht", "contrast": [float("nan"), 1]}},
             "contrast must be a finite 1-d vector"),
        ],
        ids=["kind-unknown", "ht-covariates", "wls-weight-negative", "mc-no-replicates",
             "sweep-n-not-tiling-base", "sweep-n-odd", "y-nan", "contrast-nan"],
    )
    def test_bad_scenario_exits_2_with_its_reason(self, tmp_path, capsys, doc, reason):
        scenario = {"design": PAIRED_SPEC, "y": [0.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0],
                    "estimator": {"kind": "ht", "contrast": [-1, 1]}, **doc}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))  # NaN is written as a bare NaN token
        assert main(["simulate", str(path), "--out", str(tmp_path / "sim")]) == 2
        assert reason in capsys.readouterr().err


class TestUndecodableInput:
    """Bytes that are not UTF-8 exit 2 with an error naming the file, for
    each kind of input file."""

    def _exits_2_naming(self, argv, path, capsys):
        assert main([str(a) for a in argv]) == 2
        assert f"error: {path}: not valid UTF-8 text" in capsys.readouterr().err

    def test_matrix_csv(self, tmp_path, capsys):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"\xff\xfe")
        self._exits_2_naming(["compare", "--a", path, "--b", path, "--as", "bounds",
                              "--out", tmp_path / "c.json"], path, capsys)

    def test_design_spec(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff" + json.dumps(PAIRED_SPEC).encode())
        self._exits_2_naming(["design", path, "--out", tmp_path / "x"], path, capsys)

    def test_design_json_beside_a_matrix(self, paired_dir, tmp_path, capsys):
        sidecar = paired_dir / "design.json"
        sidecar.write_bytes(b'{"k": 2\xff}')
        self._exits_2_naming(["bound", "--d", paired_dir / "d.csv", "--mask",
                              paired_dir / "mask.csv", "--method", "as", "--out",
                              tmp_path / "b"], sidecar, capsys)

    def test_observed_table(self, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        path.write_bytes(b"unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1,\xe92.0\n")
        self._exits_2_naming(["estimate", "--design", write_json(tmp_path / "d.json", PAIRED_SPEC),
                              "--data", path, "--estimator", "hj", "--contrast=-1,1",
                              "--out", tmp_path / "r.json"], path, capsys)

    def test_covariate_table(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1,2.0\n2,1,3.0\n3,0,4.0\n")
        path = tmp_path / "x.csv"
        path.write_bytes(b"unit_id,x1\xff\n0,1.0\n1,2.0\n2,0.5\n3,0.1\n")
        self._exits_2_naming(["estimate", "--design", write_json(tmp_path / "d.json", PAIRED_SPEC),
                              "--data", obs, "--covariates", path, "--estimator", "ols",
                              "--contrast=-1,1", "--out", tmp_path / "r.json"], path, capsys)

    def test_simulate_scenario(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(b'{"sweep": "\xc3"}')
        self._exits_2_naming(["simulate", path, "--out", tmp_path / "s"], path, capsys)


def _scenario(design, y, estimator, **extra):
    return {"design": design, "y": y, "estimator": estimator, "mode": "exact", **extra}


ILL_CONDITIONED_OLS = _scenario(
    {"type": "complete", "counts": [3, 3]}, [0, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 7],
    {"kind": "ols", "contrast": [-1, 1],
     "covariates": [[1], [1], [1 + 3e-7], [1], [1], [1 + 3e-7]]})


class TestStderrLines:
    """Exit 0 leaves only ``warning:`` lines on stderr, one per distinct
    warning and one for every ill-conditioned solve; exit 2 or 3 leaves
    exactly one line, the error."""

    def run(self, capsys, *argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("doc, lines", [
        (_scenario({"type": "bernoulli", "n": 3, "p": 0.5}, [0, 1, 2, 1, 2, 3],
                   {"kind": "hj", "contrast": [-1, 1]}),
         ["warning: 2 support points were estimation-infeasible and excluded from "
          "conditional metrics"]),
        (_scenario({"type": "bernoulli", "n": 3, "p": 0.5}, [0, 1, 2, 1, 2, 3],
                   {"kind": "hj", "contrast": [-1, 1]}, mode="mc", replicates=40, seed=0),
         ["warning: 7 draws were estimation-infeasible and excluded from conditional metrics"]),
        (ILL_CONDITIONED_OLS,
         ["warning: ill-conditioned denominator (condition number up to 4.55e+14)"]),
    ], ids=["infeasible-points", "infeasible-draws", "ill-conditioned"])
    def test_warnings_are_one_line_each(self, tmp_path, capsys, doc, lines):
        code, err = self.run(capsys, "simulate", write_json(tmp_path / "s.json", doc),
                             "--out", tmp_path / "sim")
        assert code == 0
        assert err == lines
        assert (tmp_path / "sim" / "report.json").exists()

    @pytest.mark.parametrize("doc, line", [
        # every point warns before the run fails: only the failure is printed
        (_scenario({"type": "bernoulli", "n": 1, "p": 0.5}, [0, 1],
                   {"kind": "hj", "contrast": [-1, 1]}),
         "numerical failure: estimation failed on every draw"),
        (_scenario(COMPLETE_SPEC, [0, 1, 2, 3, 1, 2, 3, 4],
                   {"kind": "ols", "contrast": [-1, 1], "covariates": [[1], [1], [1], [1]]}),
         "numerical failure: singular population denominator"),
        ({"sweep": {"estimator": {"kind": "hj", "contrast": [-1, 1]},
                    "base_y": [[0, 1e308], [1, 2]], "n_list": [4]}},
         "numerical failure: {out}/trend.csv: result holds a non-finite value "
         "(n_times_var = nan)"),
    ], ids=["every-draw-infeasible", "singular-population", "sweep-nan"])
    def test_numerical_failure_is_one_line(self, tmp_path, capsys, doc, line):
        out = tmp_path / "sim"
        code, err = self.run(capsys, "simulate", write_json(tmp_path / "s.json", doc),
                             "--out", out)
        assert (code, err) == (3, [line.format(out=out)])
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("sidecar, k, reason", [
        (None, "0", "arm count k must be >= 2, got 0"),
        ('{"k": 0}', None, "arm count k must be >= 2, got 0"),
        ("[2]", None, "{sidecar} must be a JSON object, got list"),
        ('{"k": "2"}', None, '{sidecar} field "k" is malformed: '),
    ], ids=["k-option-0", "k-field-0", "sidecar-list", "k-field-string"])
    def test_bad_arm_count_exits_2(self, paired_dir, tmp_path, capsys, sidecar, k, reason):
        path = paired_dir / "design.json"
        if sidecar is None:
            path.unlink()
        else:
            path.write_text(sidecar)
        code, err = self.run(capsys, "bound", "--d", paired_dir / "d.csv", "--mask",
                             paired_dir / "mask.csv", "--method", "as", "--out", tmp_path / "b",
                             *(["--k", k] if k else []))
        assert code == 2 and len(err) == 1
        assert err[0].startswith("error: " + reason.format(sidecar=path))

    def test_a_negative_cap_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {**COMPLETE_SPEC, "support_cap": -5})
        code, err = self.run(capsys, "design", spec, "--out", tmp_path / "x")
        assert (code, err) == (2, ['error: design spec field "support_cap" must be >= 0, got -5'])

    def test_json_nested_too_deeply_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, err = self.run(capsys, "design", path, "--out", tmp_path / "x")
        assert (code, err) == (2, [f"error: {path}: JSON nested too deeply to read"])

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "digits.json"
        path.write_text("1" * 5001)
        code, err = self.run(capsys, "design", path, "--out", tmp_path / "x")
        assert code == 2 and len(err) == 1
        if hasattr(sys, "set_int_max_str_digits"):  # Python's int digit limit
            assert err[0].startswith(f"error: {path}: Exceeds the limit")

    def test_malformed_json_keeps_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"type": }')
        code, err = self.run(capsys, "design", path, "--out", tmp_path / "x")
        assert (code, err) == (2, ["error: malformed JSON: line 1 column 10: Expecting value"])

    def test_exact_value_past_the_float_range_exits_3(self, tmp_path, capsys):
        # the IPW entry of the 1e-320 point's pair is about 1e320, which no float holds
        spec = {"type": "custom", "k": 2, "n": 2, "support": [
            {"arms": [0, 0], "prob": 0.25}, {"arms": [1, 1], "prob": 0.25},
            {"arms": [1, 0], "prob": 0.5}, {"arms": [0, 1], "prob": 1e-320}]}
        obs = tmp_path / "obs.csv"
        obs.write_text("unit_id,arm_assigned,y_obs\n0,0,1.0\n1,0,2.0\n")
        code, err = self.run(capsys, "estimate", "--design", write_json(tmp_path / "d.json", spec),
                             "--data", obs, "--estimator", "ht", "--contrast=-1,1",
                             "--out", tmp_path / "r.json")
        assert code == 3 and len(err) == 1
        assert err[0].startswith("numerical failure: an exact value lies outside the float range")

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # complete [10^9, 10^9] asks numpy for arrays it refuses; nothing is allocated here
        message = "Unable to allocate 29.8 GiB for an array with shape (4000000000,)"

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(dv.designs, "complete_design", refuse)
        spec = write_json(tmp_path / "spec.json", {"type": "complete", "counts": [10**9, 10**9]})
        code, err = self.run(capsys, "design", spec, "--out", tmp_path / "x")
        assert (code, err) == (3, [f"numerical failure: out of memory: {message}"])

    def test_estimate_builds_no_joint_probability_matrix(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(dv.JointProbMatrix, "__post_init__", lambda self: built.append(self))
        obs = tmp_path / "obs.csv"
        obs.write_text("unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1,2.5\n2,1,3.0\n3,0,0.5\n")
        assert main(["estimate", "--design", write_json(tmp_path / "d.json", PAIRED_SPEC),
                     "--data", str(obs), "--estimator", "hj", "--contrast=-1,1",
                     "--out", str(tmp_path / "r.json")]) == 0
        assert built == []

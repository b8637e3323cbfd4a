import numpy as np
import pytest
from numpy.testing import assert_array_equal

import designvar as dv
from designvar import serialization as ser


def test_write_json_refuses_non_finite(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(dv.NumericalError):
        ser.write_json(path, {"value": float("nan")})
    assert not path.exists()


class TestMatrixRoundTrip:
    def test_exact_float_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(5, 5)) / 3.0
        path = tmp_path / "m.csv"
        ser.write_matrix_csv(path, m)
        assert_array_equal(ser.read_matrix_csv(path), m)

    def test_rational_backed_entries_round_trip(self, tmp_path, complete42_matrices):
        dmat, _ = complete42_matrices
        path = tmp_path / "d.csv"
        ser.write_matrix_csv(path, dmat.d)
        back = ser.read_matrix_csv(path)
        assert_array_equal(back, dmat.d)
        assert back[0, 1] == -1.0 / 3.0

    def test_vector_round_trip(self, tmp_path):
        v = np.array([0.1, 0.25, 1.0 / 7.0])
        path = tmp_path / "v.csv"
        ser.write_vector_csv(path, v)
        assert_array_equal(ser.read_vector_csv(path), v)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1.0\n")
        with pytest.raises(dv.ValidationError, match="fields"):
            ser.read_matrix_csv(path)


class TestDataTables:
    def test_potential_outcomes_long_format(self, tmp_path):
        layout = dv.IndexLayout(2, 2)
        path = tmp_path / "y.csv"
        path.write_text(
            "unit_id,arm,y\n0,0,1.5\n1,0,2.5\n0,1,3.5\n1,1,4.5\n"
        )
        y = ser.read_potential_outcomes(path, layout)
        assert_array_equal(y, [1.5, 2.5, 3.5, 4.5])

    def test_missing_cell_rejected(self, tmp_path):
        layout = dv.IndexLayout(2, 2)
        path = tmp_path / "y.csv"
        path.write_text("unit_id,arm,y\n0,0,1.5\n1,0,2.5\n0,1,3.5\n")
        with pytest.raises(dv.ValidationError, match="missing"):
            ser.read_potential_outcomes(path, layout)

    @pytest.mark.parametrize("body", ["0,0,1.5\n1,0,x\n", "0,0,1.5\n1,0\n"])
    def test_malformed_outcome_cell_names_row_and_column(self, tmp_path, body):
        layout = dv.IndexLayout(2, 2)
        path = tmp_path / "y.csv"
        path.write_text("unit_id,arm,y\n" + body + "0,1,3.5\n1,1,4.5\n")
        with pytest.raises(dv.ValidationError, match="row 3, column 'y'"):
            ser.read_potential_outcomes(path, layout)

    def test_covariates(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("unit_id,x1,x2\n1,3.0,4.0\n0,1.0,2.0\n")
        x = ser.read_covariates(path, 2)
        assert_array_equal(x, [[1.0, 2.0], [3.0, 4.0]])

    def test_observed_data(self, tmp_path):
        layout = dv.IndexLayout(2, 3)
        path = tmp_path / "obs.csv"
        path.write_text(
            "unit_id,arm_assigned,y_obs\n0,1,2.0\n1,0,-1.0\n2,1,0.5\n"
        )
        data = ser.read_observed(path, layout)
        assert_array_equal(data.assignment.arms, [1, 0, 1])
        assert_array_equal(data.y_obs, [0.0, -1.0, 0.0, 2.0, 0.0, 0.5])

    def test_observed_requires_all_units(self, tmp_path):
        layout = dv.IndexLayout(2, 3)
        path = tmp_path / "obs.csv"
        path.write_text("unit_id,arm_assigned,y_obs\n0,1,2.0\n")
        with pytest.raises(dv.ValidationError, match="rows"):
            ser.read_observed(path, layout)

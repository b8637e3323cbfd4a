import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_array_equal

import designvar as dv
from designvar import serialization as ser

from oracles import read_matrix_csv_reference, write_matrix_csv_reference


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

    def test_integers_beyond_float_precision_are_written_exactly(self, tmp_path):
        path = tmp_path / "int.csv"
        ser.write_matrix_csv(path, np.array([[2**53 + 1, -(2**62) + 3]], dtype=np.int64))
        assert path.read_bytes() == b"0,1\r\n9007199254740993,-4611686018427387901\r\n"

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1.0\n")
        with pytest.raises(dv.ValidationError, match="fields"):
            ser.read_matrix_csv(path)


SPECIAL = [0.0, -0.0, 1.0 / 3.0, -1.0 / 3.0, -1.0, 1e300, 5e-324, 2.2250738585072014e-308 / 3,
           float("nan"), float("inf"), float("-inf")]
SHAPES = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7)
# zero rows, zero columns (a row of no cells is a bare line end), one cell
EDGE_SHAPES = st.one_of(st.tuples(st.integers(1, 4), st.just(0)),
                        st.tuples(st.just(0), st.integers(0, 4)), st.just((1, 1)))


def _bits(values: np.ndarray) -> np.ndarray:
    """uint64 bit patterns with every NaN mapped to one pattern."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).view(np.uint64)


matrices = st.one_of(
    arrays(np.float64, SHAPES, elements=st.sampled_from(SPECIAL)),  # few distinct values
    arrays(np.float64, SHAPES, elements=st.floats(width=64)),  # many, subnormals included
    arrays(np.float64, st.tuples(st.just(1), st.integers(1, 9)), elements=st.floats(width=64)),
    arrays(np.int64, SHAPES, elements=st.integers(-3, 3)),
    arrays(np.bool_, SHAPES),
)


class TestMatrixCsvAgainstReference:
    """The library's matrix CSV I/O against csv.writer / csv.reader one cell at a time."""

    @settings(max_examples=150, deadline=None)
    @given(matrix=matrices)
    def test_bytes_and_bits_match_reference(self, tmp_path_factory, matrix):
        folder = tmp_path_factory.mktemp("csv")
        ours, ref = folder / "ours.csv", folder / "ref.csv"
        ser.write_matrix_csv(ours, matrix)
        write_matrix_csv_reference(ref, matrix)
        assert ours.read_bytes() == ref.read_bytes()
        back = ser.read_matrix_csv(ours)
        assert back.dtype == np.float64 and back.shape == matrix.shape
        assert_array_equal(_bits(back), _bits(read_matrix_csv_reference(ref)))
        assert_array_equal(_bits(back), _bits(matrix))

    @settings(max_examples=60, deadline=None)
    @given(matrix=st.one_of(arrays(np.float64, EDGE_SHAPES, elements=st.sampled_from(SPECIAL)),
                            arrays(np.int64, EDGE_SHAPES, elements=st.integers(-3, 3)),
                            arrays(np.bool_, EDGE_SHAPES)))
    def test_edge_shapes_match_reference(self, tmp_path_factory, matrix):
        folder = tmp_path_factory.mktemp("csv")
        ours, ref = folder / "ours.csv", folder / "ref.csv"
        ser.write_matrix_csv(ours, matrix)
        write_matrix_csv_reference(ref, matrix)
        assert ours.read_bytes() == ref.read_bytes()
        try:
            want = read_matrix_csv_reference(ours)
        except dv.ValidationError as exc:
            with pytest.raises(dv.ValidationError) as got:
                ser.read_matrix_csv(ours)
            assert str(got.value) == str(exc)
            return
        back = ser.read_matrix_csv(ours)
        assert back.dtype == want.dtype and back.shape == want.shape == matrix.shape
        assert_array_equal(_bits(back), _bits(want))

    @pytest.mark.parametrize("shape", [(70, 130), (3, ser.WRITE_BLOCK + 5)])
    def test_several_write_blocks(self, tmp_path, shape):
        """Rows gathered block by block, and rows wider than a block."""
        rng = np.random.default_rng(0)
        matrix = rng.choice(SPECIAL[:-3], size=shape) * rng.integers(1, 4, size=shape)
        ser.write_matrix_csv(tmp_path / "ours.csv", matrix)
        write_matrix_csv_reference(tmp_path / "ref.csv", matrix)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert_array_equal(_bits(ser.read_matrix_csv(tmp_path / "ours.csv")), _bits(matrix))

    def test_negative_zero_and_line_ends(self, tmp_path):
        path = tmp_path / "m.csv"
        ser.write_matrix_csv(path, np.array([[-0.0, 0.0], [np.inf, np.nan]]))
        assert path.read_bytes() == b"0,1\r\n-0.0,0.0\r\ninf,nan\r\n"
        assert np.signbit(ser.read_matrix_csv(path)[0, 0])

    @pytest.mark.parametrize(
        "text, match",
        [
            ("0,1\r\n1.0,2.0\r\n3.0\r\n", "row 3 has 1 fields, expected 2"),
            ("0,1\r\n1.0,x\r\n", "row 2: could not convert string to float: 'x'"),
            ("0,1\r\n1.0,x\r\n3.0\r\n", "row 2: could not"),
            ("0,1\r\n1.0,2.0\r\n\r\n", "row 3 has 0 fields"),
            ("0,1\r\n", "header row plus data rows"),
            ("", "header row plus data rows"),
        ],
    )
    def test_malformed_file_names_the_row(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(dv.ValidationError, match=match) as ours:
            ser.read_matrix_csv(path)
        with pytest.raises(dv.ValidationError) as ref:
            read_matrix_csv_reference(path)
        assert str(ours.value) == str(ref.value)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="01.5e-+,x \"\r\n_nai", max_size=40))
    def test_any_text_reads_like_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "any.csv"
        path.write_bytes(text.encode())
        try:
            want = read_matrix_csv_reference(path)
        except dv.ValidationError as exc:
            with pytest.raises(dv.ValidationError) as ours:
                ser.read_matrix_csv(path)
            assert str(ours.value) == str(exc)
            return
        back = ser.read_matrix_csv(path)
        assert back.shape == want.shape
        assert_array_equal(_bits(back), _bits(want))


class TestOverlongField:
    """A field over csv.field_size_limit() is a ValidationError naming the
    file and row, whether or not the file holds a quote character."""

    LONG = "1" * 200_000

    @pytest.mark.parametrize("cell", [f'"{LONG}"', LONG], ids=["quoted", "bare"])
    def test_matrix(self, tmp_path, cell):
        path = tmp_path / "big.csv"
        path.write_text(f"0,1\r\n1.0,2.0\r\n3.0,{cell}\r\n", newline="")
        with pytest.raises(dv.ValidationError,
                           match=r"big\.csv: row 3: field larger than field limit \(131072\)"):
            ser.read_matrix_csv(path)
        with pytest.raises(csv.Error):  # where csv.reader stops too
            read_matrix_csv_reference(path)

    def test_long_field_within_limit_reads(self, tmp_path):
        path = tmp_path / "wide.csv"
        cell = "0." + "3" * (csv.field_size_limit() - 2)
        path.write_text(f"0\n{cell}\n")
        assert ser.read_matrix_csv(path)[0, 0] == float(cell)

    def test_observed_table(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(f"unit_id,arm_assigned,y_obs\n0,1,2.0\n1,0,{self.LONG}\n2,1,0.5\n")
        with pytest.raises(dv.ValidationError, match=r"obs\.csv: row 3: field larger"):
            ser.read_observed(path, dv.IndexLayout(2, 3))

    def test_covariates(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(f'unit_id,x1\n0,"{self.LONG}"\n1,2.0\n')
        with pytest.raises(dv.ValidationError, match=r"x\.csv: row 2: field larger"):
            ser.read_covariates(path, 2)


class TestDataTables:
    def test_missing_cell_rejected(self, tmp_path):
        # unit 1's covariate cells are missing: unit 0 holds both rows
        path = tmp_path / "x.csv"
        path.write_text("unit_id,x1\n0,1.5\n0,2.5\n")
        with pytest.raises(dv.ValidationError, match="missing"):
            ser.read_covariates(path, 2)

    @pytest.mark.parametrize("body", ["0,0,1.5\n1,0,x\n", "0,0,1.5\n1,0\n"])
    def test_malformed_outcome_cell_names_row_and_column(self, tmp_path, body):
        # a cell that is not a number, and one missing from a short row
        layout = dv.IndexLayout(2, 3)
        path = tmp_path / "obs.csv"
        path.write_text("unit_id,arm_assigned,y_obs\n" + body + "2,1,0.5\n")
        with pytest.raises(dv.ValidationError, match="row 3, column 'y_obs'"):
            ser.read_observed(path, layout)

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


class TestTableRowNumbers:
    """A blank line is a row, as in matrix CSVs: the header is row 1."""

    def test_covariates(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("unit_id,x1\n0,1.0\n\n\n1,oops\n")
        with pytest.raises(dv.ValidationError, match=r"x\.csv: row 5, column 'x1'"):
            ser.read_covariates(path, 2)

    def test_observed(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text('unit_id,arm_assigned,y_obs\n0,1,2.0\n\n1,"0",-1.0\n\n2,1,abc\n')
        with pytest.raises(dv.ValidationError, match=r"obs\.csv: row 6, column 'y_obs'"):
            ser.read_observed(path, dv.IndexLayout(2, 3))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("unit_id,arm_assigned,y_obs\n\n0,1,2.0\n1,0,-1.0\n\n2,1,0.5\n\n")
        data = ser.read_observed(path, dv.IndexLayout(2, 3))
        assert_array_equal(data.assignment.arms, [1, 0, 1])
        assert_array_equal(data.y_obs, [0.0, -1.0, 0.0, 2.0, 0.0, 0.5])


class TestUndecodableFile:
    """Bytes that are not UTF-8 are a ValidationError naming the file."""

    @pytest.mark.parametrize("read", [
        ser.read_matrix_csv,
        ser.read_vector_csv,
        ser.read_json,
        lambda path: ser.read_covariates(path, 2),
        lambda path: ser.read_observed(path, dv.IndexLayout(2, 2)),
    ], ids=["matrix", "vector", "json", "covariates", "observed"])
    @pytest.mark.parametrize("data", [b"\xff\xfe", b"0,1\r\n1.0,2.0\r\n" * 5000 + b"\xff"],
                             ids=["first-byte", "after-a-read-block"])
    def test_names_the_file(self, tmp_path, read, data):
        path = tmp_path / "bin.csv"
        path.write_bytes(data)
        with pytest.raises(dv.ValidationError, match=r"bin\.csv: not valid UTF-8 text"):
            read(path)

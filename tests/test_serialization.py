import csv
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_array_equal

import designvar as dv
from designvar import serialization as ser

from conftest import traced_peak
from oracles import read_matrix_csv_reference, write_matrix_csv_reference


def test_write_json_refuses_non_finite(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(dv.NumericalError):
        ser.write_json(path, {"value": float("nan")})
    assert not path.exists()


def test_write_rows_csv_writes_repr_floats(tmp_path):
    path = tmp_path / "trend.csv"
    ser.write_rows_csv(path, [{"n": 4, "v": 0.1}, {"n": 8, "v": 1 / 3}])
    assert path.read_bytes() == b"n,v\n4.0,0.1\n8.0,0.3333333333333333\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_rows_csv_refuses_non_finite(tmp_path, value):
    path = tmp_path / "trend.csv"
    with pytest.raises(dv.NumericalError, match="v = "):
        ser.write_rows_csv(path, [{"n": 4, "v": 1.0}, {"n": 8, "v": value}])
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


def _same_as_reference(path) -> None:
    """read_matrix_csv gives the reference's values, bit for bit, or its error text."""
    try:
        want = read_matrix_csv_reference(path)
    except dv.ValidationError as exc:
        with pytest.raises(dv.ValidationError) as got:
            ser.read_matrix_csv(path)
        assert str(got.value) == str(exc)
        return
    back = ser.read_matrix_csv(path)
    assert back.dtype == want.dtype and back.shape == want.shape
    assert_array_equal(_bits(back), _bits(want))


@pytest.fixture
def handed_on(monkeypatch):
    """The files the byte reader hands to the row reader, in call order."""
    calls, row_reader = [], ser._read_rows

    def spy(path):
        calls.append(path)
        return row_reader(path)

    monkeypatch.setattr(ser, "_read_rows", spy)
    return calls


class TestByteReader:
    """The byte-block reader against csv.reader, on the files it takes whole
    and on those it hands to the row reader."""

    @pytest.mark.parametrize("text, whole", [
        (b"0,1\n1.5,-2\n3,4\n", True),  # LF
        (b"0,1\r\n1.5,-2\r\n3,4\r\n", True),  # CR LF
        (b"0,1\r\n1.5,-2\n3,4\r\n", True),  # mixed
        (b"0,1\r1.5,-2\r3,4\r", False),  # lone CR
        (b"0,1\n1.5,-2\r3,4\n", False),
        (b"0,1\n1.5,2\r\r\n3,4\n", False),  # float() strips the first CR
        (b"0\r1.5\n2.5\n", False),  # a lone CR ends the header
        (b"0,1\r\n1.5,-2\r\n3,4", True),  # no line end after the last line
        (b"0,1\n1.5,-2\n\n3,4\n", False),  # a blank line
        (b"0\n1.5\n\n", False),
        (b"0,1,2\n0.12345,0.123456,0.1234567\n", True),  # 7, 8 and 9 bytes
        (b"0,1\n0." + b"3" * 30 + b",1\n", True),  # 32 bytes
        (b"0,1\n0." + b"3" * 31 + b",1\n", False),  # 33 bytes
        (b"0,1,2\n 1.5,2.5 ,  -3\t\n 1.5,2.5,-3\n", True),  # padded
        ("0,1\n١٢,１２\n".encode(), False),  # digits float() reads, not ASCII
        (b"0,1\n1e+300,-1e-300\n1_0,0x1\n", False),  # float() rejects 0x1
        (b"0,1\n1e+300,-1e-300\n1_0,-0.0\n", True),
        (b'0,1\n1.5,"2"\n', False),
        (b'"0",1\n1.5,2\n', False),
        (b"0,1\n1.5,2,3\n", False),
        (b"0,1\n1.5\n2,3,4\n", False),  # as many fields as two lines of 2
        (b"0,1\n", False),
        (b"\n1.5\n", False),  # a blank header
    ])
    def test_reads_like_reference(self, tmp_path, handed_on, text, whole):
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        _same_as_reference(path)
        assert handed_on == ([] if whole else [path])

    @pytest.mark.parametrize("text", [b"0,\xff\n1.5,2\n", b"0,1\n1.5,\xff2\n"],
                             ids=["header", "token"])
    def test_invalid_utf8(self, tmp_path, handed_on, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        with pytest.raises(dv.ValidationError) as got:
            ser.read_matrix_csv(path)
        assert str(got.value) == f"{path}: not valid UTF-8 text (invalid start byte)"
        with pytest.raises(UnicodeDecodeError):  # csv.reader fails on it too
            read_matrix_csv_reference(path)
        assert handed_on == [path]

    @pytest.mark.parametrize("block", [1, 20, 64, 300])
    def test_rows_straddle_block_edges(self, tmp_path, monkeypatch, handed_on, block):
        """Blocks smaller than a line, and lines across block edges."""
        monkeypatch.setattr(ser, "BATCH_BYTES", block)
        rng = np.random.default_rng(block)
        matrix = rng.choice(SPECIAL[:-3], size=(30, 4)) * rng.integers(1, 4, size=(30, 4))
        matrix[::7, 1] = rng.normal(size=5)  # tokens of many lengths, seen in one block only
        path = tmp_path / "m.csv"
        ser.write_matrix_csv(path, matrix)
        _same_as_reference(path)
        assert_array_equal(_bits(ser.read_matrix_csv(path)), _bits(matrix))
        path.write_bytes(path.read_bytes()[:-2])  # no line end after the last line
        _same_as_reference(path)
        assert handed_on == []
        path.write_bytes(path.read_bytes() + b"\r\n1.0,2.0,x,4.0\r\n")  # a bad last block
        _same_as_reference(path)
        assert handed_on == [path]

    def test_key_collision_goes_to_the_row_reader(self, tmp_path, monkeypatch, handed_on):
        # with no mixing every token's key is its length: 0.5 and 1.5 collide
        monkeypatch.setattr(ser, "_MIX", np.zeros_like(ser._MIX))
        path = tmp_path / "m.csv"
        ser.write_matrix_csv(path, np.array([[0.5, 1.5], [1.5, -0.0]]))
        _same_as_reference(path)
        assert handed_on == [path]
        ser.write_matrix_csv(path, np.array([[0.5, 0.5], [0.5, 0.5]]))  # one key, one token
        _same_as_reference(path)
        assert handed_on == [path]

    def test_field_limit_holds_on_the_byte_path(self, tmp_path, handed_on):
        limit = csv.field_size_limit()
        path = tmp_path / "m.csv"
        path.write_bytes(b"0," + b"1" * (limit + 1) + b"\n1.5,2\n")  # in the header
        with pytest.raises(dv.ValidationError, match=r"row 1: field larger than field limit"):
            ser.read_matrix_csv(path)
        path.write_bytes(b"0,1\n1.5,123456.5\n")  # under 32 bytes, over a limit of 5
        try:
            csv.field_size_limit(5)
            with pytest.raises(dv.ValidationError,
                               match=r"row 2: field larger than field limit \(5\)"):
                ser.read_matrix_csv(path)
        finally:
            csv.field_size_limit(limit)
        assert handed_on == [path, path]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_goes_to_the_row_reader(self, handed_on):
        # read once: the byte reader must not consume what the row reader reads
        read, write = os.pipe()
        os.write(write, b"0,1\n1.5,2\n")
        os.close(write)
        try:
            path = f"/dev/fd/{read}"
            assert_array_equal(ser.read_matrix_csv(path), [[1.5, 2.0]])
        finally:
            os.close(read)
        assert handed_on == [path]

    def test_several_blocks_hold_the_result_once(self, tmp_path, handed_on):
        # 7.9 MB of 19-byte tokens; beside the result, one block's arrays
        rng = np.random.default_rng(0)
        matrix = rng.choice(rng.normal(size=20), size=(1000, 400))
        path = tmp_path / "m.csv"
        ser.write_matrix_csv(path, matrix)
        assert path.stat().st_size > 20 * ser.BATCH_BYTES
        assert traced_peak(ser.read_matrix_csv, path) < matrix.nbytes + 8 * ser.BATCH_BYTES
        assert_array_equal(_bits(ser.read_matrix_csv(path)), _bits(matrix))
        assert handed_on == []

    def test_distinct_tokens_cost_a_few_results(self, tmp_path, handed_on):
        # 500 x 400 distinct floats in about 15 blocks: each parses its own tokens
        matrix = np.random.default_rng(1).random((500, 400))
        path = tmp_path / "m.csv"
        ser.write_matrix_csv(path, matrix)
        assert path.stat().st_size > 12 * ser.BATCH_BYTES
        assert traced_peak(ser.read_matrix_csv, path) < 5 * matrix.nbytes
        assert_array_equal(_bits(ser.read_matrix_csv(path)),
                           _bits(read_matrix_csv_reference(path)))
        assert handed_on == []

    @settings(max_examples=40, deadline=None)
    @given(matrix=matrices, block=st.integers(1, 400))
    def test_written_matrices_read_whole_in_any_block_size(self, tmp_path_factory, matrix,
                                                           block):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        ser.write_matrix_csv(path, matrix)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ser, "BATCH_BYTES", block)
            patch.setattr(ser, "_read_rows", None)  # never reached
            back = ser.read_matrix_csv(path)
        assert back.dtype == np.float64 and back.shape == matrix.shape
        assert_array_equal(_bits(back), _bits(matrix))


def row_reader_files(folder) -> dict:
    """Two files the byte path refuses, 200 x 200 random floats: "long" of
    40-byte tokens, and "quoted" with the first field of every row quoted."""
    rng = np.random.default_rng(0)
    header = ",".join(map(str, range(200))) + "\n"
    paths = {"long": folder / "long.csv", "quoted": folder / "quoted.csv"}
    paths["long"].write_text(header + "".join(
        ",".join(f"{x:.38f}" for x in row) + "\n" for row in rng.random((200, 200)).tolist()))
    paths["quoted"].write_text(header + "".join(
        f'"{row[0]!r}",' + ",".join(map(repr, row[1:])) + "\n"
        for row in rng.random((200, 200)).tolist()))
    return paths


class TestRowReader:
    """csv.reader reads what the byte path hands on, as the reference does."""

    @pytest.mark.parametrize("name", ["long", "quoted"])
    def test_reads_like_reference(self, tmp_path, handed_on, name):
        path = row_reader_files(tmp_path)[name]
        assert read_matrix_csv_reference(path).shape == (200, 200)
        _same_as_reference(path)
        assert handed_on == [path]

    def test_distinct_values_cost_a_few_results(self, tmp_path, handed_on):
        # the values of the byte path's test, each row's first field quoted
        matrix = np.random.default_rng(1).random((500, 400))
        path = tmp_path / "m.csv"
        path.write_text(",".join(map(str, range(400))) + "\r\n" + "".join(
            f'"{row[0]!r}",' + ",".join(map(repr, row[1:])) + "\r\n" for row in matrix.tolist()))
        assert traced_peak(ser.read_matrix_csv, path) < 5 * matrix.nbytes
        assert_array_equal(_bits(ser.read_matrix_csv(path)),
                           _bits(read_matrix_csv_reference(path)))
        assert handed_on == [path, path]

    def test_rows_are_held_once(self, tmp_path):
        # one growing buffer, shared by the result: no per-row arrays beside it
        matrix = np.random.default_rng(1).random((500, 400))
        path = tmp_path / "m.csv"
        path.write_text(",".join(map(str, range(400))) + "\n" + "".join(
            f'"{row[0]!r}",' + ",".join(map(repr, row[1:])) + "\n" for row in matrix.tolist()))
        assert traced_peak(ser._read_rows, path) < 1.5 * matrix.nbytes
        assert_array_equal(_bits(ser._read_rows(path)), _bits(matrix))

    def test_nul_byte_names_the_row(self, tmp_path, handed_on):
        # csv.reader rejects NUL before Python 3.11 ("line contains NUL");
        # from 3.11 on float() does
        path = tmp_path / "m.csv"
        path.write_bytes(b"0,1\n1.5,2\n3,4\x005\n6,7\n")
        with pytest.raises(dv.ValidationError) as got:
            ser.read_matrix_csv(path)
        assert str(got.value).startswith(f"{path}: row 3: ")
        assert handed_on == [path]


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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_covariate_rejected(self, tmp_path, cell):
        path = tmp_path / "x.csv"
        path.write_text(f"unit_id,x1\n0,1.5\n1,{cell}\n")
        with pytest.raises(dv.ValidationError,
                           match=rf"x\.csv: row 3, column 'x1': '{cell}' is not a finite number"):
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

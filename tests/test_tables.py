import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rftraffic import simulate
from rftraffic.features import N_FEATURES, read_features_csv, write_features_csv
from rftraffic.tables import (
    TraceFormatError,
    read_numeric_table,
    read_table,
    write_numeric_table,
    write_table,
)
from rftraffic.topology import BODY_STYLE_CLASSES


def test_write_table_formats_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_table(str(path), ["a", "b", "c"], [[1, 0.1, None], ["x,y", 1e-300, -0.0]])
    assert path.read_bytes() == b'a,b,c\r\n1,0.1,\r\n"x,y",1e-300,-0.0\r\n'


def test_read_table_checks_header_and_width(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    assert list(read_table(str(path), ["a", "b"])) == [["1", "2"], ["3", "4"]]
    with pytest.raises(TraceFormatError, match="expected header a,c"):
        list(read_table(str(path), ["a", "c"]))
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(TraceFormatError, match="malformed row"):
        list(read_table(str(path), ["a", "b"]))
    path.write_text("")
    with pytest.raises(TraceFormatError, match="header"):
        list(read_table(str(path), ["a", "b"]))


def test_read_table_yields_rows_before_a_bad_one(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3\n")
    rows = read_table(str(path), ["a", "b"])
    assert next(rows) == ["1", "2"]
    with pytest.raises(TraceFormatError):
        next(rows)


@settings(max_examples=60, deadline=None)
@given(records=st.lists(st.tuples(st.integers(-10**20, 10**20), st.floats(), st.floats()),
                        max_size=8))
def test_write_numeric_table_writes_what_write_table_writes(tmp_path_factory, records):
    d = tmp_path_factory.mktemp("numeric")
    write_numeric_table(str(d / "bulk.csv"), ["a", "b"], "{0},{1}\r\n{0},{2}\r\n", records)
    rows = [row for k, x, y in records for row in ([k, x], [k, y])]
    write_table(str(d / "rows.csv"), ["a", "b"], rows)
    assert (d / "bulk.csv").read_bytes() == (d / "rows.csv").read_bytes()


NUMERIC = np.dtype([("a", np.int64), ("b", float)])


def test_read_numeric_table_parses_the_body_in_one_array(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b'a,b\r\n1,0.1\r\n"-2", 1e-300 \r\n')
    rows = read_numeric_table(str(path), ["a", "b"], NUMERIC)
    assert rows.dtype == NUMERIC
    assert rows["a"].tolist() == [1, -2] and rows["b"].tolist() == [0.1, 1e-300]
    path.write_text("a,b\n")
    assert read_numeric_table(str(path), ["a", "b"], NUMERIC).shape == (0,)
    with pytest.raises(TraceFormatError, match="expected header a,c"):
        read_numeric_table(str(path), ["a", "c"], NUMERIC)


@pytest.mark.parametrize("body", ["1,2\n\n3,4\n", "\n1,2\n", "1,2\n\n", "1,2,3\n", "1\n",
                                  "1.5,2\n", "1,x\n", "1_0,2\n"])
def test_read_numeric_table_rejects_malformed_rows(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + body)
    with pytest.raises(TraceFormatError, match="malformed row"):
        read_numeric_table(str(path), ["a", "b"], NUMERIC)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_feature_table_rejects_non_finite_cells_with_line_number(tmp_path, cell):
    path = tmp_path / "f.csv"
    write_features_csv(str(path), np.zeros((3, N_FEATURES)), ["a", "b", "c"])
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[N_FEATURES // 2] = cell
    lines[2] = ",".join(cells)
    path.write_text("".join(lines))
    with pytest.raises(TraceFormatError, match="line 3: feature values must be finite"):
        read_features_csv(str(path))


def test_trace_format_error_is_shared():
    assert simulate.TraceFormatError is TraceFormatError
    assert issubclass(TraceFormatError, ValueError)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(
    streams=st.integers(1, 30).flatmap(lambda n: hnp.arrays(
        float, (9, n),
        elements=st.floats(min_value=-1e300, max_value=-1e-300,
                           allow_nan=False, allow_infinity=False))),
    t0_epochs=st.integers(0, 10**6),
)
def test_trace_roundtrip_is_bit_exact(tmp_path_factory, streams, t0_epochs):
    bundle = simulate.TraceBundle(streams, np.full(9, -60.0), 8.0, t0_ms=8.0 * t0_epochs)
    d = tmp_path_factory.mktemp("trace")
    first, second = d / "a.csv", d / "b.csv"
    simulate.write_trace_csv(str(first), bundle)
    back = simulate.read_trace_csv(str(first))
    assert np.array_equal(_bits(back.rssi_dbm), _bits(streams))
    assert back.t0_ms == bundle.t0_ms
    simulate.write_trace_csv(str(second), back)
    if streams.shape[1] >= 2:
        assert back.sample_period_ms == 8.0
        assert first.read_bytes() == second.read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    matrix=st.integers(0, 6).flatmap(lambda n: hnp.arrays(
        float, (n, N_FEATURES),
        elements=st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                           1e-300, -1e300, -0.0]))),
    data=st.data(),
)
def test_feature_table_roundtrip_is_bit_exact(tmp_path_factory, matrix, data):
    label = st.sampled_from(BODY_STYLE_CLASSES) | st.text(
        alphabet=string.ascii_letters + ' ,"-', max_size=12)
    labels = data.draw(st.lists(label, min_size=len(matrix), max_size=len(matrix)))
    path = tmp_path_factory.mktemp("features") / "f.csv"
    write_features_csv(str(path), matrix, labels)
    back, back_labels = read_features_csv(str(path))
    assert back_labels == labels
    assert back.shape == (len(matrix), N_FEATURES)
    assert np.array_equal(_bits(back), _bits(matrix))

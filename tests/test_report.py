"""Report rendering: CSV and JSON round trips."""

import json

import numpy as np
import pytest

from fredholm.errors import ValidationError
from fredholm.report import ReportBundle, render_csv, render_json, write_report


def _bundle(**meta):
    return ReportBundle(kind="linear_fie",
                        columns=("x", "value", "exact", "abs_err"),
                        rows=[(0.0, 1.0, 1.0, 0.0),
                              (0.5, 1.0 / 3.0, 0.25, 1.0 / 12.0)],
                        sweep=[(1, 0.5), (2, 0.25)],
                        metadata=meta)


def test_csv_layout_and_metadata_order():
    text = render_csv(_bundle(b_key=2, a_key=True, c_key=None))
    lines = text.splitlines()
    assert lines[0] == "# a_key = true"
    assert lines[1] == "# b_key = 2"
    assert lines[2] == "# c_key = "
    assert lines[3] == "x,value,exact,abs_err"
    assert lines[5].startswith("0.5,")
    assert lines[6] == ""
    assert lines[7] == "layers,max_err"
    assert lines[8] == "1,0.5"
    assert text.endswith("\n")


def test_csv_floats_round_trip_exactly():
    tricky = [1.0 / 3.0, 0.1, 1e-300, np.pi, 123456789.123456789]
    bundle = ReportBundle(kind="t", columns=("x", "value"),
                          rows=[(v, v) for v in tricky])
    lines = render_csv(bundle).splitlines()[1:]
    for line, v in zip(lines, tricky):
        cell = line.split(",")[0]
        assert float(cell) == v


def test_csv_cells_of_every_type():
    cells = (None, True, np.bool_(False), 3, np.int64(-4), 0.1,
             np.float64(2.5), np.float32(0.1), -np.inf, "s")
    bundle = ReportBundle(kind="t", columns=tuple("abcdefghij"),
                          rows=[cells])
    assert render_csv(bundle).splitlines()[-1] == (
        ",true,false,3,-4,0.10000000000000001,2.5,0.10000000149011612,-inf,s")


def test_csv_empty_cells_for_missing_oracle():
    bundle = ReportBundle(kind="t", columns=("x", "value", "exact", "abs_err"),
                          rows=[(0.5, 2.0, None, None)])
    line = render_csv(bundle).splitlines()[-1]
    assert line == "0.5,2,,"


def test_csv_nested_metadata_is_json():
    text = render_csv(ReportBundle(kind="t", columns=("x",), rows=[],
                                   metadata={"config": {"b": 1, "a": [1, 2]}}))
    assert text.splitlines()[0] == '# config = {"a": [1, 2], "b": 1}'


def test_csv_row_width_mismatch():
    bundle = ReportBundle(kind="t", columns=("x", "value"), rows=[(1.0,)])
    with pytest.raises(ValidationError):
        render_csv(bundle)


def test_max_abs_err():
    assert _bundle().max_abs_err() == 1.0 / 12.0
    no_col = ReportBundle(kind="t", columns=("x", "value"), rows=[(1.0, 2.0)])
    assert no_col.max_abs_err() is None
    empty = ReportBundle(kind="t", columns=("x", "abs_err"),
                         rows=[(1.0, None)])
    assert empty.max_abs_err() is None


def test_json_round_trip_bitwise():
    doc = json.loads(render_json(_bundle(q_est=1.0 / 3.0)))
    assert doc["kind"] == "linear_fie"
    assert doc["metadata"]["q_est"] == 1.0 / 3.0
    assert doc["solution"]["columns"] == ["x", "value", "exact", "abs_err"]
    assert doc["solution"]["rows"][1][1] == 1.0 / 3.0
    assert doc["sweep"]["rows"] == [[1, 0.5], [2, 0.25]]


def test_json_writes_non_finite_floats_as_null():
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")

    bundle = ReportBundle(kind="t", columns=("x", "value"),
                          rows=[(0.0, float("nan"))], sweep=[(1, np.inf)],
                          metadata={"q": -np.inf, "deltas": [np.inf, 1.0]})
    doc = json.loads(render_json(bundle), parse_constant=refuse)
    assert doc["solution"]["rows"] == [[0.0, None]]
    assert doc["sweep"]["rows"] == [[1, None]]
    assert doc["metadata"] == {"q": None, "deltas": [None, 1.0]}
    # the CSV keeps the scalars' text
    assert "# q = -inf" in render_csv(bundle).splitlines()


def test_json_converts_numpy_scalars():
    bundle = ReportBundle(kind="t", columns=("x",), rows=[],
                          metadata={"n": np.int64(5),
                                    "q": np.float64(0.25),
                                    "flag": np.bool_(True),
                                    "arr": np.arange(3.0)})
    doc = json.loads(render_json(bundle))
    assert doc["metadata"] == {"n": 5, "q": 0.25, "flag": True,
                               "arr": [0.0, 1.0, 2.0]}


def test_write_report_to_file_and_stream(tmp_path):
    path = tmp_path / "out.csv"
    text = write_report(_bundle(), "csv", str(path), None)
    assert path.read_text(encoding="utf-8") == text

    class Sink:
        def __init__(self):
            self.data = []

        def write(self, s):
            self.data.append(s)

    sink = Sink()
    streamed = write_report(_bundle(), "json", None, sink)
    assert "".join(sink.data) == streamed


def test_write_report_unknown_format():
    with pytest.raises(ValidationError):
        write_report(_bundle(), "yaml", None, None)


def test_write_report_unwritable_path():
    with pytest.raises(ValidationError):
        write_report(_bundle(), "csv", "/nonexistent-dir-xyz/a.csv", None)

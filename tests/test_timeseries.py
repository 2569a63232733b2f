import json
import os

import numpy as np
import pytest

from geomech.timeseries import (
    _CSV_BLOCK_ROWS,
    MetricsSummary,
    csv_writer,
    metrics_to_json_bytes,
    series_to_csv_bytes,
    write_outputs,
)

from conftest import parse_csv_bytes, record


def small_series():
    return record(
        ("t", "x"),
        np.column_stack(([0.0, 0.1, 0.2], [1.0, 1.0 / 3.0, -2.5e-17])),
    )


def test_csv_header_names_every_column():
    data = series_to_csv_bytes(small_series())
    header = data.decode().splitlines()[0]
    assert header == "t,x"


def test_csv_bytes_pinned_for_edge_values():
    # signed zero, a tiny normal and the smallest subnormal keep their
    # shortest round-trip spelling
    s = record(("t", "x", "y"), np.column_stack((
        [0.0, 0.5],
        [-0.0, 5e-324],
        [1e-300, -1.0 / 3.0],
    )))
    data = series_to_csv_bytes(s)
    assert data == b"t,x,y\n0.0,-0.0,1e-300\n0.5,5e-324,-0.3333333333333333\n"
    back = parse_csv_bytes(data)
    assert np.signbit(back.column("x")[0]) and back.column("x")[1] == 5e-324


def test_empty_series_header_only():
    s = record(("t", "x"), np.empty((0, 2)))
    data = series_to_csv_bytes(s)
    assert data == b"t,x\n"


def test_csv_round_trip_exact():
    s = small_series()
    back = parse_csv_bytes(series_to_csv_bytes(s))
    for name in s.names:
        assert np.array_equal(back.column(name), s.column(name))


def test_csv_deterministic():
    a = series_to_csv_bytes(small_series())
    b = series_to_csv_bytes(small_series())
    assert a == b


def test_metrics_json_schema_and_nulls():
    m = MetricsSummary(energy_drift_max_rel=1e-9, settled=False)
    doc = json.loads(metrics_to_json_bytes(m))
    assert doc["energy_drift_max_rel"] == 1e-9
    assert doc["settling_time_5pct"] is None
    assert doc["settled"] is False
    assert set(doc) >= {
        "energy_drift_max_rel",
        "momentum_drift_max",
        "orthogonality_defect_max",
        "settling_time_5pct",
        "settled",
        "steady_state_error",
        "newton_iters_mean",
    }


def test_metrics_rejects_non_finite():
    with pytest.raises(ValueError):
        metrics_to_json_bytes(MetricsSummary(energy_drift_max_rel=float("nan")))


def test_write_outputs(tmp_path):
    s = small_series()
    m = MetricsSummary(steady_state_error=0.5, extras={"custom": 2.0})
    csv_path = tmp_path / "run.csv"
    metrics_path = tmp_path / "run.metrics.json"
    write_outputs(s, m, csv_path, metrics_path)
    assert parse_csv_bytes(csv_path.read_bytes()).column("x")[1] == 1.0 / 3.0
    doc = json.loads(metrics_path.read_bytes())
    assert doc["custom"] == 2.0


_EDGE_ROWS = [0, 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 1,
              3 * _CSV_BLOCK_ROWS + 5]


def _edge_series(rows):
    table = np.random.default_rng(rows).normal(size=(rows, 3)) * [1.0, 1e-300, 1e300]
    return record(("t", "x", "y"), table)


@pytest.mark.parametrize("rows", _EDGE_ROWS)
def test_streamed_csv_file_equals_the_bytes_encoder(tmp_path, rows):
    # the file is written block by block; block edges must not show
    s = _edge_series(rows)
    csv_path = tmp_path / "run.csv"
    write_outputs(s, MetricsSummary(), csv_path, tmp_path / "run.metrics.json")
    data = csv_path.read_bytes()
    assert data == series_to_csv_bytes(s)
    assert data.count(b"\n") == rows + 1


@pytest.mark.parametrize("rows", _EDGE_ROWS)
def test_writer_child_file_equals_the_bytes_encoder(tmp_path, rows):
    # a writer child encodes the rows it is sent, here in sends of 100 rows
    # that do not line up with its blocks; neither edge may show
    s = _edge_series(rows)
    csv_path, metrics_path = tmp_path / "run.csv", tmp_path / "run.metrics.json"
    with csv_writer(csv_path) as stream:
        for end in range(0, 3 * rows, 3 * 100):
            stream(s.names, s.data[:end])
        write_outputs(s, MetricsSummary(), csv_path, metrics_path, stream)
    assert sorted(tmp_path.iterdir()) == [csv_path, metrics_path]
    assert csv_path.read_bytes() == series_to_csv_bytes(s)
    with pytest.raises(ChildProcessError):  # the child is reaped
        os.waitpid(-1, os.WNOHANG)


def test_failed_rename_leaves_no_temporary_or_metrics_file(tmp_path):
    # the CSV target is a directory, so renaming the written CSV onto it fails
    csv_path, metrics_path = tmp_path / "run.csv", tmp_path / "run.metrics.json"
    csv_path.mkdir()
    with pytest.raises(OSError):
        write_outputs(small_series(), MetricsSummary(), csv_path, metrics_path)
    assert list(tmp_path.iterdir()) == [csv_path]
    assert list(csv_path.iterdir()) == []


def test_vector_helper():
    s = record(("t", "p_x", "p_y", "p_z"), np.array([[0.0, 1.0, 2.0, 3.0]]))
    np.testing.assert_array_equal(s.vector("p"), [[1.0, 2.0, 3.0]])

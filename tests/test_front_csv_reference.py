"""Front table and CSV writer pinned to the per-cell code they replaced.

The reference below is the row-by-row ``export_front`` loop and the
``_cell``/``write_csv`` pair that formatted one cell at a time.  The
array table and the block-streamed writer must produce the same bytes:
on 2D and 3D blow-ups at several output strides, on an aborted partial
record, on row counts around the writer's block size, and on a table of
values whose formatting is easy to get wrong.
"""

import math

import numpy as np
import pytest

from frontshift import report
from frontshift.blowup import (BlowupConfig, export_front, front_header,
                               simulate_blowup)
from frontshift.dynamics import IntegrationAbort
from frontshift.geometry import ForceField, Manifold


def _reference_export(record, output_every):
    header = front_header(record.man.dimension)
    rows = []
    nb = record.u.shape[0]
    for i in range(0, record.batch.node_count, output_every):
        t = float(record.times[i])
        for b in range(nb):
            row = [t, b]
            row += [float(val) for val in record.u[b]]
            row += [float(val) for val in record.batch.x[i, b]]
            row += [float(val) for val in record.batch.v[i, b]]
            row += [float(val) for val in record.batch.tau[i, b].ravel()]
            row += [float(val) for val in record.phi[i, b]]
            row += [float(val) for val in record.psi[i, b]]
            rows.append(row)
    return header, rows


def _reference_cell(value) -> str:
    value = report._coerce(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _reference_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_reference_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _assert_same_bytes(tmp_path, header, rows, table=None):
    want, got = tmp_path / "reference.csv", tmp_path / "streamed.csv"
    _reference_csv(want, header, rows)
    assert report.write_csv(got, header,
                            rows if table is None else table) == str(got)
    assert got.read_bytes() == want.read_bytes()


S2 = Manifold(2, [["1", "0"], ["0", "sin(x1)^2"]])
S2_DRAG = ForceField(S2, ["-0.3*v1*sqrt(v1^2 + sin(x1)^2*v2^2)",
                          "-0.3*v2*sqrt(v1^2 + sin(x1)^2*v2^2)"])
S3 = Manifold(3, [["1", "0", "0"], ["0", "sin(x1)^2", "0"],
                  ["0", "0", "sin(x1)^2*sin(x2)^2"]])
S3_SPEED = "sqrt(v1^2 + sin(x1)^2*v2^2 + sin(x1)^2*sin(x2)^2*v3^2)"
S3_DRAG = ForceField(S3, [f"-0.3*v{k}*{S3_SPEED}" for k in (1, 2, 3)])


def _record(dimension):
    if dimension == 2:
        cfg = BlowupConfig(p0=[1.2, 0.3], nu=1.0, resolution=12)
        return simulate_blowup(S2, S2_DRAG, cfg, 0.05, 1e-3)
    cfg = BlowupConfig(p0=[1.2, 1.0, 0.3], nu="1 + 0.2*cos(u1)",
                       resolution=8)
    return simulate_blowup(S3, S3_DRAG, cfg, 0.03, 1e-3)


@pytest.fixture(scope="module")
def records():
    return {2: _record(2), 3: _record(3)}


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("every", [1, 3, 7])
def test_blowup_front_bytes_match_reference(tmp_path, records, dimension,
                                            every):
    record = records[dimension]
    assert record.batch.node_count % 7 != 0
    header, rows = _reference_export(record, every)
    got_header, table = export_front(record, output_every=every)
    assert got_header == header
    assert table.dtype == np.float64
    assert table.shape == (len(rows), len(header))
    np.testing.assert_array_equal(table, np.array(rows))
    _assert_same_bytes(tmp_path, header, rows, table)


def test_aborted_partial_front_bytes_match_reference(tmp_path):
    euclid = Manifold(2, [["1", "0"], ["0", "1"]])
    runaway = ForceField(euclid, ["x1^3", "0"])
    cfg = BlowupConfig(p0=[2.0, 0.0], nu=5.0, resolution=8)
    with pytest.raises(IntegrationAbort) as info:
        simulate_blowup(euclid, runaway, cfg, 1.0, 1e-3)
    partial = info.value.record
    assert 1 <= partial.batch.node_count < 1001
    for every in (1, 7):
        header, rows = _reference_export(partial, every)
        _, table = export_front(partial, output_every=every)
        _assert_same_bytes(tmp_path, header, rows, table)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("blocks", [1, 2])
def test_row_counts_around_block_size(tmp_path, blocks, offset):
    nrows = blocks * report._CSV_BLOCK_ROWS + offset
    rng = np.random.default_rng(nrows)
    table = rng.normal(size=(nrows, 4)) * 10.0 ** rng.integers(
        -20, 20, size=(nrows, 4))
    table[:, 1] = np.arange(nrows)
    rows = [[float(v) for v in row[:1]] + [int(row[1])]
            + [float(v) for v in row[2:]] for row in table]
    header = ["t", "dir_index", "a", "b"]
    _assert_same_bytes(tmp_path, header, rows, table)
    lines = (tmp_path / "streamed.csv").read_text().splitlines()
    assert len(lines) == nrows + 1
    assert lines[-1].split(",")[1] == str(nrows - 1)


def test_special_values_bytes_match_reference(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300,
                -1e300, 0.1, 1.0, 123456789.0, 2.0 ** 53]
    rows = [[0.1 * k, 1000 + 997 * k, value, -value]
            for k, value in enumerate(specials)]
    header = ["t", "dir_index", "a", "b"]
    _assert_same_bytes(tmp_path, header, rows)
    _assert_same_bytes(tmp_path, header, rows, np.array(rows, dtype=float))
    lines = (tmp_path / "streamed.csv").read_text().splitlines()
    assert lines[1:4] == ["0,1000,nan,nan",
                          "0.10000000000000001,1997,inf,-inf",
                          "0.20000000000000001,2994,-inf,inf"]
    assert lines[4] == "0.30000000000000004,3991,-0,0"
    assert lines[6] == ("0.5,5985,4.9406564584124654e-324,"
                        "-4.9406564584124654e-324")
    assert lines[7] == ("0.60000000000000009,6982,1.0000000000000001e+300,"
                        "-1.0000000000000001e+300")
    assert lines[12] == "1.1000000000000001,11967,9007199254740992," \
                        "-9007199254740992"


def test_empty_table_writes_header_only(tmp_path):
    _assert_same_bytes(tmp_path, ["a", "b"], [], np.empty((0, 2)))

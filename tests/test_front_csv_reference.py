"""Front table and CSV writer pinned to the per-cell code they replaced.

The reference below is the row-by-row ``export_front`` loop and the
``_cell``/``write_csv`` pair that formatted one cell at a time.  The
factored table and the chunked writer must produce the same bytes: on
2D and 3D blow-ups at several output strides, on a 3D front whose one
node is wider than a chunk, on an aborted partial record, on row counts
around the writer's chunk size, on a table of values whose formatting
is easy to get wrong (in ``t``, in the lead columns and in the body),
on values the writer's kernel hands to Python's own formatting on both
sides of a chunk edge, and on empty fronts.
"""

import math
import tracemalloc

import numpy as np
import pytest

from frontshift import report
from frontshift.blowup import (BlowupConfig, export_front, front_header,
                               simulate_blowup)
from frontshift.dynamics import IntegrationAbort
from frontshift.geometry import ForceField, Manifold
from frontshift.report import FrontTable


def _reference_export(record, output_every):
    header = front_header(record.batch.x.shape[-1])
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


def _table_rows(table):
    """The rows of a factored table, time-major, as float lists."""
    body = np.concatenate(table.body, axis=2)
    return [[t] + lead + body[i, d].tolist()
            for i, t in enumerate(table.times.tolist())
            for d, lead in enumerate(table.lead.tolist())]


def _assert_same_bytes(tmp_path, header, rows, table):
    want, got = tmp_path / "reference.csv", tmp_path / "streamed.csv"
    _reference_csv(want, header, rows)
    assert report.write_csv(got, header, table) == str(got)
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
    assert len(table) == len(rows)
    assert table.lead.shape == (record.u.shape[0], dimension)
    for part in table.body:
        assert part.dtype == np.float64
        assert part.shape[:2] == (len(table.times), record.u.shape[0])
    assert sum(part.shape[2] for part in table.body) == \
        len(header) - 1 - dimension
    np.testing.assert_array_equal(np.array(_table_rows(table)),
                                  np.array(rows))
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


def _table(times, lead, *body):
    return FrontTable(np.asarray(times, dtype=float),
                      np.asarray(lead, dtype=float),
                      tuple(np.asarray(part, dtype=float) for part in body))


def _reference_rows(table):
    """Rows of table with dir_index (the first lead column) as an int,
    the way the reference export wrote it."""
    rows = _table_rows(table)
    for row in rows:
        row[1] = int(row[1])
    return rows


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("blocks", [1, 2])
def test_row_counts_around_block_size(tmp_path, blocks, offset):
    header = ["t", "dir_index", "u1", "a", "b", "c"]
    rows = report._CSV_CELLS // len(header)     # whole rows in one chunk
    # one node per chunk just below the bound; above it a node is split
    for directions in (1, 7, rows - 1, rows + 1):
        per_chunk = max(1, rows // directions)
        nodes = blocks * per_chunk + offset
        rng = np.random.default_rng(nodes * directions)

        def scaled(*shape):
            return rng.normal(size=shape) * 10.0 ** rng.integers(
                -20, 20, size=shape)

        lead = np.column_stack([np.arange(directions),
                                scaled(directions, 1)])
        table = _table(scaled(nodes), lead, scaled(nodes, directions, 1),
                       scaled(nodes, directions, 2))
        assert len(table) == nodes * directions
        _assert_same_bytes(tmp_path, header, _reference_rows(table), table)
        lines = (tmp_path / "streamed.csv").read_text().splitlines()
        assert len(lines) == nodes * directions + 1
        if nodes:
            assert lines[-1].split(",")[1] == str(directions - 1)


# Values the writer's kernel leaves to Python's own formatting: a 17-digit
# tie, subnormals, |v| >= 1e280, zeros and non-finite values.
FALLBACKS = [2.0 ** -25, -3 * 2.0 ** -25, 5e-324, -1e-310, 1e300, -1e300,
             0.0, -0.0, math.nan, -math.inf]


def test_fallback_values_across_a_chunk_edge(tmp_path):
    header = ["t", "dir_index", "u1", "u2", "a", "b"]
    directions = 7
    per_chunk = report._CSV_CELLS // len(header) // directions
    nodes = 2 * per_chunk
    rng = np.random.default_rng(11)
    times = rng.normal(size=nodes)
    u = rng.normal(size=(directions, 2))
    body = rng.normal(size=(nodes, directions, 2))
    edge = range(per_chunk - 2, per_chunk + 2)  # last and first nodes
    for i, node in enumerate(edge):
        times[node] = FALLBACKS[i]
        body[node] = np.resize(np.roll(FALLBACKS, i), (directions, 2))
    u[:5] = np.reshape(FALLBACKS, (5, 2))
    table = _table(times, np.column_stack([np.arange(directions), u]),
                   body[:, :, :1], body[:, :, 1:])
    _assert_same_bytes(tmp_path, header, _reference_rows(table), table)
    lines = (tmp_path / "streamed.csv").read_text().splitlines()
    assert lines[1 + per_chunk * directions] == (
        "4.9406564584124654e-324,0,2.9802322387695312e-08,"
        "-8.9406967163085938e-08,nan,-inf")


def test_three_dim_node_wider_than_a_chunk(tmp_path):
    cfg = BlowupConfig(p0=[1.2, 1.0, 0.3], nu="1 + 0.2*cos(u1)",
                       resolution=32)
    record = simulate_blowup(S3, S3_DRAG, cfg, 0.02, 1e-3)
    header, table = export_front(record, output_every=1)
    cells = len(header) * table.lead.shape[0]
    assert cells > 2 * report._CSV_CELLS     # each node spans three chunks
    every = 5
    _, strided = export_front(record, output_every=every)
    _assert_same_bytes(tmp_path, header,
                       _reference_export(record, every)[1], strided)
    tracemalloc.start()
    try:
        report.write_csv(tmp_path / "front.csv", header, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # split nodes peak near 290 bytes per chunk cell; whole 20 480-cell
    # nodes near 690
    assert peak < 400 * report._CSV_CELLS


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300,
            -1e300, 0.1, 1.0, 123456789.0, 2.0 ** 53]


def test_special_values_bytes_match_reference(tmp_path):
    count = len(SPECIALS)
    specials = np.array(SPECIALS)
    # One direction per special value and one more, so that a swap of the
    # time and direction axes shows; u is (-0, 0) in direction 3 and
    # (0, -0) in direction 4.
    u = np.column_stack([specials, -specials])
    u = np.vstack([u, [[-0.0, 0.0]]])
    lead = np.column_stack([1000 + 997 * np.arange(count + 1), u])
    nodes = np.arange(count)[:, None]
    dirs = np.arange(count + 1)[None, :]
    body_a = specials[(nodes + dirs) % count][:, :, None]
    body_b = np.stack([specials[(5 * nodes + dirs) % count],
                       -specials[(nodes + 7 * dirs) % count]], axis=2)
    table = _table(specials, lead, body_a, body_b)
    header = ["t", "dir_index", "u1", "u2", "a", "b", "c"]
    _assert_same_bytes(tmp_path, header, _reference_rows(table), table)
    lines = (tmp_path / "streamed.csv").read_text().splitlines()
    width = count + 1
    assert lines[1] == "nan,1000,nan,nan,nan,nan,nan"
    # t = inf with direction 4, u = (0, -0).
    assert lines[1 + width + 4] == ("inf,4988,0,-0,4.9406564584124654e-324,"
                                    "1,-4.9406564584124654e-324")
    # t = -0.0 with the added direction, u = (-0, 0).
    assert lines[1 + 3 * width + count] == "-0,12964,-0,0,-0,-0,0"
    assert lines[1 + 8 * width + 6] == (
        "0.10000000000000001,6982,1.0000000000000001e+300,"
        "-1.0000000000000001e+300,-inf,123456789,inf")
    assert lines[-1] == ("9007199254740992,12964,-0,0,9007199254740992,"
                         "-1.0000000000000001e+300,-9007199254740992")


def test_empty_table_writes_header_only(tmp_path):
    for nodes, directions in ((0, 3), (3, 0), (0, 0)):
        table = _table(np.zeros(nodes), np.zeros((directions, 2)),
                       np.zeros((nodes, directions, 3)))
        assert len(table) == 0
        _assert_same_bytes(tmp_path, ["t", "dir_index", "u1", "a", "b", "c"],
                           [], table)


def test_export_and_write_peak_below_one_row_table(tmp_path):
    euclid = Manifold(2, [["1", "0"], ["0", "1"]])
    free = ForceField(euclid, ["0", "0"])
    cfg = BlowupConfig(p0=[0.0, 0.0], nu=1.0, resolution=256)
    record = simulate_blowup(euclid, free, cfg, 0.2, 1e-3)
    tracemalloc.start()
    try:
        header, table = export_front(record, output_every=1)
        report.write_csv(tmp_path / "front.csv", header, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) >= 50_000
    assert peak < len(table) * len(header) * 8

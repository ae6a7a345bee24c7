import json

import numpy as np

from frontshift.report import (FrontTable, dump_json, fmt_float, write_csv,
                               write_json)


def test_floats_print_seventeen_significant_digits():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert float(fmt_float(0.1)) == 0.1
    for value in (1 / 3, 2e-8, -123456.789, 1e300, 5e-324):
        assert float(fmt_float(value)) == value


def test_json_round_trips_and_encodes_nonfinite_as_null():
    doc = {"a": 0.1, "b": [1, 2.5, float("nan")], "c": {"d": True,
                                                        "e": None},
           "f": "text", "g": float("inf")}
    text = dump_json(doc)
    parsed = json.loads(text)
    assert parsed["a"] == 0.1
    assert parsed["b"][2] is None
    assert parsed["c"] == {"d": True, "e": None}
    assert parsed["g"] is None


def test_json_handles_numpy_scalars_and_arrays():
    doc = {"i": np.int64(7), "x": np.float64(0.25), "flag": np.bool_(False),
           "arr": np.array([1.0, 2.0])}
    parsed = json.loads(dump_json(doc))
    assert parsed == {"i": 7, "x": 0.25, "flag": False, "arr": [1.0, 2.0]}


def test_csv_nan_token_and_digits(tmp_path):
    path = tmp_path / "t.csv"
    table = FrontTable(np.array([0.0]), np.array([[0.1]]),
                       (np.array([[[float("nan")]]]),))
    write_csv(path, ["a", "b", "c"], table)
    lines = path.read_text().splitlines()
    assert lines == ["a,b,c", "0,0.10000000000000001,nan"]


def test_write_json_deterministic(tmp_path):
    doc = {"z": [0.1, 2], "a": {"k": float("nan")}}
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    write_json(p1, doc)
    write_json(p2, doc)
    assert p1.read_bytes() == p2.read_bytes()

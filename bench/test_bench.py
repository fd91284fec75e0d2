"""Tests of the benchmark's own logic: report comparison and self times.

Run with ``python3 -m pytest bench``.  Nothing here instruments natstate in
the test process; the one end-to-end check runs in a child process.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
from layers import Tracer  # noqa: E402


class FakeClock:
    """Returns the scripted instants in order, one per call."""

    def __init__(self, instants):
        self.instants = iter(instants)

    def __call__(self):
        return next(self.instants)


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_children():
    # outer [0, 10] holds inner [2, 5] and leaf [6, 7]; leaf is its own group.
    tr = Tracer(FakeClock([0.0, 2.0, 5.0, 6.0, 7.0, 10.0]))
    leaf = tr.wrap(lambda: None, "b")
    inner = tr.wrap(lambda: None, "b")

    def body():
        inner()
        leaf()

    tr.wrap(body, "a")()
    assert tr.self_s["a"] == pytest.approx(6.0)
    assert tr.self_s["b"] == pytest.approx(4.0)
    assert tr.covered_s == pytest.approx(10.0)


def test_nested_same_group_counts_one_entry_and_no_double_time():
    tr = Tracer(FakeClock([0.0, 1.0, 3.0, 4.0]))
    inner = tr.wrap(lambda: None, "g")
    tr.wrap(lambda: inner(), "g")()
    assert tr.calls["g"] == 1
    assert tr.self_s["g"] == pytest.approx(4.0)


def test_group_can_depend_on_the_receiver():
    class Op:
        def __init__(self, tv):
            self.time_invariant = not tv

    tr = Tracer(FakeClock([0.0, 1.0, 1.0, 3.0]))
    run = tr.wrap(lambda op: None,
                  lambda op: "poly" if op.time_invariant else "poly_tv")
    run(Op(tv=True))
    run(Op(tv=False))
    assert tr.calls == {"poly_tv": 1, "poly": 1}
    assert tr.self_s["poly_tv"] == pytest.approx(1.0)
    assert tr.self_s["poly"] == pytest.approx(2.0)


def test_attribution_adds_up_and_flags_an_open_span():
    tr = Tracer(FakeClock([1.0, 4.0]))
    tr.wrap(lambda: None, "a")()
    att = tr.attribution(wall_s=5.0)
    assert att["ok"]
    assert att["uninstrumented_s"] == pytest.approx(2.0)
    assert att["self_total_s"] + att["uninstrumented_s"] == pytest.approx(5.0)
    tr.stack.append([0.0, "a"])  # a span that never closed
    assert not tr.attribution(wall_s=5.0)["ok"]


def test_span_closes_when_the_call_raises():
    tr = Tracer(FakeClock([0.0, 2.0]))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap(boom, "a")()
    assert len(tr.stack) == 1 and tr.self_s["a"] == pytest.approx(2.0)


# -- report comparison -----------------------------------------------------------


def test_close_lets_ulp_drift_through_and_catches_wrong_digits():
    x = 4.455123456789
    assert compare.close(x, x * (1 + 3e-15))
    assert not compare.close(x, x * (1 + 1e-6))
    assert compare.close(0.0, 1e-17)
    assert not compare.close(0.0, 1e-6)
    assert compare.close(math.inf, math.inf)
    assert not compare.close(math.inf, 1e308)
    assert compare.close(math.nan, math.nan)


def test_exact_types_must_match_exactly():
    ref = {"passed": True, "count": 3, "name": "a", "v": [1.0, None]}
    assert compare.compare_values(ref, dict(ref), "r") == []
    assert compare.compare_values(ref, {**ref, "passed": False}, "r")
    assert compare.compare_values(ref, {**ref, "count": 4}, "r")
    assert compare.compare_values(ref, {**ref, "count": 3.0}, "r")
    assert compare.compare_values(ref, {**ref, "name": "b"}, "r")
    assert compare.compare_values(ref, {**ref, "v": [1.0]}, "r")
    assert compare.compare_values(ref, {**ref, "extra": 1}, "r")
    assert compare.compare_values(ref, {**ref, "v": [1.0 + 1e-15, None]},
                                  "r") == []


def test_csv_cells_are_typed_like_the_cli_writes_them():
    ref = "a,b,c,d\n1,0.5,true,x\n"
    assert compare.compare_csv(ref, "a,b,c,d\n1,0.5000000000000001,true,x\n",
                               "t") == []
    assert compare.compare_csv(ref, "a,b,c,d\n1,0.5,false,x\n", "t")
    assert compare.compare_csv(ref, "a,b,c,d\n2,0.5,true,x\n", "t")
    assert compare.compare_csv(ref, "a,b,x,d\n1,0.5,true,x\n", "t")
    assert compare.compare_csv(ref, ref + "1,0.5,true,x\n", "t")


def test_compare_dirs_checks_the_file_set(tmp_path):
    ref, got = tmp_path / "ref", tmp_path / "got"
    for d in (ref, got):
        d.mkdir()
        (d / "e.json").write_text(json.dumps({"passed": True, "x": 1.5}))
    assert compare.compare_dirs(str(ref), str(got)) == []
    (got / "e_t.csv").write_text("a\n1\n")
    assert compare.compare_dirs(str(ref), str(got))
    assert compare.compare_dirs(str(tmp_path / "none"), str(got))


# -- instrumentation, in a child process --------------------------------------------


def test_traced_pass_counts_layers_without_changing_reports(tmp_path):
    src = BENCH.parent / "src"
    if not (src / "natstate").is_dir():
        pytest.skip("no natstate sources next to the benchmark")
    config = tmp_path / "c.toml"
    config.write_text("[run]\n")
    runs = [["memory-causality", "memory-causality", ""]]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    results = []
    for trace in (False, True):
        job = {"mode": "pass", "trace": trace, "seed": 3,
               "config": str(config), "runs": runs,
               "out": str(tmp_path / f"out{int(trace)}"),
               "result": str(tmp_path / f"r{int(trace)}.json")}
        subprocess.run([sys.executable, str(BENCH / "child.py"),
                        json.dumps(job)], env=env, check=True, timeout=120)
        results.append(json.loads(Path(job["result"]).read_text()))
    plain, traced = results
    assert plain["runs"][0]["rc"] == traced["runs"][0]["rc"] == 0
    layer = traced["layers"]
    assert traced["attribution_ok"]
    assert layer["sysop.conv.calls"] == 2
    assert layer["sysop.poly.calls"] == 0
    assert layer["seminorm.window.calls"] >= 3
    assert layer["timegrid.construct.calls"] > 0
    name = "memory-causality.json"
    assert ((tmp_path / "out0" / "memory-causality" / name).read_bytes()
            == (tmp_path / "out1" / "memory-causality" / name).read_bytes())

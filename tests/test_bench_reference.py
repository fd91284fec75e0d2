"""Reports at the benchmark's sizes against the reference stored with it.

Every workload runs in process at ``bench/run.py``'s sizes and default
seed, every run must pass, and each report directory must match
``bench/reference/<workload>/<label>`` under ``bench/compare.py``'s
tolerance, so a change that moves a report beyond it fails here before the
benchmark sees it.  As in ``bench/run.py``'s ``check_pass``, a run that
passes where its reference recorded a failure is a fixed defect, not a
mismatch, and is not compared: the derivatives workload's
``trajectory-derivative.cubic-volterra`` reference still records such a
failure.  No experiment seeds its probes from ``hash``, so the result does
not depend on the hash seed.  The test reads ``bench/`` and writes nothing
there.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from natstate.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_run():
    """``bench/run.py`` as a module, without writing bytecode into
    ``bench/``."""
    flag, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    return module


@pytest.mark.parametrize("workload", ["poly-bounds", "norm-axioms",
                                      "linear-states", "derivatives"])
def test_workload_reports_match_the_bench_reference(tmp_path, workload):
    bench = _bench_run()
    config = tmp_path / "sizes.toml"
    config.write_text(bench.config_text(workload))
    for name, system in bench.WORKLOADS[workload][1]:
        label = bench.run_label(name, system)
        out = tmp_path / label
        argv = ["run", "--config", str(config), "--experiment", name,
                "--seed", str(bench.DEFAULT_SEED), "--out", str(out)]
        if system:
            argv += ["--system", system]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, label
        ref = BENCH / "reference" / workload / label
        if not bench._reference_failed(ref / f"{name}.json"):
            assert bench.compare_dirs(str(ref), str(out)) == [], label

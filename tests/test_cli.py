import contextlib
import filecmp
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import natstate
from natstate import (Grid, PolyIntegralOperator, PolyKernel, TimeFunction,
                      catalog)
from natstate.cli import _check_config, main, parse_config_text
from natstate.experiments import EXPERIMENTS, RunConfig, claim
from natstate.kernel import write_kernel_csv


def test_list_commands(capsys):
    assert main(["list", "experiments"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) >= 12
    assert "tail-separation" in out
    assert main(["list", "systems"]) == 0
    assert "quadratic-volterra" in capsys.readouterr().out
    assert main(["list", "families"]) == 0
    assert "exp-l2" in capsys.readouterr().out


def test_describe_system(capsys):
    assert main(["describe", "averager-1x"]) == 0
    out = capsys.readouterr().out
    assert "tail_gain = 1.0" in out
    assert "response_support = 1.0" in out


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_describe_prints_the_claim(capsys, name):
    assert main(["describe", name]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"experiment: {name}"
    assert out[1] == f"  {claim(name)}" and len(claim(name)) > 40


def test_describe_experiment_hypotheses(capsys):
    assert main(["describe", "state-set-identity"]) == 0
    out = capsys.readouterr().out
    assert "requires:" in out and "tapered" in out


def test_describe_family(capsys):
    assert main(["describe", "exp-l2"]) == 0
    out = capsys.readouterr().out
    assert "memory class = tapered" in out


def test_describe_unknown(capsys):
    assert main(["describe", "nonesuch"]) == 2


def test_run_unknown_experiment(tmp_path, capsys):
    assert main(["run", "--experiment", "nonesuch"]) == 2
    assert "config error" in capsys.readouterr().err
    # An unknown name in the list stops the run before any experiment runs.
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text('experiments = ["taper", "nonesuch"]\n')
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: unknown experiments: ['nonesuch']\n"
    assert "PASS" not in captured.out and not out.exists()


def test_config_parsing():
    cfg = parse_config_text("""
    # a comment
    [run]
    dt = 0.02
    seed = 99
    experiments = ["taper", "tail-separation"]
    out = "reports"
    flag = true
    """)
    assert cfg == {"run": {"dt": 0.02, "seed": 99,
                           "experiments": ["taper", "tail-separation"],
                           "out": "reports", "flag": True},
                   "family": {}, "system": {}}
    # '#' inside a quoted string is data, lists may span lines, and a
    # top-level key is a run key.
    cfg = parse_config_text("""
    seed = 7
    [system.fromfile]
    kernel_csv = "runs#1/k.csv"  # a comment
    [family.f]
    form = "exp"
    rate = 2.0
    [run]
    experiments = [
        "taper",
        "ff-axioms",
    ]
    """)
    assert cfg == {"run": {"seed": 7, "experiments": ["taper", "ff-axioms"]},
                   "family": {"f": {"form": "exp", "rate": 2.0}},
                   "system": {"fromfile": {"kernel_csv": "runs#1/k.csv"}}}
    with pytest.raises(ValueError):
        parse_config_text("just some words\n")
    for text, table in (("[runn]\ndt = 0.02", "runn"),
                        ("[run.sub]\nk = 1", "run.sub"),
                        ("[family]\nk = 1", "family"),
                        ("[system.x.sub]\nk = 1", "system.x.sub"),
                        ('[system.x]\nA = {a = 1}', "system.x.A"),
                        ("x = {a = 1}", "x")):
        with pytest.raises(ValueError, match=re.escape(f"[{table}]")):
            parse_config_text(text)


def test_run_single_experiment_reports(tmp_path, capsys):
    out = str(tmp_path / "rep")
    rc = main(["run", "--experiment", "taper", "--out", out])
    assert rc == 0
    assert "PASS  taper" in capsys.readouterr().out
    payload = json.load(open(os.path.join(out, "taper.json")))
    assert payload["passed"] is True
    assert "claim" in payload and payload["metrics"]["exp_delta"] > 4.0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary == [{"name": "taper", "passed": True}]


def test_run_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text('[run]\ndt = 0.02\n'
                       'experiments = ["tail-separation"]\n')
    out = str(tmp_path / "rep")
    rc = main(["run", "--config", str(cfgfile), "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "tail-separation.json"))
    csvs = [f for f in os.listdir(out) if f.endswith(".csv")]
    assert any("distances" in f for f in csvs)


def test_seed_determinism_bytes(tmp_path):
    outs = []
    for k in (1, 2):
        out = str(tmp_path / f"r{k}")
        rc = main(["run", "--experiment", "tail-separation", "--seed", "777",
                   "--out", out])
        assert rc == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for n in names:
        assert filecmp.cmp(os.path.join(outs[0], n),
                           os.path.join(outs[1], n), shallow=False), n


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # The experiments that seed probes per system name, each hash seed in a
    # fresh process: string hashes change from process to process.
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text('experiments = ["state-bounds", "causality", '
                       '"frechet-derivatives"]\n[run]\nbound_probes = 20\n')
    src = str(Path(natstate.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("0", "1", "2"):
        out = tmp_path / f"h{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-m", "natstate.cli", "run",
                        "--config", str(cfgfile), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert "state-bounds.json" in names
    for out in outs[1:]:
        assert names == sorted(os.listdir(out))
        for n in names:
            assert filecmp.cmp(outs[0] / n, out / n, shallow=False), n


@pytest.mark.parametrize("threads", ["2", "two"])
def test_thread_variable_is_ignored(tmp_path, monkeypatch, threads):
    # Experiments run one after another; a NATSTATE_THREADS left in the
    # environment changes neither the exit code nor a report byte.
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text('experiments = ["taper", "memory-causality"]\n')
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    monkeypatch.delenv("NATSTATE_THREADS", raising=False)
    assert main(["run", "--config", str(cfgfile), "--out", out1]) == 0
    monkeypatch.setenv("NATSTATE_THREADS", threads)
    assert main(["run", "--config", str(cfgfile), "--out", out2]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for n in names:
        assert filecmp.cmp(os.path.join(out1, n), os.path.join(out2, n),
                           shallow=False), n


def test_registry_size():
    assert len(EXPERIMENTS) >= 12


def test_exit_code_one_on_failure(monkeypatch, capsys):
    from natstate import experiments as ex

    def failing(cfg, res):
        """deliberately failing stub"""
        res.metric("held", 0.0, "==", 0.0)
        res.metric("stub_gap", 0.25, "<=", 1e-9)

    monkeypatch.setitem(ex.EXPERIMENTS, "taper", failing)
    assert main(["run", "--experiment", "taper"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["FAIL  taper", "      deliberately failing stub",
                   "      failed stub_gap: observed 0.25, bound <= 1e-09"]


def test_family_flag_and_config_sections(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.toml"
    cfgfile.write_text(
        '[family.quickfade]\n'
        'kind = "weighted_lp"\np = 2.0\nform = "exp"\nrate = 3.0\n'
        '[system.tiny-conv]\n'
        'variant = "conv"\nresponse_form = "box"\nsupport = 0.5\n'
        'tail_gain = 0.0\ninput_family = "quickfade"\n'
        'output_family = "esssup"\n')
    rc = main(["run", "--config", str(cfgfile), "--experiment", "ff-axioms",
               "--family", "quickfade"])
    assert rc == 0
    rc = main(["run", "--config", str(cfgfile), "--experiment", "causality",
               "--system", "tiny-conv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS  causality" in out


def test_system_flag_refusal_route(capsys):
    rc = main(["run", "--experiment", "trajectory-derivative",
               "--system", "quadratic-volterra-tv"])
    assert rc == 0
    assert "refused" in capsys.readouterr().out


@pytest.mark.parametrize("experiment, dt", [
    ("state-closed-form", "0.04"), ("npower-bounds", "0.04"),
    ("reachability", "0.04"), ("trajectory-derivative", "0.04"),
    ("causality", "0.03"), ("shared-state-set", "0.03"),
    ("state-bounds", "0.04"), ("kernel-identify", "0.04"),
    ("kernel-identify", "0.02"), ("ff-axioms", "0.03"), ("ff-axioms", "0.04"),
    ("memory-causality", "0.04")])
def test_misaligned_dt_is_a_config_error(tmp_path, capsys, experiment, dt):
    out = tmp_path / "rep"
    assert main(["run", "--experiment", experiment, "--dt", dt,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {experiment}: ")
    assert "is not a multiple of dt" in err
    assert not out.exists()


def test_misaligned_dt_stops_the_run(tmp_path, capsys):
    # The first experiment runs at dt 0.04; the second cannot.
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text('[run]\ndt = 0.04\nexperiments = '
                       '["taper", "trajectory-derivative"]\n')
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: trajectory-derivative: ")
    assert "PASS" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("flags, toml", [
    (["--dt", "0"], ""),
    (["--dt", "nan"], ""),
    (["--dt", "-0.01"], ""),
    ([], 'dt = "abc"'),
    ([], "seed = 1.5"),
    ([], "probes = 0"),
    ([], "futures = true"),
    (["--family", "nonesuch"], ""),
    (["--system", "nonesuch"], ""),
    ([], 'family = "nonesuch"'),
    ([], "horizon = 2.0"),
    ([], "[runn]\ndt = 0.02"),
    ([], '[sytem.x]\nvariant = "nonesuch"'),
    ([], "[family.q.sub]\nk = 1"),
], ids=["dt-zero", "dt-nan", "dt-negative", "dt-string", "seed-float",
        "probes-zero", "futures-bool", "family-flag", "system-flag",
        "family-key", "unknown-key", "misspelled-run-table",
        "misspelled-system-table", "family-sub-table"])
def test_bad_run_config_exits_2(tmp_path, capsys, flags, toml):
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text(f"[run]\n{toml}\n")
    out = tmp_path / "rep"
    # taper reads none of these settings' bad values: only the validation
    # can stop it.
    assert main(["run", "--config", str(cfgfile), "--experiment", "taper",
                 "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "PASS" not in captured.out and not out.exists()


@pytest.mark.parametrize("toml, reason", [
    ('[family.bad]\nform = "exp"', "[family.bad] is missing key 'rate'"),
    ('[system.bad]\nvariant = "nonesuch"',
     "[system.bad] has unknown variant 'nonesuch'"),
    ('[system.bad]\nvariant = "lti"\nA = [-1.0]\nB = [1.0]',
     "[system.bad] is missing key 'n_states'"),
    ('[system.bad]\nvariant = "lti"\nn_states = 1\nA = [[nan]]\nB = [[1.0]]',
     "[system.bad] A and B must be finite"),
    ('[system.bad]\nvariant = "conv"\ninput_family = "nonesuch"',
     "[system.bad] names unknown family 'nonesuch'"),
    ('[family.bad]\nform = "exp"\nrate = [1.0]', "[family.bad] "),
    ('[system.bad]\nvariant = "lti"\nn_states = 2.5\n'
     'A = [0.0, 1.0, -1.0, -0.6]\nB = [0.0, 1.0]',
     "[system.bad] n_states must be an integer >= 1"),
    ('[system.bad]\nvariant = "lti"\nn_states = 2\nA = [-1.0, 0.0, -1.0]\n'
     'B = [0.0, 1.0]', "[system.bad] A must hold 4 entries"),
    ('[system.bad]\nvariant = "lti"\nn_states = 2\nA = [-1.0, 0.0, 0.0, -1.0]\n'
     'B = [0.0, 1.0, 1.0]', "[system.bad] B must hold 2 x m entries"),
    ('[system.bad]\nvariant = "lti"\nn_states = 1\nA = [[1000.0]]\n'
     'B = [[1.0]]', "[system.bad] a unit step over its grid"),
    ('[system.bad]\nvariant = "poly"\ndegree = 2.5',
     "[system.bad] degree must be an integer from 1 to 3"),
    ('[system.bad]\nvariant = "poly"\ndegree = true',
     "[system.bad] degree must be an integer from 1 to 3"),
    ('[system.bad]\nvariant = "poly"\ndegree = 2\nrates = [3.0]',
     "[system.bad] rates must hold 2 numbers"),
    ('[system.bad]\nvariant = "conv"\nsupport = 0.015',
     "[system.bad] length 0.015 is not a multiple of dt=0.01"),
    ('[system.bad]\nvariant = "poly"\nconstant = nan',
     "[system.bad] a unit step over its grid gives a non-finite sample"),
    ('[system.bad]\nvariant = "poly"\ndegree = 3\n'
     'rates = [-300.0, -300.0, -300.0]',
     "[system.bad] a unit step over its grid gives a non-finite sample"),
    ('[system.bad]\nvariant = "poly"\nkernel_form = "box"\nlevel = 1e308',
     "[system.bad] a unit step over its grid gives a non-finite sample"),
    ('[family.bad]\nform = "exp"\nrate = 1.0\nvector_norm = "maxx"',
     "[family.bad] vector_norm must be 'euclidean' or 'max', got 'maxx'"),
    ('[run]\nexperiments = "taper"', "experiments must be a non-empty list"),
    ('[run]\nexperiments = ["taper", 1]',
     "experiments must be a non-empty list"),
], ids=["family-missing-key", "system-unknown-variant",
        "system-missing-key", "system-nan-matrix", "system-unknown-family",
        "family-wrong-type", "system-fractional-n-states",
        "system-a-entries", "system-b-entries", "system-overflowing-lti",
        "system-fractional-degree", "system-bool-degree",
        "system-short-rates", "system-misaligned-support",
        "system-nan-constant", "system-overflowing-kernel",
        "system-overflowing-level", "family-unknown-vector-norm",
        "experiments-string", "experiments-non-string"])
def test_bad_config_section_exits_2(tmp_path, capsys, toml, reason):
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text(toml + "\n")
    out = tmp_path / "rep"
    # The bad section is never used by taper: only the validation can
    # stop the run.
    assert main(["run", "--config", str(cfgfile), "--experiment", "taper",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {reason}")
    assert "PASS" not in captured.out and not out.exists()


def test_config_check_steps_a_polynomial_system_over_its_support(
        monkeypatch):
    # A polynomial section's unit step spans its kernel support plus one
    # cell, 21 instants at support 0.4 s and dt 0.02, not the system's
    # 6 s grid.  Every later row of the step over the whole grid equals
    # the last row of the short one, so the check loses nothing.
    spec = {"variant": "poly", "degree": 3, "support": 0.4, "constant": 0.1}
    steps = []
    apply_all = PolyIntegralOperator.apply_all

    def spy(self, us):
        steps.extend(us)
        return apply_all(self, us)

    monkeypatch.setattr(PolyIntegralOperator, "apply_all", spy)
    _check_config(replace(RunConfig(dt=0.02), system_specs={"s": spec}))
    assert [u.grid for u in steps] == [Grid(0.02, 0, 21)]
    b = catalog.system_from_spec("s", spec, 0.02)
    g = b.grid(0.02)
    short = apply_all(b.system, steps)
    full = apply_all(b.system, [TimeFunction(g, np.ones(g.n), 0.0)])
    assert np.array_equal(full.samples[0, :21], short.samples[0])
    assert (full.samples[0, 21:] == short.samples[0, -1]).all()


@pytest.mark.parametrize("toml, reason", [
    ('[family.bad]\nform = "exp"\nrate = 1e300',
     "[family.bad] rate 1e+300 with alpha 1.0 overflows K = exp(rate * alpha)"),
    ('[family.bad]\nform = "exp"\nrate = nan',
     "[family.bad] rate must be positive and finite, got nan"),
    ('[family.bad]\nform = "exp"\nrate = 1.0\nalpha = -1.0',
     "[family.bad] alpha must be positive and finite, got -1.0"),
    ('[family.bad]\nform = "box"\nmemory = inf',
     "[family.bad] memory length must be positive and finite, got inf"),
    ('[family.bad]\nkind = "output_window"\nwindow_b = nan',
     "[family.bad] window length b must be positive and finite, got nan"),
    ('[family.bad]\nkind = "output_window"\nwindow_b = 0.0',
     "[family.bad] window length b must be positive and finite, got 0.0"),
    ('[system.bad]\nvariant = "conv"\npast_window = -1.0',
     "[system.bad] past_window must be positive and finite, got -1.0"),
    ('[system.bad]\nvariant = "conv"\npast_window = nan',
     "[system.bad] past_window must be positive and finite, got nan"),
    ('[system.bad]\nvariant = "lti"\nn_states = 1\nA = [-1.0]\nB = [1.0]\n'
     'horizon = 0.0', "[system.bad] horizon must be positive and finite, got 0.0"),
    ('[system.bad]\nvariant = "conv"\nhorizon = inf',
     "[system.bad] horizon must be positive and finite, got inf"),
], ids=["exp-rate-overflows-K", "exp-rate-nan", "exp-alpha-negative",
        "box-memory-inf", "window-b-nan", "window-b-zero",
        "past-window-negative", "past-window-nan", "horizon-zero",
        "horizon-inf"])
def test_weights_and_system_windows_must_be_positive_and_finite(
        tmp_path, capsys, toml, reason):
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text(toml + "\n")
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfgfile), "--experiment", "taper",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {reason}\n"
    assert "PASS" not in captured.out and not out.exists()


def test_kernel_file_of_another_dt_is_a_config_error(tmp_path, capsys):
    # A kernel written at dt 0.02 runs at dt 0.02, and cannot be read at
    # the default dt 0.01.
    ker = PolyKernel(2, 0.1, func=lambda s1, s2: np.exp(-s1 - s2))
    write_kernel_csv(ker, 0.02, str(tmp_path / "k.csv"))
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text('[system.s]\nvariant = "poly"\n'
                       f'kernel_csv = "{tmp_path / "k.csv"}"\n')
    argv = ["run", "--config", str(cfgfile), "--experiment", "causality",
            "--system", "s"]
    assert main([*argv, "--dt", "0.02"]) == 0
    assert "PASS  causality" in capsys.readouterr().out
    out = tmp_path / "rep"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: [system.s] a unit step over its "
                            "grid gives a grid-backed kernel sampled at a "
                            "different dt\n")
    assert "PASS" not in captured.out and not out.exists()


@pytest.mark.parametrize("old, new, reason", [
    ("degree=2 ", "", "line 1: header has no degree"),
    ("dt=0.01", "dt=fine", "line 1: could not convert string to float: "
     "'fine'"),
    ("degree=2", "degree=2.0", "line 1: invalid literal for int() with "
     "base 10: '2.0'"),
    ("degree=2", "degree=0", "line 1: need degree and input_dim >= 1 and a "
     "positive support and dt, got {'degree': '0', 'input_dim': '1', "
     "'support': '0.04', 'dt': '0.01'}"),
    ("support=0.04", "support=1000.0", "line 1: a degree-2 kernel of 1 "
     "inputs and 100000 lag cells holds 1e+10 samples, more than the cap of "
     "1,000,000"),
    ("\n0.01,0.01,11,", "\n0.01,11,", "line 3: 3 fields, need 4"),
    ("\n0.01,0.02,11,1.0", "\n0.01,0.02,11,1.0,7", "line 4: 5 fields, need 4"),
    ("\n0.01,0.02,11,", "\n0.01,0.05,11,", "line 4: lags ['0.01', '0.05'] "
     "are not all cells in 1..4 of dt=0.01"),
    ("\n0.01,0.02,11,", "\n0.01,0.0,11,", "line 4: lags ['0.01', '0.0'] "
     "are not all cells in 1..4 of dt=0.01"),
    ("\n0.01,0.02,11,", "\n0.01,0.025,11,", "line 4: length 0.025 is not a "
     "multiple of dt=0.01"),
    ("\n0.01,0.02,11,", "\n0.01,0.02,12,", "line 4: index '12' is not 2 "
     "digits in 1..1"),
    ("\n0.01,0.02,11,", "\n0.01,0.02,1,", "line 4: index '1' is not 2 "
     "digits in 1..1"),
    ("\n0.01,0.02,11,", "\n0.01,0.02,1x,", "line 4: invalid literal for "
     "int() with base 10: 'x'"),
    ("\n0.01,0.02,11,1.0", "\n0.01,0.02,11,one", "line 4: could not "
     "convert string to float: 'one'"),
    ("\n0.01,0.02,11,1.0", "\n0.01,0.02,11,nan", "line 4: value 'nan' is "
     "not a finite number"),
    ("\n0.01,0.02,11,", "\n0.01,inf,11,", "line 4: lag 'inf' is not a "
     "finite number"),
], ids=["header-key", "header-number", "header-integer", "header-degree",
        "cap", "few-fields", "many-fields", "lag-beyond-support", "lag-zero",
        "lag-off-grid", "index-digit", "index-length", "index-letter", "value",
        "value-nan", "lag-inf"])
def test_malformed_kernel_csv_exits_2(tmp_path, capsys, old, new, reason):
    # A kernel CSV that write_kernel_csv could not have written is refused
    # with its file and line, never with a traceback or a misplaced sample.
    path = tmp_path / "k.csv"
    write_kernel_csv(PolyKernel(2, 0.04, func=lambda a, b: np.ones_like(a)),
                     0.01, str(path))
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text(f'[system.x]\nvariant = "poly"\nkernel_csv = "{path}"\n')
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfgfile), "--experiment", "taper",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: [system.x] {path} {reason}\n"
    assert "PASS" not in captured.out and not out.exists()


def test_missing_kernel_csv_names_its_section(tmp_path, capsys):
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text('[system.x]\nvariant = "poly"\nkernel_csv = "nofile.csv"\n')
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfgfile), "--experiment", "taper",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: [system.x] ")
    assert "nofile.csv" in captured.err and "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("toml, reason", [
    ('[system.bad]\nvariant = "conv"\nsupport = 1e6',
     "[system.bad] support 1000000.0 takes 1e+08 cells at dt=0.01, more "
     "than the cap of 1,000,000"),
    ('[system.bad]\nvariant = "conv"\nsupport = inf',
     "[system.bad] support must be positive and finite, got inf"),
    ('[system.bad]\nvariant = "poly"\ndegree = 1\nsupport = 1e5',
     "[system.bad] support 100000.0 takes 1e+07 cells at dt=0.01, more "
     "than the cap of 1,000,000"),
    ('[system.bad]\nvariant = "poly"\ndegree = 3\nsupport = 1.01',
     "[system.bad] a degree-3 kernel of support 1.01 takes 1.03e+06 cells "
     "at dt=0.01, more than the cap of 1,000,000"),
    ('[system.bad]\nvariant = "poly"\nkernel_form = "box"\nsupport = 10.01',
     "[system.bad] a degree-2 kernel of support 10.01 takes 1.002e+06 "
     "cells at dt=0.01, more than the cap of 1,000,000"),
    ('[system.bad]\nvariant = "lti"\nn_states = 1\nA = [-1.0]\nB = [1.0]\n'
     'past_window = 1e5', "[system.bad] past_window 100000.0 takes 1e+07 "
     "cells at dt=0.01, more than the cap of 1,000,000"),
    ('[system.bad]\nvariant = "conv"\nhorizon = 2e4',
     "[system.bad] horizon 20000.0 takes 2e+06 cells at dt=0.01, more than "
     "the cap of 1,000,000"),
], ids=["conv-support", "conv-support-inf", "poly-support",
        "degree-3-kernel", "degree-2-kernel", "past-window", "horizon"])
def test_config_lengths_above_the_cell_cap_exit_2(tmp_path, capsys, toml,
                                                   reason):
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text(toml + "\n")
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfgfile), "--experiment", "taper",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {reason}\n"
    assert "PASS" not in captured.out and not out.exists()


def test_shipped_systems_and_demo_config_stay_under_the_cell_cap():
    # The refusal is for config sections; no built-in system, nor the
    # example config, comes near it at the benchmark's dt.
    dt, cap = 0.01, catalog.CELL_CAP
    for name in catalog.SYSTEMS:
        b = catalog.system(name, dt)
        assert b.grid(dt).n <= cap, name
        op = b.system
        for ker in getattr(op, "kernels", {}).values():
            assert ker.grid_size(dt) ** ker.degree <= cap, name
        if hasattr(op, "h"):
            assert op.h.grid.n <= cap, name
    # A degree-3 kernel of one second, the default support, is at the cap.
    at_cap = {"variant": "poly", "degree": 3}
    assert catalog.system_from_spec("s", at_cap, dt).system.kernels[
        3].grid_size(dt) ** 3 == cap
    demo = parse_config_text(
        (Path(__file__).resolve().parents[1] / "demo.toml").read_text())
    fams = {name: catalog.family_from_spec(name, spec)
            for name, spec in demo["family"].items()}
    for name, spec in demo["system"].items():
        catalog.system_from_spec(name, spec, dt, fams)


def test_box_memory_off_the_grid_is_a_config_error(tmp_path, capsys):
    # 0.015 s is a cell and a half at dt 0.01: refused, never snapped.
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text('[family.b]\nform = "box"\nmemory = 0.015\n')
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfgfile), "--experiment", "ff-axioms",
                 "--family", "b", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "config error: ff-axioms: length 0.015 is not a multiple of dt=0.01")
    assert "PASS" not in captured.out and not out.exists()


def test_readme_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert float(capsys.readouterr().out.split()[-1]) >= 1.0


# -- config fuzz -------------------------------------------------------------

_BIG = 10 ** 330  # an integer too large for a float
_ODD = [math.nan, math.inf, -math.inf, 0.0, 0, -1.0, -3, 1e-300, 1e300, _BIG,
        -_BIG, True, "x", [1.0], []]
_FAMILY_KEYS = {
    "kind": ["weighted_lp", "sup", "unweighted_sup", "output_window"],
    "form": ["uniform", "exp", "box"], "p": [1.0, 2.0, 3.5],
    "rate": [1.0, 0.5], "alpha": [1.0, 0.5], "memory": [1.0, 0.5],
    "window_b": [1.0, 2.0], "vector_norm": ["euclidean", "max"]}
_SYSTEM_KEYS = {
    "variant": ["conv", "lti", "poly"], "support": [0.5, 1.0],
    "response_form": ["box", "exp"], "rate": [1.0], "tail_gain": [0.0, 1.0],
    "n_states": [1, 2], "A": [[-1.0], [-1.0, 0.0, 0.0, -2.0]],
    "B": [[1.0], [1.0, 0.5]], "degree": [1, 2, 3],
    "kernel_form": ["exp", "box"], "rates": [[1.0], [1.0, 2.0]],
    "level": [1.0], "constant": [0.0, 1.0], "past_window": [1.0, 4.0],
    "horizon": [1.0, 2.0], "input_family": ["uniform-l2", "exp-l2", "f"],
    "output_family": ["esssup", "f"]}


def _section(keys):
    """A section of a few keys, each a value it takes or an odd one."""
    pair = st.sampled_from(sorted(keys)).flatmap(lambda k: st.tuples(
        st.just(k), st.sampled_from(keys[k] + _ODD)))
    return st.lists(pair, max_size=5).map(dict)


def _toml(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[" + ", ".join(map(_toml, v)) + "]"
    return json.dumps(v) if isinstance(v, str) else repr(v)


def _floats(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in _floats(v)]
    return [obj] if isinstance(obj, float) else []


@settings(max_examples=400, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    "family.f": _section(_FAMILY_KEYS), "system.s": _section(_SYSTEM_KEYS)}))
# Values that crashed, or were misreported, before they were refused.
@example({"run": {"dt": _BIG}})
@example({"family.f": {"form": "exp", "rate": _BIG}})
@example({"system.s": {"variant": "conv", "support": _BIG}})
@example({"system.s": {"variant": "poly", "support": 1e-300}})
@example({"system.s": {"variant": "nonesuch"}})
@example({"family.f": {"form": "exp"}})
@example({"family.f": {"form": "exp", "rate": [1.0]}})
@example({"run": {"experiments": "taper"}})
@example({"system.s": {"variant": "lti", "n_states": 1, "A": [1000.0],
                       "B": [1.0]}})
@example({"system.s": {"variant": "lti", "n_states": 2.5, "A": [-1.0],
                       "B": [1.0]}})
@example({"system.s": {"variant": "poly", "degree": 2.5}})
@example({"system.s": {"variant": "conv", "support": 0.015}})
@example({"system.s": {"variant": "poly", "kernel_csv": "nofile.csv"}})
def test_config_fuzz_exits_cleanly(sections):
    # Any value in a family or system section ends the run with exit 0, 1
    # or 2 and no traceback; a refusal names the drawn section, and a
    # written report holds only finite floats.
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {_toml(v)}\n"
                                            for k, v in keys.items())
                   for name, keys in sections.items())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "c.toml"), Path(tmp, "rep")
        cfg.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(["run", "--config", str(cfg), "--experiment", "taper",
                       "--out", str(out)])
        reports = [p.read_text() for p in out.glob("*")]
    msg = err.getvalue()
    assert rc in (0, 1, 2) and "Traceback" not in msg, msg
    if rc == 2:
        assert msg.startswith("config error: ") and not reports, msg
        assert "run" in sections or any(f"[{name}]" in msg
                                        for name in sections), msg
        assert "dt" not in sections.get("run", {}) or "dt" in msg, msg
    for text in reports:
        assert all(map(math.isfinite, _floats(json.loads(text))))

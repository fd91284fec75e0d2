import filecmp
import json
import os

import pytest

from natstate.cli import main, parse_config_text
from natstate.experiments import EXPERIMENTS


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


def test_run_unknown_experiment(capsys):
    assert main(["run", "--experiment", "nonesuch"]) == 2
    assert "config error" in capsys.readouterr().err


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
    assert cfg["dt"] == 0.02 and cfg["seed"] == 99
    assert cfg["experiments"] == ["taper", "tail-separation"]
    assert cfg["out"] == "reports" and cfg["flag"] is True
    # '#' inside a quoted string is data, and lists may span lines.
    cfg = parse_config_text("""
    [system.fromfile]
    kernel_csv = "runs#1/k.csv"  # a comment
    [run]
    experiments = [
        "taper",
        "ff-axioms",
    ]
    """)
    assert cfg["system.fromfile.kernel_csv"] == "runs#1/k.csv"
    assert cfg["experiments"] == ["taper", "ff-axioms"]
    with pytest.raises(ValueError):
        parse_config_text("just some words\n")


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


def test_threaded_run_same_bytes(tmp_path):
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text('experiments = ["taper", "memory-causality"]\n')
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", str(cfgfile), "--out", out1]) == 0
    os.environ["NATSTATE_THREADS"] = "2"
    try:
        assert main(["run", "--config", str(cfgfile), "--out", out2]) == 0
    finally:
        del os.environ["NATSTATE_THREADS"]
    for n in sorted(os.listdir(out1)):
        assert filecmp.cmp(os.path.join(out1, n), os.path.join(out2, n),
                           shallow=False), n


def test_registry_size():
    assert len(EXPERIMENTS) >= 12


def test_exit_code_one_on_failure(monkeypatch, capsys):
    from natstate import experiments as ex

    def failing(cfg):
        return ex.ExperimentResult("taper", "deliberately failing stub",
                                   False)

    monkeypatch.setitem(ex.EXPERIMENTS, "taper", failing)
    assert main(["run", "--experiment", "taper"]) == 1
    assert "FAIL  taper" in capsys.readouterr().out


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

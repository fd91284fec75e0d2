import pytest

from natstate.experiments import (EXPERIMENTS, ExperimentResult, RunConfig,
                                  run_experiment)
from natstate.sysop import PolyIntegralOperator


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_every_experiment_records_checks(name):
    r = run_experiment(name, RunConfig())
    assert r.name == name and r.checks
    assert r.passed == all(c.passed for c in r.checks)
    assert len({c.name for c in r.checks}) == len(r.checks)


def test_checks_compare_observed_with_bound():
    r = ExperimentResult("x", "claim")
    assert r.metric("gap", 0.5, "<=", 1.0) and r.metrics == {"gap": 0.5}
    assert r.passed
    # The first ratio may sit below the second; from the second on they may
    # not grow beyond the 1e-12 slack, and the last must reach a tenth.
    assert r.check("decay", [0.5, 1.0, 1.0 + 1e-13, 0.05], "decays to", 0.1)
    assert not r.check("slow", [1.0, 0.5, 0.2], "decays to", 0.1)
    assert not r.check("bump", [1.0, 0.5, 0.6, 0.01], "decays to", 0.1)
    assert r.check("ladder", [0.3, 0.2, 0.1], "decreasing within", 1e-9)
    assert not r.check("flat", [0.3, 0.2, 0.2], "decreasing within", 0.0)
    assert r.check("order", 1.1, "within", (0.8, 1.2))
    assert not r.passed
    assert [c.name for c in r.checks if not c.passed] == ["slow", "bump",
                                                          "flat"]


def test_npower_bounds_applies_each_unshifted_probe_once(monkeypatch):
    calls = []
    apply = PolyIntegralOperator.apply

    def counting(self, u):
        calls.append(u)
        return apply(self, u)

    monkeypatch.setattr(PolyIntegralOperator, "apply", counting)
    assert run_experiment("npower-bounds", RunConfig()).passed
    # 15 probes: one pass shared by every unshifted estimate (15), the
    # centered views at three instants (45), the uniformity check on six
    # probes at three instants (18) and the centered/uncentered pairs on
    # five probes (10).
    assert len(calls) == 15 + 45 + 18 + 10

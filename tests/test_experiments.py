import pytest

from natstate.experiments import (EXPERIMENTS, ExperimentResult, RunConfig,
                                  run_experiment)
from natstate.seminorm import FittedFamily
from natstate.sysop import LimsupConvolution, PolyIntegralOperator
from natstate.timegrid import AlignmentError


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_every_experiment_records_checks(name):
    r = run_experiment(name, RunConfig())
    assert r.name == name and r.checks
    assert r.passed == all(c.passed for c in r.checks)
    assert len({c.name for c in r.checks}) == len(r.checks)


# The experiments that a dt refuses: each uses an instant or a length in
# seconds, box memories included, that is not a whole number of its cells.
# shift-derivative pins its own dt, so it runs at every one.
_REFUSED_AT = {
    0.02: {"kernel-identify"},
    0.025: set(),
    0.03: set(EXPERIMENTS) - {"shift-derivative"},
    0.04: {"ff-axioms", "memory-causality", "state-closed-form",
           "npower-bounds", "kernel-identify", "reachability", "state-bounds",
           "trajectory-derivative"},
    0.05: set(),
}
_SWEEP = dict(probes=12, triples=5, pasts=4, futures=6, bound_probes=20)


@pytest.mark.parametrize("dt", sorted(_REFUSED_AT))
@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_each_dt_passes_or_refuses(name, dt):
    # A run either passes or refuses the dt: it never passes on a length
    # snapped to the nearest cell.
    try:
        r = run_experiment(name, RunConfig(dt=dt, **_SWEEP))
    except AlignmentError as e:
        assert name in _REFUSED_AT[dt], str(e)
        assert "is not a multiple of dt" in str(e)
        return
    assert name not in _REFUSED_AT[dt]
    assert r.passed, [c for c in r.checks if not c.passed]


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


def test_tail_separation_evaluates_each_state_once_per_future(monkeypatch):
    responses, norms = [], []
    future_response = LimsupConvolution.future_response
    future_norm = FittedFamily.future_norm

    def counting_response(self, summary, v):
        responses.append(v)
        return future_response(self, summary, v)

    def counting_norm(self, f, s):
        norms.append(self.name)
        return future_norm(self, f, s)

    monkeypatch.setattr(LimsupConvolution, "future_response",
                        counting_response)
    monkeypatch.setattr(FittedFamily, "future_norm", counting_norm)
    r = run_experiment("tail-separation", RunConfig(pasts=6))
    assert r.passed
    # Three pasts of each level and eleven futures (the zero one and ten
    # random): each state answers each future once, each future's input
    # norm is taken once, and each pair's difference is normed once.
    n_us = n_ws = 3
    n_futures = 11
    assert r.metrics["pairs"] == n_us * n_ws
    assert len(responses) == (n_us + n_ws) * n_futures
    assert norms.count("sup-linf") == n_futures
    assert norms.count("esssup-window-2") == n_us * n_ws * n_futures

import contextlib
import io
import tracemalloc

import pytest

from natstate.cli import main
from natstate.experiments import (EXPERIMENTS, ExperimentResult, RunConfig,
                                  run_experiment)
from natstate.seminorm import FittedFamily
from natstate.sysop import LimsupConvolution, PolyIntegralOperator
from natstate.timegrid import AlignmentError, TimeFunction


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


@pytest.mark.parametrize("name, bound", [("npower-bounds", 2.514 + 0.15),
                                         ("state-bounds", 2.333 + 0.15)])
def test_poly_bounds_traced_peak_at_the_bench_shape(tmp_path, name, bound):
    # One command-line run at the poly-bounds benchmark's sizes (ACC with
    # 40 probes and 20 bound probes), seed 12345.  In a fresh process the
    # traced peaks were 2.514 and 2.333 MiB contracting every term over the
    # kernel grid, and the bound is that plus 0.15 MiB.  Within this test
    # (numpy 2.4) they read 2.37 and 2.34 MiB, and 2.33 and 2.33 MiB
    # through the kernels' slot factors; an elimination that holds a
    # residual-sized |R| and rank-one update reads 2.67 and 2.66 MiB.
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text("[run]\ndt = 0.01\nprobes = 40\ntriples = 50\n"
                       "pasts = 20\nfutures = 50\nbound_probes = 20\n")
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", "--config", str(cfgfile), "--experiment", name,
                       "--seed", "12345", "--out", str(tmp_path / "rep")])
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= bound, peak


def _count_batches(monkeypatch):
    """Record every ``LimsupConvolution.future_responses`` call (its number
    of futures) and every ``FittedFamily.future_norms`` call (the family's
    name and its number of functions)."""
    responses, norms = [], []
    future_responses = LimsupConvolution.future_responses
    future_norms = FittedFamily.future_norms

    def counting_responses(self, summary, vs):
        responses.append(len(vs))
        return future_responses(self, summary, vs)

    def counting_norms(self, fs, s):
        norms.append((self.name, len(fs)))
        return future_norms(self, fs, s)

    monkeypatch.setattr(LimsupConvolution, "future_responses",
                        counting_responses)
    monkeypatch.setattr(FittedFamily, "future_norms", counting_norms)
    return responses, norms


def _rows(norms, name):
    return sum(n for fam, n in norms if fam == name)


def _calls(norms, name):
    return sum(1 for fam, _ in norms if fam == name)


def test_tail_separation_evaluates_each_state_once_per_future(monkeypatch):
    responses, norms = _count_batches(monkeypatch)
    r = run_experiment("tail-separation", RunConfig(pasts=6))
    assert r.passed
    # Three pasts of each level and eleven futures (the zero one and ten
    # random): each state answers each future once, each future's input
    # norm is taken once, and each pair's difference is normed once.
    n_us = n_ws = 3
    n_futures = 11
    assert r.metrics["pairs"] == n_us * n_ws
    assert sum(responses) == (n_us + n_ws) * n_futures
    assert _rows(norms, "sup-linf") == n_futures
    assert _rows(norms, "esssup-window-2") == n_us * n_ws * n_futures
    # One batch per state, one for the input norms, one per pair.
    assert len(responses) == n_us + n_ws
    assert _calls(norms, "sup-linf") == 1
    assert _calls(norms, "esssup-window-2") == n_us * n_ws


def test_shared_state_set_evaluates_each_state_once_per_future(monkeypatch):
    responses, norms = _count_batches(monkeypatch)
    r = run_experiment("shared-state-set", RunConfig(pasts=5, futures=7))
    assert r.passed
    # Each past gives one state of each system; both answer all seven
    # futures in one batch, and the past's output gaps are one norm call.
    n_pasts, n_futures = 5, 7
    assert r.metrics["pasts"] == n_pasts
    assert r.metrics["futures"] == n_futures
    assert responses == [n_futures] * (2 * n_pasts)
    assert norms == [("esssup-window-2", n_futures)] * n_pasts


def test_linear_states_build_few_time_functions(monkeypatch):
    # A batch of futures, a state's responses to it and the differences of
    # two states' responses each travel as one validated stack, so no
    # per-future TimeFunction is built.  At these sizes the four
    # experiments build 156 (pasts, probes, ladder and steering inputs);
    # with one TimeFunction per future output and per difference they
    # built 1,060.
    built = []
    init = TimeFunction.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TimeFunction, "__init__", counted)
    cfg = RunConfig(dt=0.02, pasts=4, futures=6)
    for name in ("tail-separation", "shared-state-set", "state-set-identity",
                 "reachability"):
        assert run_experiment(name, cfg).passed, name
    assert len(built) <= 200

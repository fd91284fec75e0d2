import contextlib
import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from natstate import calculus, experiments, states, sysop
from natstate.calculus import FrechetPair
from natstate.cli import main
from natstate.experiments import (EXPERIMENTS, ExperimentResult, RunConfig,
                                  run_experiment)
from natstate.kernel import Permutation
from natstate.seminorm import FittedFamily, Weight
from natstate.sysop import LimsupConvolution, PolyIntegralOperator
from natstate.timegrid import (AlignmentError, TimeBatch, TimeFunction,
                               splice, to_cells)


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


@pytest.mark.parametrize("seed", range(1, 9))
def test_every_run_passes_over_a_seed_sweep(seed):
    # Every experiment and both cubic-volterra runs pass at seeds 1-8 at
    # small sizes.  A seed that fails is a defect: fix it, or mark it a
    # strict xfail by name; never drop it from the sweep.
    cfg = RunConfig(seed=seed, **{**_SWEEP, "probes": 20})
    cubic = replace(cfg, system="cubic-volterra")
    for name, c in [(name, cfg) for name in EXPERIMENTS] + [
            ("causality", cubic), ("trajectory-derivative", cubic)]:
        r = run_experiment(name, c)
        assert r.passed, (name, c.system,
                          [x.name for x in r.checks if not x.passed])


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
    apply_all = PolyIntegralOperator.apply_all

    def counting(self, us):
        calls.append(len(us))
        return apply_all(self, us)

    monkeypatch.setattr(PolyIntegralOperator, "apply_all", counting)
    assert run_experiment("npower-bounds", RunConfig()).passed
    # 15 probes: one batch shared by every unshifted estimate (15), the
    # centered views at three instants (45), the uniformity check on six
    # probes at three instants (18) and the centered/uncentered pairs on
    # five probes (10), the uncentered side one probe at a time.
    assert calls == [15] * 4 + [6] * 3 + [5] + [1] * 5


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


def test_ff_axioms_control_witness_fails_on_a_monotone_weight(monkeypatch):
    # The spike's windows at lags 0.5 and 1.5 read 0.1 and 0.0 on the dip
    # weight.  A nonincreasing weight in its place reads 0.1 and 0.1 *
    # sqrt(0.5) there, so the witness check fails, and the random search
    # finds no failing window either.
    def witness(r):
        return {c.name: (c.passed, c.observed) for c in r.checks
                if c.name.startswith("control_witness")}

    r = run_experiment("ff-axioms", RunConfig(**_SWEEP))
    assert witness(r) == {"control_witness_near": (True, 0.1),
                          "control_witness_far": (True, 0.0)}
    monkeypatch.setattr(experiments, "_DIP_WEIGHT", Weight.table(
        [0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.25]))
    r = run_experiment("ff-axioms", RunConfig(**_SWEEP))
    assert not r.passed
    far = pytest.approx(0.1 * math.sqrt(0.5))
    assert witness(r) == {"control_witness_near": (True, 0.1),
                          "control_witness_far": (False, far)}
    assert r.metrics["control_detected"] is False


def _failed(name, prefix):
    """The failed checks whose names start with ``prefix`` of a run of
    ``name`` at small sizes, and whether the run failed."""
    r = run_experiment(name, RunConfig(**_SWEEP))
    return [c for c in r.checks if c.name.startswith(prefix)
            and not c.passed], not r.passed


def test_windowed_spread_fails_on_a_term_that_reads_the_absolute_instant(
        monkeypatch):
    # Outputs scaled by 1 + 0.1 tanh(t) at the absolute instant t: the
    # estimates at the three window instants no longer agree.
    apply_all = PolyIntegralOperator.apply_all

    def drifting(self, us):
        ys = apply_all(self, us)
        t = np.arange(ys.grid.i0 + 1, ys.grid.i1 + 1) * ys.grid.dt
        scale = 1.0 + 0.1 * np.tanh(t)[:, None]
        return TimeBatch(ys.grid, ys.samples * scale, ys.tails)

    monkeypatch.setattr(PolyIntegralOperator, "apply_all", drifting)
    failed, run_failed = _failed("npower-bounds", "windowed_spread")
    assert run_failed and [c.observed > 0.0 for c in failed] == [True]


def test_averager_closed_form_fails_one_lag_off(monkeypatch):
    # The three-term closed form summed over one lag fewer than the
    # response's support.
    monkeypatch.setattr(experiments, "to_cells",
                        lambda length, dt: to_cells(length, dt) - 1)
    failed, run_failed = _failed("state-closed-form",
                                 "averager_threeterm_max_err")
    assert run_failed and [c.observed > 1e-10 for c in failed] == [True]


def test_representative_dependence_fails_on_a_splice_that_keeps_the_past(
        monkeypatch):
    # A default state evaluation whose splice keeps the past's first sample
    # after t: the quadratic system's states then read an edited past.  The
    # averager summarizes its past without a splice and still passes.
    monkeypatch.setattr(sysop, "splice",
                        lambda h, g, s: splice(h, g, s + h.grid.dt))
    failed, run_failed = _failed("state-bounds", "representative_dependence")
    assert run_failed and [c.name for c in failed] == [
        "representative_dependence[quadratic-volterra[0]]",
        "representative_dependence[quadratic-volterra[1]]"]
    assert all(c.observed > 0.0 for c in failed)


def test_ladder_gap_bound_fails_on_a_splice_that_keeps_the_match(monkeypatch):
    # v_i - u vanishes after tau_i, so each LTI ladder row's input gap is at
    # most the norm of c_i 1_(-inf, tau_i], c_i its sup up to tau_i.  At
    # seed 9 the gaps do not decrease (0.2212, then 0.2265) and every row
    # holds its bound.  A splice that keeps the match past tau_i breaks the
    # premise, and the last row reads a gap above its bound (at 37 of seeds
    # 1-40; the bound is 1.9-5.4 times the gap, so not at 9, 18 and 26).
    # The premise itself is checked exactly, and fails at those seeds too.
    def rows(r, prefix="lti_ladder_input_gap["):
        return {c.name: c for c in r.checks if c.name.startswith(prefix)}

    r = run_experiment("state-set-identity", RunConfig(seed=9))
    assert r.passed and len(rows(r)) == 4
    assert [c.observed for c in rows(r, "lti_ladder_premise[").values()] \
        == [0.0] * 4
    monkeypatch.setattr(states, "splice", lambda h, g, s: h)
    r = run_experiment("state-set-identity", RunConfig())
    failed = [c for c in rows(r).values() if not c.passed]
    assert [c.name for c in failed] == ["lti_ladder_input_gap[4]"]
    assert failed[0].observed > failed[0].bound and not r.passed
    for seed in (9, 18, 26):
        r = run_experiment("state-set-identity", RunConfig(seed=seed))
        assert all(c.passed for c in rows(r).values()), seed
        premise = rows(r, "lti_ladder_premise[")["lti_ladder_premise[4]"]
        assert not premise.passed and premise.observed > 0.0, seed
        assert not r.passed


def test_causality_fails_on_windows_that_read_two_cells_ahead(monkeypatch):
    # Every polynomial output row reads the lag window of the instant two
    # cells later (clipped to the horizon): edits after t reach the outputs
    # up to t of the quadratic system, and of no other.
    past_matrix = PolyIntegralOperator._past_matrix
    monkeypatch.setattr(PolyIntegralOperator, "_past_matrix",
                        lambda self, u, t_idx, Q: past_matrix(
                            self, u, np.minimum(t_idx + 2, u.grid.i1 + 1), Q))
    failed, run_failed = _failed("causality", "")
    assert run_failed and [(c.name, c.observed) for c in failed] == [
        ("causal[quadratic-volterra]", False)]


def test_symmetrize_invariance_fails_on_a_missing_permutation(monkeypatch):
    # A symmetrization that sums all but the last permutation (still
    # divided by n!) changes the operator the kernel induces.
    perms = Permutation.all
    monkeypatch.setattr(Permutation, "all",
                        staticmethod(lambda n: perms(n)[:-1]))
    failed, run_failed = _failed("symmetrize-invariance", "")
    assert run_failed and [c.name for c in failed] == [
        "asym_operator_max_diff", "separable_operator_max_diff",
        "asym3_operator_max_diff", "two_term_max_err",
        "idempotent_max_err", "six_term_max_err"]
    assert failed[0].observed == pytest.approx(0.1346, rel=1e-3)
    assert all(c.observed > c.bound for c in failed)


def _scaled_derivative(frechet_of):
    """``frechet_of`` with every derivative ``L`` scaled by 1.01."""
    def scaled(system):
        fp = frechet_of(system)
        return FrechetPair(lambda u, v: 1.01 * fp.L(u, v), fp.W)
    return scaled


def test_frechet_derivatives_fail_on_a_scaled_derivative(monkeypatch):
    # F(u + hv) - F(u) - 1.01 h L(u, v) is first order in h, so the
    # directional finite-difference gap no longer falls as h^2, and the
    # linear systems' gaps are no longer 0.
    monkeypatch.setattr(experiments, "frechet_of",
                        _scaled_derivative(experiments.frechet_of))
    failed, run_failed = _failed("frechet-derivatives", "")
    assert run_failed and [c.name for c in failed] == [
        "integrator_linear_gap", "averager-1x_linear_gap",
        "directional_fd_order"]
    order = failed[-1]
    assert order.observed == pytest.approx(0.543, abs=1e-3)
    assert order.observed < order.bound == 0.9


def test_trajectory_derivative_fails_on_a_scaled_derivative(monkeypatch):
    # The chain-rule derivative through 1.01 L misses the finite
    # differences by a term that does not fall with the step: the fitted
    # order drops to about 0.
    monkeypatch.setattr(calculus, "frechet_of",
                        _scaled_derivative(calculus.frechet_of))
    failed, run_failed = _failed("trajectory-derivative", "fd_order")
    assert run_failed and [c.name for c in failed] == ["fd_order"]
    lo, hi = failed[0].bound
    assert failed[0].observed == pytest.approx(-0.087, abs=1e-3)
    assert not lo <= failed[0].observed <= hi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natstate import (Grid, NaturalState, TimeBatch, TimeFunction, drive,
                      reachability_experiment, representative_independence,
                      shift_left, shift_right, splice, state_bound_check,
                      state_distance, state_distances, state_matching_ladder,
                      steer_to_state, trajectory)
from natstate import LimsupConvolution, LTISystem, SystemOp, catalog
from natstate.experiments import RunConfig, run_experiment
from natstate.probes import future_probes
from natstate.sysop import estimate_npower

DT = 0.02


def _past(grid, seed, tail=0.0, scale=0.5):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.n, 1)) * scale + tail
    return TimeFunction(grid, vals, np.array([tail]))


@pytest.fixture
def averager():
    return catalog.averager_pair(DT)[0]


@pytest.fixture
def futures():
    probes = future_probes(DT, 2.0, 31, count=8)
    return [0.0 * probes[0]] + probes


def test_state_requires_past_up_to_t(averager):
    g = Grid(DT, -10, 0)
    u = _past(g, 1)
    with pytest.raises(ValueError):
        NaturalState(averager.system, u, 1.0)


def test_eventual_level_through_state(averager, futures):
    g = averager.grid(DT)
    u = _past(g, 3, tail=1.0)
    st = NaturalState(averager.system, u, 0.0)
    y = st.evaluate(futures[0])  # zero future
    T = averager.params["response_support"]
    late = y.samples[y.grid.index_of(T):, 0]
    assert np.all(late == 1.0)


def test_integrator_state_closed_form(futures):
    b = catalog.system("integrator", DT)
    g = b.grid(DT)
    u = _past(g, 5)
    st = NaturalState(b.system, u, 0.0)
    for v in futures[:4]:
        got = st.evaluate(v).samples[:, 0]
        want = catalog.integrator_state_closed_form(u, v, 0.0)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_quadratic_state_closed_form(futures):
    b = catalog.system("quadratic-volterra", DT)
    g = b.grid(DT)
    u = _past(g, 7)
    st = NaturalState(b.system, u, 0.0)
    v = futures[1]
    sig = np.arange(1, v.grid.i1 + 1, 7)
    got = st.evaluate_at(v, sig)[:, 0]
    want, = catalog.quadratic_state_closed_form(
        b.system.kernels[2], [u], [v], 0.0, sig)
    assert np.max(np.abs(got - want)) <= 10.0 * DT
    assert np.max(np.abs(got - want)) <= 1e-10  # same lattice, regrouped


@pytest.mark.parametrize("name, t_eval", [("quadratic-volterra", 0.0),
                                          ("quadratic-volterra-tv", 0.0),
                                          ("quadratic-volterra-tv", 0.5)])
def test_quadratic_closed_form_rows_match_one_pair_calls(name, t_eval):
    # A batched call samples each instant's kernel blocks once for all
    # pairs; every row keeps the bits of its one-pair call, before the
    # second lag (m < 2), inside the support and at or beyond it (m >= Q).
    b = catalog.system(name, DT)
    ker = b.system.kernels[2]
    Q = ker.grid_size(DT)
    g = b.grid(DT)
    pasts = [_past(g, 60 + k) for k in range(4)]
    vs = future_probes(DT, 2.5, 61, count=4)
    sig = np.array([1, 2, 3, Q // 2, Q - 1, Q, Q + 7, vs[0].grid.i1])
    rows = catalog.quadratic_state_closed_form(ker, pasts, vs, t_eval, sig)
    assert rows.shape == (4, len(sig))
    for past, v, row in zip(pasts, vs, rows):
        one = catalog.quadratic_state_closed_form(ker, [past], [v], t_eval,
                                                  sig)
        assert one.tobytes() == row.tobytes()
    with pytest.raises(ValueError, match="zip"):
        catalog.quadratic_state_closed_form(ker, pasts, vs[:3], t_eval, sig)


def test_distance_to_self_zero(averager, futures):
    g = averager.grid(DT)
    st = NaturalState(averager.system, _past(g, 9, tail=1.0), 0.0)
    assert state_distance(st, st, 2, futures) == 0.0


def test_level_classes_separated(averager, futures):
    g = averager.grid(DT)
    xi = NaturalState(averager.system, _past(g, 11, tail=1.0), 0.0)
    eta = NaturalState(averager.system, _past(g, 13, tail=2.0), 0.0)
    d = state_distance(xi, eta, 2, futures)
    assert d >= 1.0 - 1e-9


def test_state_distances_match_pairwise(averager, futures):
    g = averager.grid(DT)
    xis = [NaturalState(averager.system, _past(g, 40 + k, tail=1.0), 0.0)
           for k in range(3)]
    etas = [NaturalState(averager.system, _past(g, 50 + k, tail=tail), 0.0)
            for k, tail in enumerate((2.0, 1.0))] + xis[:1]
    fam_in, fam_out = averager.system.input_fam, averager.system.output_fam

    def pairwise(xi, eta):
        # The definition: both states evaluated afresh for this pair.
        return estimate_npower(
            futures, [xi.evaluate(v) - eta.evaluate(v) for v in futures], 2,
            lambda v: fam_in.future_norm(v, 0.0),
            lambda d: fam_out.future_norm(d, 0.0))

    got = state_distances(xis, etas, 2, futures)
    assert got == [[pairwise(xi, eta) for eta in etas] for xi in xis]
    assert got == [[state_distance(xi, eta, 2, futures) for eta in etas]
                   for xi in xis]
    assert got[0][2] == 0.0 and min(got[k][0] for k in range(3)) >= 1.0 - 1e-9
    none = TimeBatch.stack(futures)[:0]
    assert state_distances(xis, etas, 2, none) == [[0.0] * 3] * 3
    assert state_distance(xis[0], etas[0], 2, none) == 0.0
    assert state_distances([], etas, 2, futures) == []
    assert state_distances(xis, [], 2, futures) == [[], [], []]


def test_paired_system_same_states(averager, futures):
    one, two = catalog.averager_pair(DT)
    g = one.grid(DT)
    T = one.params["response_support"]
    u = _past(g, 15, tail=1.0)
    idx = np.arange(g.i0 + 1, g.i1 + 1)
    keep = (idx * DT > -T) & (idx <= g.index_of(0.0))
    w = TimeFunction(g, np.where(keep[:, None], u.samples, 0.5),
                     np.array([0.5]))
    xi = NaturalState(one.system, u, 0.0)
    eta = NaturalState(two.system, w, 0.0)
    assert state_distance(xi, eta, 2, futures) == 0.0


def test_representative_independence(averager, futures):
    g = averager.grid(DT)
    st = NaturalState(averager.system, _past(g, 17, tail=1.0), -0.5)
    assert representative_independence(st, futures[:4], rng=1) == 0.0


def _check_time_invariance(bundle, seed, futures):
    u = _past(bundle.grid(DT), seed, tail=1.0)
    t = 0.6
    st_t = NaturalState(bundle.system, shift_right(u, t), t)
    st_0 = NaturalState(bundle.system, u, 0.0)
    for v in futures[:4]:
        a = st_t.evaluate(v)
        b = st_0.evaluate(v)
        assert np.array_equal(a.samples, b.samples)


def _check_transition(bundle, seed, futures):
    u = _past(bundle.grid(DT), seed, tail=1.0)
    st = NaturalState(bundle.system, u, -0.5)
    seg = future_probes(DT, 1.0, seed + 2, count=1)[0]
    moved = drive(st, seg, 0.5)
    direct_past = splice(u, shift_right(seg, -0.5), -0.5)
    direct = NaturalState(bundle.system, direct_past, 0.5)
    for v in futures[:4]:
        assert np.array_equal(moved.evaluate(v).samples,
                              direct.evaluate(v).samples)


def test_time_invariance_of_states(averager, futures):
    _check_time_invariance(averager, 19, futures)


def test_transition_property(averager, futures):
    _check_transition(averager, 21, futures)


def test_lti_time_invariance_of_states(futures):
    _check_time_invariance(catalog.system("oscillator", DT), 51, futures)


def test_lti_transition_property(futures):
    _check_transition(catalog.system("oscillator", DT), 53, futures)


def test_summary_computed_once_per_state(futures, monkeypatch):
    b = catalog.system("oscillator", DT)
    calls = []
    summarize = b.system.past_summary
    monkeypatch.setattr(
        b.system, "past_summary",
        lambda u, t_idx: calls.append(t_idx) or summarize(u, t_idx))
    st = NaturalState(b.system, _past(b.grid(DT), 57, tail=1.0), 0.4)
    assert calls == []
    for v in futures:
        st.evaluate(v)
    assert calls == [20]


def _by_splice(state, v):
    """The definition: splice ``v`` onto the past at ``t``, apply, recenter."""
    z = splice(state.past, shift_right(v, state.t), state.t)
    y = state.system.apply(z)
    return shift_left(y.with_window(y.grid.index_of(state.t), y.grid.i1),
                      state.t)


def _conv_with_tail_gain():
    h = TimeFunction(Grid(DT, 0, 15), np.linspace(1.0, -0.4, 15), 0.0)
    return LimsupConvolution(h, 0.7, catalog.family("sup-linf"),
                             catalog.family("esssup"))


def _lti_two_inputs():
    return LTISystem([[-0.5, 1.0], [-1.0, -0.3]], [[1.0, 0.2], [-0.4, 0.9]],
                     catalog.family("exp-l2"), catalog.family("esssup"))


@pytest.mark.parametrize("make, dim", [(_conv_with_tail_gain, 1),
                                       (_lti_two_inputs, 2)],
                         ids=["conv-tail-gain", "lti-2x2"])
@pytest.mark.parametrize("v0", [-6, 0, 4])
def test_batched_future_responses_match_each_future(make, dim, v0):
    # One batch of futures: the system's batched answer, row by row, has
    # the bytes of the definition (splice, apply, recenter) for that row,
    # and so has the default per-future path of the base class.
    system = make()
    rng = np.random.default_rng(7 + v0)
    past = TimeFunction(Grid(DT, -60, 10), rng.standard_normal((70, dim)),
                        rng.standard_normal(dim))
    vs = TimeBatch(Grid(DT, v0, 45), rng.standard_normal((5, 45 - v0, dim)),
                   rng.standard_normal((5, dim)))
    state = NaturalState(system, past, -0.3)
    t_idx = past.grid.index_of(-0.3)
    got = system.future_responses(system.past_summary(past, t_idx), vs)
    base = SystemOp.future_responses(system, (past, t_idx), vs)
    assert len(got) == len(base) == len(vs)
    for k, v in enumerate(vs):
        want = _by_splice(state, v)
        for y in (got[k], base[k]):
            assert y.grid == want.grid
            assert y.samples.tobytes() == want.samples.tobytes()
            assert y.tail_value.tobytes() == want.tail_value.tobytes()


# (catalog system, tail levels of the past); the averagers' eventual-level
# term, and the equilibrium start of a Hurwitz LTI, need nonzero tails.
_ORACLE_SYSTEMS = [
    ("averager-1x", (1.0, -2.5)),
    ("averager-2x", (1.0, 0.75)),
    ("reachable-conv", (0.0, 1.5)),
    ("fading-conv", (0.0, -0.5)),
    ("oscillator", (0.0, 1.0)),
    ("leaky-integrator", (2.0, -1.0)),
    ("integrator", (0.0,)),
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_ORACLE_SYSTEMS), st.data())
def test_evaluate_matches_splice_apply_recenter(case, data):
    name, tails = case
    b = catalog.system(name, DT)
    i0 = data.draw(st.integers(-150, -1))
    past = _past(Grid(DT, i0, i0 + data.draw(st.integers(1, 200))),
                 data.draw(st.integers(0, 2**16)),
                 tail=data.draw(st.sampled_from(tails)))
    g = past.grid
    # Before the past window, at its start, inside it, at its end.
    t_idx = data.draw(st.one_of(st.integers(g.i0 - 40, g.i0 - 1),
                                st.just(g.i0), st.integers(g.i0, g.i1),
                                st.just(g.i1)))
    state = NaturalState(b.system, past, t_idx * DT)
    for _ in range(data.draw(st.integers(1, 3))):
        v0 = data.draw(st.integers(-30, 30))  # future windows start anywhere
        v1 = max(v0, 0) + data.draw(st.integers(1, 120))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        v = TimeFunction(Grid(DT, v0, v1), rng.standard_normal((v1 - v0, 1)),
                         rng.standard_normal(1))
        got, want = state.evaluate(v), _by_splice(state, v)
        assert got.grid == want.grid
        assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(got.tail_value, want.tail_value)


@pytest.mark.parametrize("case", _ORACLE_SYSTEMS, ids=lambda case: case[0])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_evaluate_all_matches_evaluate_and_splice(case, data):
    # Batches of futures on mixed grids: every answer of one batch equals
    # the state's one-future answer and the definition, bit for bit.
    name, tails = case
    b = catalog.system(name, DT)
    i0 = data.draw(st.integers(-150, -1))
    past = _past(Grid(DT, i0, i0 + data.draw(st.integers(1, 200))),
                 data.draw(st.integers(0, 2**16)),
                 tail=data.draw(st.sampled_from(tails)))
    t_idx = data.draw(st.integers(past.grid.i0 - 40, past.grid.i1))
    state = NaturalState(b.system, past, t_idx * DT)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    for _ in range(data.draw(st.integers(1, 3))):
        v0 = data.draw(st.integers(-30, 30))
        v1 = max(v0, 0) + data.draw(st.sampled_from([1, 40, 120]))
        B = data.draw(st.integers(1, 4))
        vs = TimeBatch(Grid(DT, v0, v1), rng.standard_normal((B, v1 - v0, 1)),
                       rng.standard_normal((B, 1)))
        got = state.evaluate_all(vs)
        assert len(got) == B
        for y, v in zip(got, vs):
            for want in (state.evaluate(v), _by_splice(state, v)):
                assert y.grid == want.grid
                assert y.samples.tobytes() == want.samples.tobytes()
                assert y.tail_value.tobytes() == want.tail_value.tobytes()
        assert len(state.evaluate_all(vs[:0])) == 0


def test_trajectory_constant_input(averager, futures):
    g = averager.grid(DT)
    c = TimeFunction(g, np.ones((g.n, 1)), np.array([1.0]))
    states = trajectory(averager.system, c, [-1.0, -0.5, 0.0, 0.5])
    base = states[0].evaluate(futures[1])
    for st in states[1:]:
        assert np.array_equal(st.evaluate(futures[1]).samples, base.samples)
    with pytest.raises(ValueError):
        trajectory(averager.system, c, [0.0, 0.0])


def test_shifted_zero_connection(futures):
    # Two pasts vanishing before r induce one state at r, connecting their
    # trajectories through it.
    b = catalog.system("reachable-conv", DT)
    g = b.grid(DT)
    idx = np.arange(g.i0 + 1, g.i1 + 1)
    r = -1.0
    rng = np.random.default_rng(25)
    mk = lambda seed: TimeFunction(
        g, np.where((idx * DT > r)[:, None],
                    np.random.default_rng(seed).standard_normal((g.n, 1)),
                    0.0), np.zeros(1))
    u1, u2 = mk(1), mk(2)
    s1 = NaturalState(b.system, u1, r)
    s2 = NaturalState(b.system, u2, r)
    for v in futures[:3]:
        assert np.array_equal(s1.evaluate(v).samples, s2.evaluate(v).samples)
    # States further along each branch remain well-defined trajectories.
    for u in (u1, u2):
        for st in trajectory(b.system, u, [r, -0.5, 0.0]):
            st.evaluate(futures[1])


def test_tail_class_invariant_under_drives(averager):
    g = averager.grid(DT)
    w = _past(g, 27, tail=2.0)
    x = _past(g, 29, tail=1.0)
    for D in (0.5, 1.5):
        driven = splice(shift_left(w, D), x, -D)
        assert driven.tail_value[0] == 2.0


def test_reachability_finite_memory_exact(futures):
    b = catalog.system("reachable-conv", DT)
    g = b.grid(DT)
    rep = reachability_experiment(b.system, _past(g, 31), _past(g, 33),
                                  b.system.input_fam, futures)
    assert not rep["refused"]
    assert rep["memory_class"] == "finite_memory"
    assert rep["distance"] == 0.0 and rep["exact"]
    assert rep["drive_seconds"] == b.system.input_fam.weight.support


def test_reachability_tapered_within_eps(futures):
    b = catalog.system("fading-conv", DT)
    g = b.grid(DT)
    rep = reachability_experiment(b.system, _past(g, 35), _past(g, 37),
                                  b.system.input_fam, futures, eps=0.05)
    assert not rep["refused"] and rep["achieved"]
    assert rep["distance"] <= 0.05


def test_reachability_refusal_untapered(averager, futures):
    g = averager.grid(DT)
    rep = reachability_experiment(
        averager.system, _past(g, 39, tail=2.0), _past(g, 41, tail=1.0),
        averager.system.input_fam, futures)
    assert rep["refused"]
    assert rep["reason_code"] == "family_not_tapered"


def test_matching_ladder_identical_systems(averager, futures):
    g = averager.grid(DT)
    u = _past(g, 43, tail=1.0)
    rep = state_matching_ladder(averager.system, averager.system, u, 1.0, 3,
                                lambda uu, tau: uu, futures)
    assert rep["final_output_gap_at_T"] == 0.0
    assert all(r["match_ok"] for r in rep["rows"])
    assert all(r["output_gap_from_tau"] == 0.0 for r in rep["rows"])


def test_matching_ladder_negative_control(futures):
    one, two = catalog.averager_pair(DT)
    g = one.grid(DT)
    T = one.params["response_support"]
    u = _past(g, 45, tail=1.0)

    def match(uu, tau):
        lev = 2.0 * float(uu.tail_value[0])
        idx = np.arange(g.i0 + 1, g.i1 + 1)
        keep = (idx * DT > tau - T) & (idx <= g.index_of(tau))
        vals = np.where(keep[:, None], uu.samples, lev)
        return TimeFunction(g, vals, np.array([lev]))

    rep = state_matching_ladder(one.system, two.system, u, 1.0, 3, match,
                                futures)
    assert all(r["match_ok"] for r in rep["rows"])
    assert not rep["taper_hypothesis_met"]
    # Input gaps never die (the level difference survives), and the systems
    # really do differ on u.
    assert min(r["input_gap_at_T"] for r in rep["rows"]) >= 0.5
    assert rep["final_output_gap_at_T"] >= 0.5


def test_lti_state_sets_distinguish_dynamics(futures):
    b1 = catalog.system("oscillator", DT)
    b2 = catalog.system("oscillator-alt", DT)
    g = b1.grid(DT)
    x = np.array([0.6, -0.2])
    p1 = steer_to_state(b1.system, x, 0.0, 2.0, g)
    p2 = steer_to_state(b2.system, x, 0.0, 2.0, g)
    cross = state_distance(NaturalState(b1.system, p1, 0.0),
                           NaturalState(b2.system, p2, 0.0), 2, futures)
    assert cross > 1e-3
    p1b = steer_to_state(b1.system, x, 0.0, 3.0, g)
    same = state_distance(NaturalState(b1.system, p1, 0.0),
                          NaturalState(b1.system, p1b, 0.0), 2, futures)
    assert same <= 1e-8


def test_state_bound_chain_zero_past(futures):
    # With a zero past the binomial factor collapses and each ratio sits
    # under the system estimate itself.
    b = catalog.system("quadratic-volterra", DT)
    g = b.grid(DT)
    zero_past = TimeFunction(g, np.zeros((g.n, 1)), np.zeros(1))
    st = NaturalState(b.system, zero_past, 0.0)
    rep = state_bound_check(st, 2, futures)
    assert rep["passed"]
    assert rep["max_ratio"] <= rep["estimate"] * (1.0 + 1e-12)


def test_state_bound_chain_random_pasts(futures):
    for name in ("quadratic-volterra", "averager-1x"):
        b = catalog.system(name, DT)
        g = b.grid(DT)
        past = _past(g, 47, tail=0.0 if "quad" in name else 1.0)
        st = NaturalState(b.system, past, 0.0)
        rep = state_bound_check(st, 2, futures)
        assert rep["passed"], rep["violations"][:2]
        assert all(r["ok"] for r in rep["continuity"])


def test_state_set_identity_experiment():
    r = run_experiment("state-set-identity", RunConfig())
    assert r.passed
    assert r.metrics["trivial_final_gap"] == 0.0
    assert r.metrics["lti_ladder_final_gap"] <= 1e-9
    assert r.metrics["negative_taper_met"] is False

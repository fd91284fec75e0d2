import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natstate import (FittedFamily, Grid, Interval, TimeFunction, Weight,
                      check_ff_axioms, classify, classify_input_set, splice,
                      taper_certificate, taper_delta)
from natstate.calculus import SmoothInput
from natstate.probes import probe_set

UL2 = FittedFamily.weighted_lp(2.0, Weight.uniform(), name="uniform-l2")
EXP2 = FittedFamily.weighted_lp(2.0, Weight.exponential(1.0), name="exp-l2")
BOX2 = FittedFamily.weighted_lp(2.0, Weight.box(1.5), name="box-l2")
SUP = FittedFamily.unweighted_sup()


def test_unit_constant_on_unit_interval():
    g = Grid(0.01, -100, 200)
    one = TimeFunction(g, np.ones((g.n, 1)), np.array([1.0]))
    assert UL2.seminorm(one, Interval(0.0, 1.0)) == pytest.approx(1.0)
    assert SUP.seminorm(one, Interval(0.0, 1.0)) == 1.0


def test_weight_integrals_closed_form():
    w = Weight.exponential(2.0)
    assert w.integral(0.0, math.inf) == pytest.approx(0.5)
    assert w.integral(1.0, math.inf) == pytest.approx(math.exp(-2.0) / 2.0)
    b = Weight.box(3.0)
    assert b.integral(0.0, math.inf) == 3.0
    assert b.integral(1.0, 2.5) == 1.5
    assert b.integral(4.0, math.inf) == 0.0


def test_constant_bounding_norm_matches_tail_integral():
    # Derived oracle: constant level c under an integrable weight has
    # bounding norm c * sqrt(total weight mass).  The in-window rectangle
    # rule overshoots by O(dt); the pre-grid tail term is exact.
    g = Grid(0.01, -100, 100)
    c = 0.7
    f = TimeFunction(g, c * np.ones((g.n, 1)), np.array([c]))
    w0 = Weight.exponential(1.0).integral(0.0, math.inf)
    got = EXP2.bounding_norm(f)
    assert got == pytest.approx(c * math.sqrt(w0), rel=1e-2)
    # At the far-past instant only the exact closed-form tail contributes.
    assert EXP2.past_norm(f, g.t_start) == pytest.approx(
        c * math.sqrt(w0), rel=1e-12)


def test_divergent_tail_rejected():
    g = Grid(0.1, -10, 10)
    one = TimeFunction(g, np.ones((g.n, 1)), np.array([1.0]))
    with pytest.raises(ValueError, match="divergent tail"):
        UL2.past_norm(one, 0.0)


def test_residual_triangles_squared_norm():
    # The two residual triangles of a shifted trapezoid have squared norm
    # (4/3) h^3; the quadrature lands within a small fraction at this step.
    g = Grid(0.001, -2000, 12000)
    src = SmoothInput.trapezoid()
    h = 0.25
    t = g.times()
    e = (src.u(t + h) - src.u(t) - h * src.d(t))[:, None]
    ef = TimeFunction(g, e, np.zeros(1))
    got = UL2.bounding_norm(ef) ** 2
    # Base-grid rectangle rule: one-sided 3*dt/(2h) overestimate = 0.6%.
    assert got == pytest.approx(4.0 * h ** 3 / 3.0, rel=1e-2)


def test_finite_memory_window_identity(rough):
    fam = FittedFamily.weighted_lp(2.0, Weight.box(1.0))
    for t in (-0.5, 0.0, 1.5):
        assert fam.past_norm(rough, t) == \
            fam.seminorm(rough, Interval(t - 1.0, t))


def test_norm_chain(rough):
    # window <= left-expanded <= running-sup <= bounding, for every family.
    for fam in (UL2, EXP2, BOX2, SUP):
        sup_fam = FittedFamily.sup_family(fam)
        f = rough if fam is not UL2 else TimeFunction(
            rough.grid, rough.samples, np.zeros(1))
        a = fam.seminorm(f, Interval(-0.5, 1.0))
        b = fam.past_norm(f, 1.0)
        c = sup_fam.past_norm(f, 1.0)
        d = sup_fam.bounding_norm(f)
        assert a <= b * (1 + 1e-12)
        assert b <= c * (1 + 1e-12)
        assert c <= d * (1 + 1e-12)


def test_windowed_all_t_matches_single(rough):
    f = TimeFunction(rough.grid, rough.samples, np.zeros(1))
    for fam in (UL2, EXP2, BOX2, SUP):
        allt = fam.past_norms_all_t(f)
        g = f.grid
        for k, t_idx in enumerate(range(g.i0, g.i1 + 1, 11)):
            want = fam._window_single(f, None, t_idx) if t_idx > g.i0 \
                else fam._window_single(f, None, g.i0)
            assert allt[t_idx - g.i0] == pytest.approx(want, rel=1e-12)


def test_splice_norm_consistency(grid, rng):
    h = TimeFunction(grid, rng.standard_normal((grid.n, 1)), np.array([0.4]))
    g2 = TimeFunction(grid, rng.standard_normal((grid.n, 1)), np.array([0.0]))
    s = 0.5
    sp = splice(h, g2, s)
    for fam in (UL2, EXP2, SUP):
        assert fam.seminorm(sp, Interval(-1.0, s)) == \
            fam.seminorm(h, Interval(-1.0, s))
        assert fam.seminorm(sp, Interval(s, 1.5)) == \
            fam.seminorm(g2, Interval(s, 1.5))


def test_restrict_then_splice_reproduces_past(grid, rng):
    from natstate import restrict
    f = TimeFunction(grid, rng.standard_normal((grid.n, 1)), np.array([0.2]))
    kept = restrict(f, Interval.upto(0.5), pad_with_tail=True)
    fut = TimeFunction(grid, rng.standard_normal((grid.n, 1)), np.zeros(1))
    sp = splice(kept, fut, 0.5)
    d = sp.with_window(grid.i0, grid.i1) - f
    assert EXP2.past_norm(d, 0.5) == 0.0


def test_axioms_pass_on_shipped_families(grid, rng):
    probes = probe_set(grid, 7, count=25, tails=True)
    for fam in (UL2, EXP2, BOX2, SUP, FittedFamily.sup_family(UL2)):
        rep = check_ff_axioms(fam, probes, rng=3, n_triples=12)
        assert rep.passed, rep.to_json()
        assert rep.K_observed <= rep.K_declared * (1 + 1e-9)


def test_uniform_family_is_standard(grid):
    probes = probe_set(grid, 11, count=10, tails=True)
    rep = check_ff_axioms(UL2, probes, rng=5, n_triples=10)
    assert rep.passed
    assert rep.alpha == math.inf and rep.K_declared == 1.0
    assert rep.K_observed <= 1.0 + 1e-12


def test_exp_family_finite_K(grid):
    probes = probe_set(grid, 13, count=10, tails=True)
    rep = check_ff_axioms(EXP2, probes, rng=7, n_triples=10)
    assert rep.passed
    assert 1.0 <= rep.K_declared < math.inf
    assert rep.K_observed <= rep.K_declared * (1 + 1e-9)


def test_broken_weight_fails_with_witness(grid):
    broken = FittedFamily.weighted_lp(
        2.0, Weight.table([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0]),
        name="dip", allow_nonmonotone=True)
    probes = probe_set(grid, 17, count=10, tails=True)
    rep = check_ff_axioms(broken, probes, rng=9, n_triples=25)
    assert not rep.passed
    failing = [k for k, c in rep.conditions.items() if not c.passed]
    assert set(failing) <= {"triangle_over_split", "window_comparison",
                            "monotone_in_s"}
    assert any(rep.conditions[k].witness for k in failing)


def test_nonmonotone_weight_rejected_by_default():
    with pytest.raises(ValueError, match="nonincreasing"):
        FittedFamily.weighted_lp(
            2.0, Weight.table([0.0, 1.0, 2.0], [1.0, 2.0]))


def test_taper_delta_closed_forms():
    # Exponential weight at p=2: delta solves c^2 e^{-delta} = eps^2.
    d = taper_delta(EXP2, 0.1, 1.0)
    assert d == pytest.approx(math.log(1.0 / 0.01), abs=1e-9)
    assert taper_delta(BOX2, 1e-6, 10.0) == 1.5
    assert taper_delta(SUP, 0.1, 1.0) is None
    assert taper_delta(UL2, 0.1, 1.0) is None


def test_taper_certificate_and_spike_witness():
    g = Grid(0.01, -800, 0)
    probes = probe_set(g, 19, count=10, tails=True)
    d = taper_delta(EXP2, 0.1, 1.0)
    cert = taper_certificate(EXP2, d, 0.1, 1.0, probes, 0.0)
    assert cert["certified"], cert
    # An old spike defeats any window under the sup family.
    vals = np.zeros((g.n, 1))
    vals[1] = 1.0
    spike = TimeFunction(g, vals, np.zeros(1))
    for delta in (1.0, 4.0, 7.0):
        gap = SUP.past_norm(spike, 0.0) - \
            SUP.seminorm(spike, Interval(-delta, 0.0))
        assert gap >= 1.0


def test_classification():
    assert classify(BOX2) == {"class": "finite_memory", "memory": 1.5}
    assert classify(EXP2)["class"] == "tapered"
    assert classify(UL2)["class"] == "neither"
    assert classify(SUP)["class"] == "neither"


def test_shifted_zero_input_set(grid):
    g = grid
    vals = np.zeros((g.n, 1))
    vals[30:] = 1.0
    f1 = TimeFunction(g, vals, np.zeros(1))
    f2 = TimeFunction(g, np.zeros((g.n, 1)), np.zeros(1))
    rep = classify_input_set([f1, f2])
    assert rep["shifted_zero"]
    assert rep["first_support"][0] == pytest.approx(
        (g.i0 + 31) * g.dt)
    tailed = TimeFunction(g, vals, np.array([1.0]))
    assert not classify_input_set([f1, tailed])["shifted_zero"]


def test_shift_invariance_exact_bits(rough):
    # Translating the window and the function together reproduces the same
    # floating-point value, not merely a close one.
    for fam in (UL2, EXP2, BOX2, SUP):
        f = TimeFunction(rough.grid, rough.samples, np.zeros(1))
        for k in (-17, 3, 25):
            from natstate import shift_left
            a = fam.seminorm(shift_left(f, k * f.grid.dt),
                             Interval((-10 - k) * f.grid.dt,
                                      (20 - k) * f.grid.dt))
            b = fam.seminorm(f, Interval(-10 * f.grid.dt, 20 * f.grid.dt))
            assert a == b


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=30,
                max_size=30),
       st.integers(min_value=-14, max_value=5),
       st.integers(min_value=6, max_value=15))
def test_triangle_and_monotone_property(vals, s_idx, t_idx):
    g = Grid(0.1, -15, 15)
    f = TimeFunction(g, np.asarray(vals)[:, None], np.zeros(1))
    r_idx = -15
    for fam in (UL2, EXP2, SUP):
        nrt = fam.seminorm(f, Interval(r_idx * g.dt, t_idx * g.dt))
        nst = fam.seminorm(f, Interval(s_idx * g.dt, t_idx * g.dt))
        nrs = fam.seminorm(f, Interval(r_idx * g.dt, s_idx * g.dt)) \
            if s_idx > r_idx else 0.0
        assert nst <= nrt + 1e-12 * max(1.0, nrt)
        assert nrt <= nrs + nst + 1e-12 * max(1.0, nrs + nst)

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natstate import (AlignmentError, FittedFamily, Grid, LimsupConvolution,
                      LTISystem, PolyIntegralOperator, PolyKernel, TimeAdvance,
                      TimeFunction, centered_truncations,
                      check_causality, estimate_npower, frechet_of,
                      hypothesis_uniformity_check, shift_left, steer_to_state)
from natstate import catalog
from natstate.kernel import _slot_major, symmetrize
from natstate.sysop import _THETA13, _expm

DT = 0.02


@pytest.fixture
def averager():
    return catalog.averager_pair(DT)[0]


@pytest.fixture
def quad():
    return catalog.system("quadratic-volterra", DT)


def _pasts(grid, seed, count, tail=0.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        vals = rng.standard_normal((grid.n, 1)) * 0.5 + tail
        out.append(TimeFunction(grid, vals, np.array([tail])))
    return out


def test_zero_input_zero_output(averager):
    g = averager.grid(DT)
    z = TimeFunction(g, np.zeros((g.n, 1)), np.zeros(1))
    y = averager.system.apply(z)
    assert y.grid == z.grid
    assert not (np.any(y.samples) or np.any(y.tail_value))


def test_zero_response_rejected():
    g = Grid(DT, 0, 10)
    h = TimeFunction(g, np.zeros((g.n, 1)), np.zeros(1))
    fam = FittedFamily.unweighted_sup()
    with pytest.raises(ValueError, match="nonzero absolute mass"):
        LimsupConvolution(h, 1.0, fam, fam)


def test_eventual_level_passthrough(averager):
    # A level-1 past with a zero future outputs exactly the level once the
    # response support has been cleared.
    g = averager.grid(DT)
    idx = np.arange(g.i0 + 1, g.i1 + 1)
    vals = np.where((idx <= 0)[:, None], 1.0, 0.0)
    u = TimeFunction(g, vals, np.array([1.0]))
    y = averager.system.apply(u)
    T = averager.params["response_support"]
    late = y.samples[y.grid.index_of(T) - y.grid.i0:, 0]
    assert np.all(late == 1.0)


def test_convolution_linearity(averager):
    # Linear including the eventual-level term: tails combine too.
    g = averager.grid(DT)
    u = _pasts(g, 1, 1, tail=1.0)[0]
    v = _pasts(g, 2, 1, tail=0.5)[0]
    F = averager.system.apply
    lhs = F(2.0 * u + (-0.5) * v)
    rhs = 2.0 * F(u) + (-0.5) * F(v)
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-12
    assert abs(lhs.tail_value[0] - rhs.tail_value[0]) <= 1e-12


def test_lti_linearity():
    b = catalog.system("oscillator", DT)
    g = b.grid(DT)
    u, v = _pasts(g, 28, 2)
    F = b.system.apply
    lhs = F(1.5 * u + 0.25 * v)
    rhs = 1.5 * F(u) + 0.25 * F(v)
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-12


def test_integrator_unit_ramp():
    b = catalog.system("integrator", DT)
    g = b.grid(DT)
    idx = np.arange(g.i0 + 1, g.i1 + 1)
    vals = np.where((idx > 0)[:, None], 1.0, 0.0)
    u = TimeFunction(g, vals, np.zeros(1))
    y = b.system.apply(u)
    for t in (0.5, 1.0, 2.0):
        assert y.value(t)[0] == pytest.approx(t, abs=1e-12)


def test_lti_exact_exponential_step():
    # One step of the zero-order hold equals the closed-form response.
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    B = np.array([[0.0], [1.0]])
    fam = catalog.family("uniform-l2")
    sys_ = LTISystem(A, B, fam, catalog.family("esssup"))
    g = Grid(DT, 0, 1)
    u = TimeFunction(g, np.array([[0.8]]), np.zeros(1))
    y = sys_.apply(u)
    Ad = scipy.linalg.expm(A * DT)
    Bd = np.linalg.solve(A, (Ad - np.eye(2))) @ B
    want = (Bd * 0.8).ravel()
    assert np.allclose(y.samples[0], want, atol=1e-14)


def test_lti_nonzero_tail_needs_hurwitz():
    fam = catalog.family("uniform-l2")
    integ = LTISystem([[0.0]], [[1.0]], fam, catalog.family("esssup"))
    g = Grid(DT, -10, 10)
    u = TimeFunction(g, np.ones((g.n, 1)), np.array([1.0]))
    with pytest.raises(ValueError, match="Hurwitz"):
        integ.apply(u)
    leaky = LTISystem([[-2.0]], [[1.0]], fam, catalog.family("esssup"))
    y = leaky.apply(u)
    assert y.tail_value[0] == pytest.approx(0.5)  # equilibrium B u / |A|
    assert y.samples[-1, 0] == pytest.approx(0.5, abs=1e-9)


def test_quadratic_pointwise_bound(quad):
    # |y(p)| <= HS * |u|_p^2 cell for cell, by Cauchy-Schwarz on the grid.
    sysq = quad.system
    g = quad.grid(DT)
    M = catalog.hilbert_schmidt_bound(sysq, DT)
    for u in _pasts(g, 3, 3):
        y = sysq.apply(u)
        for t_idx in range(g.i0 + 10, g.i1, 37):
            lhs = abs(y.values_at_indices([t_idx])[0, 0])
            nu = sysq.input_fam.past_norm(u, t_idx * DT)
            assert lhs <= M * nu ** 2 * (1.0 + 1e-9)


def test_time_invariance_shift_commute(averager, quad):
    for b in (averager, quad):
        g = b.grid(DT)
        u = _pasts(g, 5, 1)[0]
        tau = 8 * DT
        a = b.system.apply(shift_left(u, tau))
        c = shift_left(b.system.apply(u), tau)
        assert a.grid == c.grid
        assert np.array_equal(a.samples, c.samples)


def test_causality_all_shipped_and_anticausal_control():
    for name in ("averager-1x", "integrator", "quadratic-volterra"):
        b = catalog.system(name, DT)
        g = b.grid(DT)
        probes = _pasts(g, 7, 3, tail=0.0)
        rep = check_causality(b.system, probes, [-0.5, 0.0, 0.5], rng=1)
        assert rep["causal"], (name, rep["violations"][:1])
    b = catalog.system("averager-1x", DT)
    adv = TimeAdvance(3, b.system.input_fam, b.system.output_fam)
    rep = check_causality(adv, _pasts(b.grid(DT), 9, 2), [0.0], rng=2)
    assert not rep["causal"]
    assert rep["violations"][0]["gap"] > 0.0


def test_memory_affects_causality():
    # Same samples inside the memory window, different levels: the
    # finite-memory norm calls them equal, the eventual-level term does not.
    b = catalog.system("averager-1x", DT)
    g = b.grid(DT)
    box = catalog.family("box-l2")
    M = box.weight.support
    idx = np.arange(g.i0 + 1, g.i1 + 1)
    base = TimeFunction(g, np.ones((g.n, 1)), np.array([1.0]))
    vals = np.where((idx * DT <= -M)[:, None], 0.0, 1.0)
    other = TimeFunction(g, vals, np.array([0.0]))
    assert box.past_norm(base - other, 0.0) == 0.0
    y_gap = b.system.output_fam.past_norm(
        b.system.apply(base) - b.system.apply(other), 0.0)
    assert y_gap > 0.5


def test_centered_truncation_time_invariant(quad):
    # For a time-invariant operator the recentred view is one operator.
    sysq = quad.system
    g0 = Grid(DT, -int(2.0 / DT), 0)
    u0 = _pasts(g0, 11, 1)[0]
    ya = centered_truncations(sysq, -0.6, [u0])[0]
    yb = centered_truncations(sysq, 1.2, [u0])[0]
    assert np.array_equal(ya.samples, yb.samples)


def test_centered_truncation_matches_definition(quad):
    # Recentring literally: shift in, apply, truncate, shift back.
    sysq = quad.system
    t = 0.8
    g0 = Grid(DT, -int(2.0 / DT), 0)
    u0 = _pasts(g0, 13, 1)[0]
    got = centered_truncations(sysq, t, [u0])[0]
    u = shift_left(u0, -t)
    y = sysq.apply(u)
    want = shift_left(y.with_window(y.grid.i0, y.grid.index_of(t)), t)
    assert np.array_equal(got.samples, want.samples)


def test_tv_windowed_views_differ():
    b = catalog.system("quadratic-volterra-tv", DT)
    g0 = Grid(DT, -int(2.0 / DT), 0)
    u0 = _pasts(g0, 15, 1)[0]
    ya = centered_truncations(b.system, 0.0, [u0])[0]
    yb = centered_truncations(b.system, 1.0, [u0])[0]
    assert np.max(np.abs(ya.samples - yb.samples)) > 1e-6


def _kernel_at(ker, t, *lags):
    """``sum_r a_r(t) G_r(lags)`` of a time-varying kernel, from its parts'
    callables."""
    return sum(a(t) * g.func(*lags) for a, g in ker.parts)


def test_tv_centered_view_kernel_quadrature():
    # The recentred view of the time-varying operator evaluates the kernel
    # at the shifted absolute instant: direct double sums reproduce it.
    b = catalog.system("quadratic-volterra-tv", DT)
    ker = b.system.kernels[2]
    t = 0.7
    g0 = Grid(DT, -int(2.0 / DT), 0)
    u0 = _pasts(g0, 16, 1)[0]
    y0 = centered_truncations(b.system, t, [u0])[0]
    Q = ker.grid_size(DT)
    lags = np.arange(1, Q + 1) * DT
    for p_idx in (-40, -10, 0):
        uvals = u0.values_at_indices(p_idx - np.arange(1, Q + 1))[:, 0]
        K = _kernel_at(ker, t + p_idx * DT, lags[:, None], lags[None, :])
        want = float(np.einsum("jk,j,k->", K, uvals, uvals)) * DT * DT
        assert y0.values_at_indices([p_idx])[0, 0] == pytest.approx(
            want, abs=1e-12)


def test_tv_rejects_nonzero_tail():
    b = catalog.system("quadratic-volterra-tv", DT)
    g = b.grid(DT)
    u = TimeFunction(g, np.ones((g.n, 1)), np.array([1.0]))
    with pytest.raises(ValueError, match="zero input tail"):
        b.system.apply(u)


def test_centered_equals_truncated_estimate(quad):
    # The recentred and the in-place window estimates are the same numbers.
    sysq = quad.system
    t = 0.5
    g0 = Grid(DT, -int(2.0 / DT), 0)
    probes0 = _pasts(g0, 17, 4)
    cen = estimate_npower(
        [sysq.input_fam.past_norm(u0, 0.0) for u0 in probes0],
        [sysq.output_fam.past_norm(centered_truncations(sysq, t, [u0])[0],
                                   0.0) for u0 in probes0], 2)
    best = 0.0
    for u0 in probes0:
        u = shift_left(u0, -t)
        y = sysq.apply(u)
        y = y.with_window(y.grid.i0, u.grid.index_of(t))
        best = max(best, sysq.output_fam.past_norm(y, t)
                   / (1.0 + sysq.input_fam.past_norm(u, t) ** 2))
    assert cen == best


def test_npower_zero_scaling_monotone(quad):
    sysq = quad.system
    g0 = Grid(DT, -int(2.0 / DT), 0)
    probes0 = _pasts(g0, 19, 6)
    ins = [sysq.input_fam.past_norm(u, 0.0) for u in probes0]
    out_n = lambda ys: [sysq.output_fam.past_norm(y, 0.0) for y in ys]
    ys = [sysq.apply(u) for u in probes0]
    zero = estimate_npower(ins, out_n([0.0 * y for y in ys]), 2)
    assert zero == 0.0
    base = estimate_npower(ins, out_n(ys), 2)
    tripled = estimate_npower(ins, out_n([3.0 * y for y in ys]), 2)
    assert tripled == pytest.approx(3.0 * base, rel=1e-12)
    # Estimates grow with the probe set.
    small = estimate_npower(ins[:3], out_n(ys[:3]), 2)
    assert small <= base
    # No pairs, no size.
    assert estimate_npower([], [], 2) == 0.0


def test_global_below_windowed_suprema(quad):
    sysq = quad.system
    g = quad.grid(DT)
    probes = _pasts(g, 21, 4)
    ys = [sysq.apply(u) for u in probes]
    glob = estimate_npower([sysq.input_fam.bounding_norm(u) for u in probes],
                           [sysq.output_fam.bounding_norm(y) for y in ys], 2)
    matched = 0.0
    for u, y in zip(probes, ys):
        allt = sysq.output_fam.past_norms_all_t(y)
        pos = max(int(np.argmax(allt)), 1)
        t_star = (y.grid.i0 + pos) * DT
        num = sysq.output_fam.past_norm(y, t_star)
        den = 1.0 + sysq.input_fam.past_norm(u, t_star) ** 2
        matched = max(matched, num / den)
    assert glob <= matched * (1.0 + 1e-9)


def test_quadratic_pairwise_modulus(quad):
    # |F_t(a) - F_t(b)|_0 <= HS * |a - b|_0 * (|a|_0 + |b|_0), pair by pair.
    sysq = quad.system
    M = catalog.hilbert_schmidt_bound(sysq, DT)
    g0 = Grid(DT, -int(1.5 / DT), 0)
    probes0 = _pasts(g0, 22, 5)
    outs = [centered_truncations(sysq, 0.0, [u])[0] for u in probes0]
    nrm = lambda u: sysq.input_fam.past_norm(u, 0.0)
    for i in range(len(probes0)):
        for j in range(i + 1, len(probes0)):
            dy = sysq.output_fam.past_norm(outs[i] - outs[j], 0.0)
            a, b = probes0[i], probes0[j]
            assert dy <= M * nrm(a - b) * (nrm(a) + nrm(b)) * (1.0 + 1e-9)


def test_hypothesis_uniformity(quad):
    sysq = quad.system
    g0 = Grid(DT, -int(1.5 / DT), 0)
    probes0 = _pasts(g0, 23, 4)
    rep = hypothesis_uniformity_check(sysq, (-0.4, 0.0, 0.4), probes0, 2)
    assert rep["time_invariant_consistent"]
    assert rep["uniform_bound"] < np.inf
    M = catalog.hilbert_schmidt_bound(sysq, DT)
    assert rep["uniform_bound"] <= M * (1.0 + 1e-9)
    # Continuity modulus respects the product bound from the kernel size.
    pairs_bound = max(
        sysq.input_fam.past_norm(a, 0.0) + sysq.input_fam.past_norm(b, 0.0)
        for a in probes0 for b in probes0)
    assert rep["modulus_bound"] <= M * pairs_bound * (1.0 + 1e-9)


def test_hypothesis_uniformity_applies_once_per_instant_and_probe(
        quad, monkeypatch):
    # One apply_all call per instant, with every probe in it.
    sysq = quad.system
    probes0 = _pasts(Grid(DT, -int(1.5 / DT), 0), 23, 4)
    ts = (-0.4, 0.0, 0.4)
    calls = []
    apply_all = sysq.apply_all
    monkeypatch.setattr(sysq, "apply_all",
                        lambda us: calls.append(len(us)) or apply_all(us))
    hypothesis_uniformity_check(sysq, ts, probes0, 2)
    assert calls == [len(probes0)] * len(ts)


def test_steering_reaches_target_exactly():
    b = catalog.system("oscillator", DT)
    g = b.grid(DT)
    x = np.array([0.35, -0.8])
    past = steer_to_state(b.system, x, 0.0, 2.0, g)
    got = b.system.apply(past).value(0.0)
    assert np.allclose(got, x, atol=1e-10)


def test_steering_refuses_window_outside_grid():
    # 2 s before t_end = 0 reaches back to -2, past the window start -1:
    # no input on the grid can steer there.
    b = catalog.system("oscillator", 0.01)
    g = Grid(0.01, -100, 50)
    x = np.array([0.5, -0.3])
    with pytest.raises(ValueError, match="does not fit"):
        steer_to_state(b.system, x, 0.0, 2.0, g)
    with pytest.raises(ValueError, match="does not fit"):
        steer_to_state(b.system, x, 0.6, 0.5, g)  # t_end past the grid end
    # A window of 1.5 steps is refused, not snapped to two.
    with pytest.raises(AlignmentError,
                       match="length 0.015 is not a multiple of dt=0.01"):
        steer_to_state(b.system, x, 0.0, 0.015, g)
    past = steer_to_state(b.system, x, 0.0, 1.0, g)  # exactly fills (-1, 0]
    assert np.allclose(b.system.apply(past).value(0.0), x, atol=1e-10)
    idx = np.arange(g.i0 + 1, g.i1 + 1)
    assert not np.any(past.samples[idx > 0])


def _lti_per_step(system, u):
    """The step loop with the input term formed inside every step."""
    Ad, Bd = system._stepper(u.grid.dt)
    x = system.initial_state(u)
    out = []
    for k in range(u.grid.n):
        x = Ad @ x + Bd @ u.samples[k]
        out.append(x)
    return np.array(out)


def test_lti_steps_match_per_step_form():
    fam = catalog.family("uniform-l2")
    A = [[0.0, 1.0], [-1.0, -0.6]]
    g = Grid(DT, -60, 140)
    rng = np.random.default_rng(61)
    # One input: every input term is a single product either way.
    one = LTISystem(A, [[0.0], [1.0]], fam, fam)
    u1 = TimeFunction(g, rng.standard_normal((g.n, 1)), np.array([0.4]))
    assert np.array_equal(one.apply(u1).samples, _lti_per_step(one, u1))
    # Two inputs: the hoisted matmul may round each input term differently.
    two = LTISystem(A, [[0.3, -1.1], [1.0, 0.7]], fam, fam)
    u2 = TimeFunction(g, rng.standard_normal((g.n, 2)), np.array([0.4, -0.2]))
    got, want = two.apply(u2).samples, _lti_per_step(two, u2)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    # A stacked batch, from one start or from one start per trajectory,
    # steps every trajectory exactly as its own call does.
    for system in (one, two):
        samples = rng.standard_normal((2, 3, 37, system.input_dim))
        starts = rng.standard_normal((2, 3, 2))
        alone = np.array([[system._steps(starts[0, 0], u, DT) for u in row]
                          for row in samples])
        assert np.array_equal(system._steps(starts[0, 0], samples, DT), alone)
        alone = np.array([[system._steps(x, u, DT) for x, u in zip(xs, row)]
                          for xs, row in zip(starts, samples)])
        assert np.array_equal(system._steps(starts, samples, DT), alone)


def _zoh_block(A, B, dt):
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    n, m = B.shape
    blk = np.zeros((n + m, n + m))
    blk[:n, :n], blk[:n, n:] = A, B
    return blk * dt


_EXPM_CASES = {
    "nilpotent": np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]]),
    "oscillator": np.array([[0.0, 1.0], [-(2.0 * np.pi) ** 2, 0.0]]) * 0.3,
    # Eigenvalues -1e4 and -1 at dt 0.01: the 1-norm is past theta_13, so
    # the result goes through the squaring.
    "stiff": np.array([[-1.0e4, 1.0], [0.0, -1.0]]) * 0.01,
    "two-input": _zoh_block([[0.0, 1.0], [-2.0, -0.3]],
                            [[0.3, -1.1], [1.0, 0.7]], 0.01),
    "scalar": np.array([[0.7]]),
}


@pytest.mark.parametrize("name", list(_EXPM_CASES))
def test_expm_matches_scipy(name):
    M = _EXPM_CASES[name]
    want = scipy.linalg.expm(M)
    got = _expm(M)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if name == "stiff":
        assert np.linalg.norm(M, 1) > _THETA13


def test_expm_closed_forms():
    assert np.array_equal(_expm(np.zeros((3, 3))), np.eye(3))
    N = _EXPM_CASES["nilpotent"]
    assert np.allclose(_expm(N), np.eye(3) + N + N @ N / 2.0,
                       rtol=0.0, atol=1e-15)
    c, s = np.cos(2.0 * np.pi * 0.3), np.sin(2.0 * np.pi * 0.3)
    want = [[c, s / (2.0 * np.pi)], [-2.0 * np.pi * s, c]]
    assert np.allclose(_expm(_EXPM_CASES["oscillator"]), want,
                       rtol=0.0, atol=1e-14)
    assert _expm(np.array([[0.7]]))[0, 0] == pytest.approx(np.exp(0.7),
                                                         rel=1e-15)


def test_non_finite_lti_matrices_are_refused():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="1-norm"):
            _expm(np.array([[0.0, bad], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="overflows"):
        _expm(np.array([[1000.0]]))
    fam = catalog.family("uniform-l2")
    with pytest.raises(ValueError, match="finite"):
        LTISystem([[np.nan]], [[1.0]], fam, fam)
    with pytest.raises(ValueError, match="finite"):
        LTISystem([[-1.0]], [[np.inf]], fam, fam)


def test_cli_import_leaves_scipy_out_and_loads_numpy_random():
    src = str(Path(catalog.__file__).resolve().parents[1])
    code = ("import sys, natstate.cli; "
            "print('scipy' in sys.modules, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["False", "True"]


def test_cubic_operator_runs():
    b = catalog.system("cubic-volterra", 0.04)
    g = b.grid(0.04)
    u = _pasts(g, 25, 1)[0]
    y = b.system.apply(u)
    assert np.all(np.isfinite(y.samples))
    # Constant term shows through at zero input.
    z = TimeFunction(g, np.zeros((g.n, 1)), np.zeros(1))
    assert np.all(b.system.apply(z).samples == b.params["constant_term"])


# -- the multilinear contraction ---------------------------------------------

# Per-degree contractions written out index by index: the oracle for the
# single matmul-and-reduce path.
EINSUM_ORACLE = {1: "aj,ija->i", 2: "abjk,ija,ikb->i",
                 3: "abcjkl,ija,ikb,ilc->i"}


def _contract(K, mats):
    """``sum K[a.., j..] prod_m mats[m][i, j_m, a_m]`` for every row ``i``,
    directly over the grid: the oracle of the factored term.

    ``K`` has shape ``(M,)*n + (Q,)*n`` and each of the ``n`` matrices shape
    ``(I, Q, M)``.  The first slot is one matmul against ``K`` flattened to
    ``(QM, (QM)^(n-1))`` (``_slot_major``); each further slot is one
    row-wise reduction.
    """
    I = mats[0].shape[0]
    T = mats[0].reshape(I, -1) @ _slot_major(K)
    for x in mats[1:]:
        T = np.einsum("id,ide->ie", x.reshape(I, -1),
                      T.reshape(I, x[0].size, -1))
    return T[:, 0]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 2])
def test_contract_matches_einsum_oracle(n, M):
    rng = np.random.default_rng(10 * n + M)
    Q, I = 5, 37  # I spans several row blocks of Q*M rows
    K = rng.standard_normal((M,) * n + (Q,) * n)
    mats = [rng.standard_normal((I, Q, M)) for _ in range(n)]  # distinct slots
    want = np.einsum(EINSUM_ORACLE[n], K, *mats)
    got = _contract(K, mats)
    assert got.shape == (I,)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def _grid_kernel(kind, n, M, Q, rng):
    """A kernel grid ``(M,)*n + (Q,)*n`` on ``dt = 1``: zero, one to three
    separable terms of spread magnitudes, or full-rank random."""
    if kind == "zero":
        K = np.zeros((M,) * n + (Q,) * n)
    elif kind == "full-rank":
        K = rng.standard_normal((M,) * n + (Q,) * n)
    else:
        K = 0.0
        for _ in range(int(kind[0])):
            vs = [rng.standard_normal((M, Q)) * np.exp(rng.uniform(-3, 3))
                  for _ in range(n)]
            spec = ",".join("abc"[s] + "jkl"[s] for s in range(n))
            K = K + np.einsum(f"{spec}->{'abc'[:n]}{'jkl'[:n]}", *vs)
    return PolyKernel(n, float(Q), input_dim=M, data=K, data_dt=1.0)


def _counted(fn, calls):
    """``fn``, recording the shape of its first argument at every call."""
    return lambda *args, **kw: calls.append(args[0].shape) or fn(*args, **kw)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), M=st.integers(1, 2), Q=st.integers(1, 6),
       I=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["zero", "1-separable", "2-separable",
                             "3-separable", "full-rank"]),
       shared=st.booleans())
# Zero grids of degree 2 and 3 factor at rank 0: no factor column at all.
@example(n=2, M=1, Q=3, I=5, seed=0, kind="zero", shared=True)
@example(n=3, M=2, Q=2, I=4, seed=0, kind="zero", shared=False)
def test_factored_term_matches_the_direct_contraction(n, M, Q, I, seed, kind,
                                                      shared):
    # The term through the slot factors against _contract and the einsum
    # oracle, row by row, within the direct sum's rounding bound
    # size * eps * max|K| * prod_s ||x_s||_1 over the size = (QM)^n cells.
    rng = np.random.default_rng(seed)
    ker = _grid_kernel(kind, n, M, Q, rng)
    K = ker.grid_values(1.0)
    mats = [rng.standard_normal((I, Q, M)) * np.exp(rng.uniform(-2, 2))
            for _ in range(1 if shared else n)]
    mats = mats * n if shared else mats
    op = PolyIntegralOperator([ker], 0.0, catalog.family("uniform-l2"),
                              catalog.family("esssup"), input_dim=M)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "vecdot", _counted(np.vecdot, calls))
        got = op._term(ker, mats, np.arange(I), 1.0)
    assert len(calls) == n  # one contraction per slot, whatever the rank
    assert got.shape == (I,)
    bound = (K.size * np.finfo(float).eps * np.max(np.abs(K))
             * np.prod([np.abs(m).reshape(I, -1).sum(axis=1) for m in mats],
                       axis=0))
    for want in (_contract(K, mats), np.einsum(EINSUM_ORACLE[n], K, *mats)):
        assert np.all(np.abs(got - want) <= bound)
    # At most (QM)^(n-1) terms: the n contractions of (I, QM) with (QM, T)
    # cost at most n times _contract's (I, QM) @ (QM, (QM)^(n-1)).
    D = Q * M
    F = ker.grid_factors(1.0)
    assert all(f.shape == F[0].shape for f in F) and len(F) == n
    assert F[0].shape[0] == D and F[0].shape[1] <= D ** (n - 1)
    if kind == "zero":  # no term, except a degree-1 grid's own column
        assert F[0].shape[1] == (1 if n == 1 else 0) and not np.any(got)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_time_varying_term_matches_the_direct_contraction(n):
    # A kernel of full rank at every instant, not separable in t,
    # cos(t + A) = cos t cos A - sin t sin A as two parts: each row of the
    # term through the parts' slot factors against _contract of the summed
    # grid at its instant, within the same rounding bound.
    rng = np.random.default_rng(n)
    Q, I = 4, 7
    A = rng.standard_normal((Q,) * n)

    def fixed(B):
        return PolyKernel(n, float(Q), data=B[(None,) * n], data_dt=1.0)

    ker = PolyKernel(n, float(Q), parts=[
        (np.cos, fixed(np.cos(A))), (lambda t: -np.sin(t), fixed(np.sin(A)))])
    op = PolyIntegralOperator([ker], 0.0, catalog.family("uniform-l2"),
                              catalog.family("esssup"))
    mats = [rng.standard_normal((I, Q, 1)) for _ in range(n)]
    t_idx = np.arange(I) - 3
    got = op._term(ker, mats, t_idx, 1.0)
    for i, t in enumerate(t_idx):
        K = np.cos(t + A)[(None,) * n]
        rows = [m[i:i + 1] for m in mats]
        bound = (K.size * np.finfo(float).eps * np.max(np.abs(K))
                 * np.prod([np.abs(r).sum() for r in rows]))
        assert abs(got[i] - _contract(K, rows)[0]) <= bound
    assert all(("factors", 1.0) in g._cache for _, g in ker.parts)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
def test_non_finite_kernel_grids_give_non_finite_outputs(n, bad):
    # One inf or nan cell, or a level of 1e308 that overflows the sum: the
    # factored term is non-finite, and apply refuses the output.
    dt, Q = 0.25, 4
    K = np.full((1,) * n + (Q,) * n, 1e308 if bad == 1e308 else 0.5)
    K[(0,) * n + (1,) * n] = bad
    ker = PolyKernel(n, Q * dt, data=K, data_dt=dt)
    op = PolyIntegralOperator([ker], 0.0, catalog.family("uniform-l2"),
                              catalog.family("esssup"))
    g = Grid(dt, -8, 8)
    u = TimeFunction(g, np.ones((g.n, 1)), np.zeros(1))
    with np.errstate(over="ignore", invalid="ignore"):
        y = op.apply_at(u, np.arange(g.i0, g.i1 + 1))
        with pytest.raises(ValueError, match="non-finite sample"):
            op.apply(u)
    assert not np.all(np.isfinite(y[g.n // 2:]))


def _cubic_tv_operator(S):
    fixed = PolyKernel(3, S, func=lambda a, b, c: np.exp(-(a + 2.0 * b
                                                            + 3.0 * c)))
    ker = PolyKernel(3, S, parts=[(lambda t: 1.0 + 0.5 * np.sin(t), fixed)])
    fam = catalog.family("uniform-l2")
    return PolyIntegralOperator([ker], 0.0, fam, catalog.family("esssup")), ker


def test_term_time_varying_degree3_distinct_slots():
    dt, S = 0.05, 0.3
    op, ker = _cubic_tv_operator(S)
    g = Grid(dt, -20, 10)
    u, v, w = _pasts(g, 31, 3)
    t_idx = np.arange(g.i0, g.i1 + 1)
    Q = ker.grid_size(dt)
    got = op._term(ker, [op._past_matrix(s, t_idx, Q) for s in (u, v, w)],
                   t_idx, dt)
    lags = np.arange(1, Q + 1) * dt
    mesh = np.meshgrid(lags, lags, lags, indexing="ij")
    for i, t in enumerate(t_idx):
        past = [s.values_at_indices(t - np.arange(1, Q + 1))[:, 0]
                for s in (u, v, w)]
        K = _kernel_at(ker, t * dt, *mesh)
        want = np.einsum("jkl,j,k,l->", K, *past) * dt ** 3
        assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_time_varying_degree3_derivative(gateaux_fd):
    # The analytic differential of a degree-3 time-varying operator matches
    # its central difference (O(h^2) apart).
    op, _ = _cubic_tv_operator(0.3)
    g = Grid(0.05, -20, 10)
    u, v = _pasts(g, 32, 2)
    L = frechet_of(op).L(u, v)
    fd = gateaux_fd(op, u, v, h=1e-4)
    assert np.max(np.abs(L.samples - fd.samples)) <= 1e-7
    assert L.tail_value[0] == 0.0


def test_poly_tail_value_is_constant_input_sum():
    # Output tail of a constant-tail input: c0 + sum_n dt^n sum K ubar^n.
    dt = 0.04
    b = catalog.system("cubic-volterra", dt)
    g = b.grid(dt)
    ubar = 0.7
    u = _pasts(g, 33, 1, tail=ubar)[0]
    y = b.system.apply(u)
    want = b.system.constant + sum(
        dt ** n * ubar ** n * float(np.sum(k.grid_values(dt)))
        for n, k in b.system.kernels.items())
    assert y.tail_value[0] == pytest.approx(want, rel=1e-12)
    # Vector input: each component axis of the kernel meets its tail level.
    M, S = 2, 0.2
    ker = PolyKernel(2, S, input_dim=M,
                     func=lambda ix, s1, s2: (ix[0] - 0.4 * ix[1])
                     * np.exp(-s1 - s2))
    fam = catalog.family("uniform-l2")
    op = PolyIntegralOperator([ker], 0.25, fam, catalog.family("esssup"),
                              input_dim=M)
    tail = np.array([0.6, -1.1])
    gv = Grid(dt, -10, 10)
    uv = TimeFunction(gv, np.ones((gv.n, M)), tail)
    K = ker.grid_values(dt)
    want = 0.25 + dt ** 2 * float(np.sum(
        K * tail[:, None, None, None] * tail[None, :, None, None]))
    assert op.apply(uv).tail_value[0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("M", [1, 2])
def test_past_matrix_matches_flat_gather(quad, M):
    # The sliding-window lag matrix against the flat-index gather it
    # replaced, at instants below i0, inside the grid and at i1 (+1).
    g = Grid(DT, -7, 12)
    rng = np.random.default_rng(34)
    u = TimeFunction(g, rng.standard_normal((g.n, M)),
                     rng.standard_normal(M))
    Q = 5
    t_idx = np.array([g.i0 - 9, g.i0 - 1, g.i0, g.i0 + 1, g.i0 + 3, 0,
                      g.i1 - 1, g.i1, g.i1 + 1])
    flat = (t_idx[:, None] - np.arange(1, Q + 1)[None, :]).ravel()
    want = u.values_at_indices(flat).reshape(t_idx.shape[0], Q, M)
    op = quad.system
    got = op._past_matrix(u, t_idx, Q)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    with pytest.raises(IndexError, match="beyond the represented horizon"):
        op._past_matrix(u, np.array([g.i1 + 2]), Q)


# -- one lag matrix per input ---------------------------------------------------


def _count_past_matrix(monkeypatch) -> list:
    """Record the grid size of every ``_past_matrix`` call from now on."""
    calls = []
    build = PolyIntegralOperator._past_matrix

    def counted(self, u, t_idx, Q):
        calls.append(Q)
        return build(self, u, t_idx, Q)

    monkeypatch.setattr(PolyIntegralOperator, "_past_matrix", counted)
    return calls


def test_each_input_lag_matrix_is_built_once_per_call(monkeypatch):
    calls = _count_past_matrix(monkeypatch)
    for name in ("quadratic-volterra", "cubic-volterra"):
        b = catalog.system(name, 0.05)
        u = _pasts(b.grid(0.05), 40, 1, tail=0.3)[0]
        calls.clear()
        b.system.apply(u)
        assert len(calls) == 1, name
    # One matrix per distinct grid size, never a slice of a larger one.
    calls.clear()
    _two_support_operator().apply(u)
    assert calls == [4, 8]
    fp = frechet_of(b.system)  # cubic-volterra: degrees 1-3, one grid size
    v = _pasts(u.grid, 41, 1)[0]
    for D in (fp.L, fp.W):
        calls.clear()
        D(u, v)
        assert len(calls) == 2
    # Distinct inputs in the slots of one time-varying term: one matrix each.
    op, ker = _cubic_tv_operator(0.3)
    g = Grid(0.05, -20, 10)
    calls.clear()
    op._terms(_pasts(g, 42, 3), [(ker, [0, 1, 2])], np.arange(g.i0, g.i1 + 1))
    assert calls == [ker.grid_size(0.05)] * 3


def _term_per_slot(op, ker, slots, t_idx, dt):
    """The term with one ``_past_matrix`` per slot, then the contraction
    ``_term`` makes: the oracle for terms whose slots share one lag
    matrix."""
    Q = ker.grid_size(dt)
    return op._term(ker, [op._past_matrix(s, t_idx, Q) for s in slots],
                    t_idx, dt)


def _apply_at_per_slot(op, u, t_idx):
    y = np.full(t_idx.shape[0], op.constant)
    for n, ker in sorted(op.kernels.items()):
        y += _term_per_slot(op, ker, [u] * n, t_idx, u.grid.dt)
    return y[:, None]


def _frechet_per_slot(op, u, v):
    """``(L(u, v), W(u, v))`` term by term on ``u``'s grid, with one lag
    matrix per slot."""
    kers = {n: symmetrize(k) for n, k in op.kernels.items()}

    def term(ker, slots):
        g = slots[0].grid
        vals = _term_per_slot(op, ker, slots, np.arange(g.i0, g.i1 + 1), g.dt)
        return TimeFunction(g, vals[1:], vals[:1])

    L = None
    W = 0.0 * v
    for n, ker in sorted(kers.items()):
        t = term(ker, [u] * (n - 1) + [v]) * float(n)
        L = t if L is None else L + t
        for k in range(2, n + 1):
            W = W + term(ker, [u] * (n - k) + [v] * k) * float(math.comb(n, k))
    return L, W


def _same_bits(a: TimeFunction, b: TimeFunction) -> bool:
    return (a.grid == b.grid and a.samples.tobytes() == b.samples.tobytes()
            and a.tail_value.tobytes() == b.tail_value.tobytes())


def _two_support_operator():
    # Degree 1 on 0.2 s and degree 2 on 0.4 s: two grid sizes in one apply.
    k1 = PolyKernel(1, 0.2, func=lambda s: np.cos(3.0 * np.asarray(s)))
    k2 = PolyKernel(2, 0.4, func=lambda a, b: np.exp(-a - 2.0 * b))
    return PolyIntegralOperator([k1, k2], -0.3, catalog.family("uniform-l2"),
                                catalog.family("esssup"))


def _vector_operator():
    ker = PolyKernel(2, 0.2, input_dim=2,
                     func=lambda ix, s1, s2: (ix[0] - 0.4 * ix[1])
                     * np.exp(-s1 - 2.0 * s2))
    return PolyIntegralOperator([ker], 0.25, catalog.family("uniform-l2"),
                                catalog.family("esssup"), input_dim=2)


@pytest.mark.parametrize("name", ["quadratic-volterra", "quadratic-volterra-tv",
                                  "cubic-volterra", "vector", "two-supports"])
def test_shared_lag_matrices_keep_every_bit(name):
    dt = 0.05
    if name == "vector":
        op, M = _vector_operator(), 2
    elif name == "two-supports":
        op, M = _two_support_operator(), 1
    else:
        op, M = catalog.system(name, dt).system, 1
    g = Grid(dt, -30, 25)
    tail = 0.0 if not op.time_invariant else 0.4
    rng = np.random.default_rng(43)
    u, v = (TimeFunction(g, rng.standard_normal((g.n, M)) * 0.5,
                         np.full(M, tail)) for _ in range(2))
    y = op.apply(u)
    want = _apply_at_per_slot(op, u, np.arange(g.i0, g.i1 + 1))
    assert _same_bits(y, TimeFunction(g, want[1:], want[0]))
    t_idx = np.array([g.i1 + 1, g.i0 - 7, 3, g.i0, 3, g.i1, -12, g.i0 + 1])
    got = op.apply_at(u, t_idx)
    assert got.tobytes() == _apply_at_per_slot(op, u, t_idx).tobytes()
    if M == 1:
        fp = frechet_of(op)
        L, W = _frechet_per_slot(op, u, v)
        assert _same_bits(fp.L(u, v), L)
        assert _same_bits(fp.W(u, v), W)
        # A direction on another grid is refused by both, whatever the
        # degrees: the expansion point and the direction share one grid.
        v = TimeFunction(Grid(dt, -10, 30), rng.standard_normal((40, 1)),
                         np.zeros(1))
        for D in (fp.L, fp.W):
            with pytest.raises(ValueError, match="grids differ"):
                D(u, v)


@pytest.mark.parametrize("name", ["quadratic-volterra", "cubic-volterra",
                                  "quadratic-volterra-tv"])
def test_apply_at_subsets_agree_with_apply_to_rounding(name):
    # Each output row is a dot product of its own lag window with the slot
    # factors (a time-varying kernel's factored at the row's instant), so
    # any subset of instants gets the bits of the same rows of apply.
    dt = 0.01
    b = catalog.system(name, dt)
    g = b.grid(dt)
    rng = np.random.default_rng(5)
    tail = 0.3 if b.system.time_invariant else 0.0
    u = TimeFunction(g, rng.uniform(-1.0, 1.0, (g.n, 1)), np.array([tail]))
    y = b.system.apply(u)
    rows = np.concatenate([y.tail_value, y.samples[:, 0]])
    instants = np.arange(g.i0, g.i1 + 1)
    for _ in range(30):
        t_idx = np.sort(rng.choice(instants, size=rng.integers(1, 60),
                                   replace=False))
        got = b.system.apply_at(u, t_idx)[:, 0]
        assert np.array_equal(got, rows[t_idx - g.i0])


@pytest.mark.parametrize("name", [
    "averager-1x", "fading-conv", "oscillator", "leaky-integrator",
    "quadratic-volterra", "quadratic-volterra-tv", "cubic-volterra", "vector",
    "two-supports", "time-advance"])
def test_apply_all_matches_a_loop_of_apply(name):
    # One batched call gives every input the bits of its own apply: the
    # convolution, the state equation, polynomial degrees 1-3, a
    # time-varying kernel, two inputs and two kernel grid sizes, and the
    # time advance's stacked shift.
    dt = 0.05
    if name == "vector":
        op = _vector_operator()
    elif name == "two-supports":
        op = _two_support_operator()
    elif name == "time-advance":
        op = TimeAdvance(3, catalog.family("uniform-l2"),
                         catalog.family("esssup"))
    else:
        op = catalog.system(name, dt).system
    g = Grid(dt, -30, 25)
    rng = np.random.default_rng(44)
    M = op.input_dim
    us = [TimeFunction(g, rng.standard_normal((g.n, M)) * 0.5,
                       np.full(M, 0.4 * (k % 2) if op.time_invariant else 0.0))
          for k in range(5)]
    ys = op.apply_all(us)
    assert isinstance(ys, TimeFunction) and len(ys) == len(us)
    for u, y in zip(us, ys):
        assert _same_bits(y, op.apply(u))
    assert _same_bits(op.apply_all(TimeFunction.stack(us)[2:4])[1], ys[3])
    if isinstance(op, PolyIntegralOperator):
        want = _apply_at_per_slot(op, us[1], np.arange(g.i0, g.i1 + 1))
        assert _same_bits(ys[1], TimeFunction(g, want[1:], want[0]))

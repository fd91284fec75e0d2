import hashlib
import json
import math

import numpy as np
import pytest

from natstate import (Grid, NaturalState, PolyIntegralOperator, TimeFunction,
                      fd_directional_order, frechet_of,
                      input_to_state_frechet, remainder_decay,
                      shift_derivative, state_frechet, trajectory_derivative)
from natstate import catalog
from natstate.calculus import SmoothInput
from natstate.cli import main
from natstate.probes import future_probes

DT = 0.02


def _past(grid, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    return TimeFunction(grid, rng.standard_normal((grid.n, 1)) * scale,
                        np.zeros(1))


@pytest.fixture
def quad():
    return catalog.system("quadratic-volterra", DT)


# -- shift derivatives -----------------------------------------------------


def test_constant_has_zero_residual():
    g = Grid(1e-3, -1000, 1000)
    sd = shift_derivative(SmoothInput.constant(2.5), g,
                          catalog.family("uniform-l2"))
    assert np.all(sd.d.samples == 0.0)
    assert sd.residual_norm(0.05) == 0.0


def test_trapezoid_residual_numbers():
    g = Grid(1e-3, -2000, 12000)
    sd = shift_derivative(SmoothInput.trapezoid(), g,
                          catalog.family("uniform-l2"))
    # Derivative samples are the two indicator ramps.
    assert sd.d.value(-0.5) == 1.0
    assert sd.d.value(5.0) == 0.0
    assert sd.d.value(10.5) == -1.0
    for h in (0.25, 0.125, 0.0625):
        assert sd.residual_norm(h) ** 2 == pytest.approx(
            4.0 * h ** 3 / 3.0, rel=0.02)
    ratio = sd.residual_norm(0.01) / 0.01
    assert ratio == pytest.approx(2.0 / math.sqrt(3.0) * 0.1, rel=0.05)


def test_sine_residual_taylor_bound():
    g = Grid(1e-3, 0, 2000)
    freq = 0.5
    sd = shift_derivative(SmoothInput.sine(freq=freq), g,
                          catalog.family("uniform-l2"))
    w = 2.0 * math.pi * freq
    span = g.t_end - g.t_start
    for h in (0.04, 0.02, 0.01):
        assert sd.residual_norm(h, t=g.t_end) / h <= \
            0.5 * h * w ** 2 * math.sqrt(span) * (1.0 + 1e-9)


def test_residual_ratio_sweep_decays():
    g = Grid(1e-3, -2000, 12000)
    sd = shift_derivative(SmoothInput.trapezoid(), g,
                          catalog.family("uniform-l2"))
    rows = sd.ratio_sweep(0.25)
    r = [row["ratio"] for row in rows]
    assert all(b <= a for a, b in zip(r[1:], r[2:]))
    assert r[-1] <= 0.1 * r[0]


def test_uniform_in_s_ratio():
    g = Grid(1e-3, -2000, 12000)
    sd = shift_derivative(SmoothInput.trapezoid(), g,
                          catalog.family("uniform-l2"))
    ts = [-1.0, 0.0, 5.0, 11.5]
    ratios = [sd.uniform_ratio(h, ts) for h in (0.2, 0.05, 0.0125)]
    assert ratios[2] < ratios[0]


def _where_trapezoid():
    """The trapezoid as masked ``np.where`` chains: the oracle for
    :meth:`SmoothInput.trapezoid`'s value and derivative."""
    r0, r1, f0, f1, level = -1.0, 0.0, 10.0, 11.0, 1.0
    slope_up = level / (r1 - r0)
    slope_dn = level / (f1 - f0)

    def u(t):
        out = np.zeros_like(t)
        out = np.where((t > r0) & (t <= r1), (t - r0) * slope_up, out)
        out = np.where((t > r1) & (t <= f0), level, out)
        return np.where((t > f0) & (t <= f1), (f1 - t) * slope_dn, out)

    def d(t):
        out = np.zeros_like(t)
        out = np.where((t > r0) & (t <= r1), slope_up, out)
        return np.where((t > f0) & (t <= f1), -slope_dn, out)

    return u, d


def test_trapezoid_keeps_the_bits_of_masked_chains():
    # On the refined grid of the shift-derivative runs (dt 1e-3 over
    # [-2, 12]), shifted by every step they use, at the knots and on either
    # side of each knot, the value and derivative carry the oracle's bits.
    u, d = _where_trapezoid()
    trap = SmoothInput.trapezoid()
    g = Grid.spanning(1e-3, -2.0, 12.0)
    fine = Grid(g.dt / 16, g.i0 * 16, g.i1 * 16)
    t = fine.times()
    steps = {0.0, 0.01, 0.1, 0.2, 0.05, 0.0125, 0.25, 0.125, 0.0625}
    steps |= {0.25 * 0.5 ** k for k in range(8)}
    for h in sorted(steps):
        assert trap.u(t + h).tobytes() == u(t + h).tobytes(), h
    assert trap.d(t).tobytes() == d(t).tobytes()
    knots = np.array([-1.0, 0.0, 10.0, 11.0])
    edges = np.concatenate([knots, np.nextafter(knots, np.inf),
                            np.nextafter(knots, -np.inf), [-7.5, 0.5, 13.0]])
    assert trap.u(edges).tobytes() == u(edges).tobytes()
    assert trap.d(edges).tobytes() == d(edges).tobytes()


def test_jump_refused():
    g = Grid(1e-3, -100, 11000)
    with pytest.raises(ValueError, match="jump_discontinuity"):
        shift_derivative(SmoothInput.boxcar(), g, catalog.family("uniform-l2"))


# -- operator differentials ---------------------------------------------------


def test_linear_operator_differential():
    for name in ("integrator", "averager-1x"):
        b = catalog.system(name, DT)
        g = b.grid(DT)
        u, v = _past(g, 1), _past(g, 2)
        fp = frechet_of(b.system)
        assert np.all(fp.W(u, v).samples == 0.0)
        assert np.array_equal(fp.L(u, v).samples, b.system.apply(v).samples)


def test_quadratic_expansion_exact(quad):
    # Degree-2 quadrature is a bilinear form: the three-term expansion is
    # exact up to float regrouping.
    g = quad.grid(DT)
    u, v = _past(g, 3), _past(g, 4)
    fp = frechet_of(quad.system)
    lhs = quad.system.apply(u + v)
    rhs = quad.system.apply(u) + fp.L(u, v) + fp.W(u, v)
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-12


def test_cubic_expansion():
    b = catalog.system("cubic-volterra", 0.04)
    g = b.grid(0.04)
    u, v = _past(g, 5, 0.3), _past(g, 6, 0.3)
    fp = frechet_of(b.system)
    lhs = b.system.apply(u + v)
    rhs = b.system.apply(u) + fp.L(u, v) + fp.W(u, v)
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-10
    rows = remainder_decay(fp.W, u, v, b.system.output_fam.bounding_norm,
                           b.system.input_fam.bounding_norm)
    r = [row["ratio"] for row in rows]
    assert all(bb <= aa for aa, bb in zip(r[1:], r[2:]))
    assert r[-1] <= 0.1 * r[0]


def test_constant_polynomial_has_zero_pair():
    # No kernels: a constant operator, whose differential and remainder are
    # the zero function on the inputs' grid.
    fam = catalog.family("uniform-l2")
    op = PolyIntegralOperator([], 0.1, fam, catalog.family("esssup"))
    g = Grid(DT, -20, 10)
    u, v = _past(g, 10), _past(g, 11)
    fp = frechet_of(op)
    for D in (fp.L, fp.W):
        w = D(u, v)
        assert w.grid == g
        assert np.all(w.samples == 0.0) and np.all(w.tail_value == 0.0)


def test_operator_symmetrizes_each_kernel_once(monkeypatch):
    # Two Frechet pairs and a trajectory derivative of one operator read the
    # symmetric kernels it holds: each kernel is symmetrized once.
    from natstate import sysop
    degrees = []
    symmetrize = sysop.symmetrize

    def counted(k):
        degrees.append(k.degree)
        return symmetrize(k)

    monkeypatch.setattr(sysop, "symmetrize", counted)
    b = catalog.system("cubic-volterra", 0.04)
    g = b.grid(0.04)
    u, v = _past(g, 12, 0.3), _past(g, 13, 0.3)
    for _ in range(2):
        fp = frechet_of(b.system)
        fp.L(u, v), fp.W(u, v)
    td = trajectory_derivative(b.system, SmoothInput.sine(), 0.0, g)
    td(_past(Grid(0.04, 0, 10), 14))
    assert sorted(degrees) == [1, 2, 3]


def test_L_slot_linear(quad):
    g = quad.grid(DT)
    u, v, w = _past(g, 7), _past(g, 8), _past(g, 9)
    fp = frechet_of(quad.system)
    add = fp.L(u, v + w) - fp.L(u, v) - fp.L(u, w)
    hom = fp.L(u, -1.7 * v) - (-1.7) * fp.L(u, v)
    assert np.max(np.abs(add.samples)) <= 1e-10
    assert np.max(np.abs(hom.samples)) <= 1e-10


def test_remainder_bound_and_decay(quad):
    g = quad.grid(DT)
    u, v = _past(g, 10), _past(g, 11)
    fp = frechet_of(quad.system)
    out_n = quad.system.output_fam.bounding_norm
    in_n = quad.system.input_fam.bounding_norm
    M = catalog.hilbert_schmidt_bound(quad.system, DT)
    assert out_n(fp.W(u, v)) <= M * in_n(v) ** 2 * (1.0 + 1e-9)
    rows = remainder_decay(fp.W, u, v, out_n, in_n)
    r = [row["ratio"] for row in rows]
    assert all(b <= a for a, b in zip(r[1:], r[2:]))
    assert r[-1] <= 0.1 * r[0]


def test_directional_fd_order(quad):
    g = quad.grid(DT)
    u, v = _past(g, 12), _past(g, 13)
    fp = frechet_of(quad.system)
    rep = fd_directional_order(quad.system, fp, u, v,
                               quad.system.output_fam.bounding_norm,
                               [0.5 ** k for k in range(2, 8)])
    assert rep["exact"] or rep["order"] >= 0.9


def test_gateaux_fallback_close(quad, gateaux_fd):
    g = quad.grid(DT)
    u, v = _past(g, 14), _past(g, 15)
    fp = frechet_of(quad.system)
    fd = gateaux_fd(quad.system, u, v, h=1e-5)
    assert np.max(np.abs(fd.samples - fp.L(u, v).samples)) <= 1e-4


# -- state differentials ---------------------------------------------------------


def test_state_frechet_linear_system():
    b = catalog.system("integrator", DT)
    g = b.grid(DT)
    st = NaturalState(b.system, _past(g, 16), 0.0)
    sf = state_frechet(st, frechet_of(b.system))
    futs = future_probes(DT, 2.0, 17, count=3)
    v, w = futs[1], futs[2]
    got = sf.L(v, w)
    zero_state = NaturalState(b.system, 0.0 * st.past, 0.0)
    want = zero_state.evaluate(w)
    assert np.max(np.abs(got.samples - want.samples)) <= 1e-12
    assert np.all(sf.W(v, w).samples == 0.0)


def test_state_frechet_fd_and_norm(quad):
    g = quad.grid(DT)
    st = NaturalState(quad.system, _past(g, 18), 0.0)
    fp = frechet_of(quad.system)
    sf = state_frechet(st, fp)
    futs = future_probes(DT, quad.horizon, 19, count=6)
    v, w = futs[1], futs[2]
    h = 1e-4
    fd = (st.evaluate(v + h * w) - st.evaluate(v)) * (1.0 / h)
    gap = quad.system.output_fam.future_norm(fd - sf.L(v, w), 0.0)
    assert gap <= 10.0 * h
    # Matched-probe norm domination.
    out_fam, in_fam = quad.system.output_fam, quad.system.input_fam
    est_state, est_sys = 0.0, 0.0
    zero_past = 0.0 * st.past
    from natstate import splice, shift_right
    for wd in futs[2:]:
        a = st.spliced_input(v)
        bdir = splice(zero_past, shift_right(wd, 0.0), 0.0)
        est_state = max(est_state, out_fam.future_norm(sf.L(v, wd), 0.0)
                        / in_fam.future_norm(wd, 0.0))
        est_sys = max(est_sys, out_fam.bounding_norm(fp.L(a, bdir))
                      / in_fam.bounding_norm(bdir))
    assert est_state <= est_sys * (1.0 + 1e-9)


def test_state_frechet_nerode(quad):
    g = quad.grid(DT)
    past = _past(g, 20)
    edited = np.array(past.samples)
    edited[np.arange(g.i0 + 1, g.i1 + 1) > 0] += 3.0
    fp = frechet_of(quad.system)
    futs = future_probes(DT, quad.horizon, 21, count=3)
    a = state_frechet(NaturalState(quad.system, past, 0.0), fp)
    b = state_frechet(NaturalState(
        quad.system, TimeFunction(g, edited, past.tail_value), 0.0), fp)
    assert np.array_equal(a.L(futs[1], futs[2]).samples,
                          b.L(futs[1], futs[2]).samples)


def test_input_to_state_requires_uniform_weight(quad):
    fp = frechet_of(quad.system)
    clone = PolyIntegralOperator(list(quad.system.kernels.values()), 0.0,
                                 catalog.family("exp-l2"),
                                 quad.system.output_fam)
    rep = input_to_state_frechet(clone, 0.0, fp)
    assert rep["refused"] and rep["reason_code"] == "alpha_not_infinite"
    ok = input_to_state_frechet(quad.system, 0.0, fp)
    assert not ok["refused"]


def test_input_to_state_linear_system_zero_remainder():
    b = catalog.system("integrator", DT)
    rep = input_to_state_frechet(b.system, 0.0, frechet_of(b.system))
    g = b.grid(DT)
    futs = future_probes(DT, 2.0, 22, count=3)
    om = rep["Omega"](_past(g, 23), _past(g, 24), futs[1])
    assert np.all(om.samples == 0.0)


def test_input_to_state_fd_oracle(quad):
    # Finite difference of the state in its past against the derivative:
    # the gap is second order in the past perturbation.
    g = quad.grid(DT)
    fp = frechet_of(quad.system)
    rep = input_to_state_frechet(quad.system, 0.0, fp)
    Lam = rep["Lambda"]
    u, v = _past(g, 33), _past(g, 34, scale=0.3)
    w = future_probes(DT, quad.horizon, 35, count=2)[1]
    out_fam = quad.system.output_fam

    def gap(scale):
        st_a = NaturalState(quad.system, u + scale * v, 0.0)
        st_b = NaturalState(quad.system, u, 0.0)
        fd = st_a.evaluate(w) - st_b.evaluate(w)
        return out_fam.future_norm(fd - Lam(u, scale * v, w), 0.0)

    g1, g2 = gap(0.1), gap(0.05)
    assert g1 > 0.0
    assert g2 <= 0.3 * g1  # quadratic scaling: a quarter, with slack


def test_power_factor_bound(quad):
    # The past-to-state norm stays within (2^N + 1) of the system norm
    # estimated on exactly the spliced probes.
    N = 2
    g = quad.grid(DT)
    futs = future_probes(DT, quad.horizon, 25, count=5)
    out_n = quad.system.output_fam
    in_n = quad.system.input_fam
    est_S, est_F = 0.0, 0.0
    for seed in (26, 27, 28):
        pu = _past(g, seed)
        st = NaturalState(quad.system, pu, 0.0)
        xi_norm = max(out_n.future_norm(st.evaluate(f), 0.0)
                      / (1.0 + in_n.future_norm(f, 0.0) ** N) for f in futs)
        est_S = max(est_S, xi_norm / (1.0 + in_n.past_norm(pu, 0.0) ** N))
        for f in futs:
            z = st.spliced_input(f)
            est_F = max(est_F, out_n.bounding_norm(quad.system.apply(z))
                        / (1.0 + in_n.bounding_norm(z) ** N))
    assert est_S <= (2 ** N + 1) * est_F * (1.0 + 1e-9)


# -- trajectory derivative --------------------------------------------------------


def test_trajectory_derivative_constant_frozen(quad):
    g = quad.grid(DT)
    td = trajectory_derivative(quad.system, SmoothInput.constant(0.3), 0.0, g)
    v = future_probes(DT, quad.horizon, 29, count=1)[0]
    assert np.all(td(v).samples == 0.0)


def test_trajectory_fd_order(quad):
    g = quad.grid(DT)
    td = trajectory_derivative(quad.system, SmoothInput.sine(freq=0.25,
                                                             amp=0.8), 0.0, g)
    v = future_probes(DT, quad.horizon, 30, count=1)[0]
    rep = td.fd_check(v, h0=32 * DT)
    assert 0.8 <= rep["order"] <= 1.2


def test_trajectory_derivative_closed_form(quad):
    g = quad.grid(DT)
    src = SmoothInput.sine(freq=0.25, amp=0.8)
    td = trajectory_derivative(quad.system, src, 0.0, g)
    v = future_probes(DT, quad.horizon, 31, count=1)[0]
    sig = np.arange(1, v.grid.i1 + 1, 5)
    got = td(v).values_at_indices(sig)[:, 0]
    want = catalog.poly_state_derivative_closed_form(
        quad.system, src.sample(g), src.derivative_sample(g), v, 0.0, sig)
    assert np.max(np.abs(got - want)) <= 1e-12


def _quadratic_derivative_oracle(ker, past, dpast, v, t, sigma_indices):
    """The degree-2-only closed form the general oracle replaced: twice the
    kernel against the spliced input and the spliced shift derivative."""
    dt = past.grid.dt
    t_idx = past.grid.index_of(t)
    lags = np.arange(1, ker.grid_size(dt) + 1)
    out = np.empty(len(sigma_indices))
    for row, m in enumerate(sigma_indices):
        args = t_idx + m - lags
        z = np.where(args <= t_idx,
                     past.values_at_indices(np.minimum(args, t_idx))[:, 0],
                     v.values_at_indices(np.maximum(args - t_idx, 0))[:, 0])
        b = np.where(args <= t_idx,
                     dpast.values_at_indices(np.minimum(args, t_idx))[:, 0],
                     0.0)
        K = np.asarray(ker.func(lags[:, None] * dt, lags[None, :] * dt))
        out[row] = 2.0 * float(np.einsum("jk,j,k->", K, z, b)) * dt * dt
    return out


def test_general_derivative_oracle_keeps_quadratic_values(quad):
    g = quad.grid(DT)
    src = SmoothInput.sine(freq=0.25, amp=0.8)
    v = future_probes(DT, quad.horizon, 31, count=1)[0]
    sig = np.arange(1, v.grid.i1 + 1, 5)
    args = (src.sample(g), src.derivative_sample(g), v, 0.0, sig)
    new = catalog.poly_state_derivative_closed_form(quad.system, *args)
    old = _quadratic_derivative_oracle(quad.system.kernels[2], *args)
    # The symmetric kernel's slot sum is exactly twice one slot term, so
    # the two agree bit for bit (well within 1e-15).
    assert np.array_equal(new, old)


def test_cubic_trajectory_derivative_matches_closed_form(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["run", "--experiment", "trajectory-derivative",
                 "--system", "cubic-volterra", "--dt", "0.02",
                 "--out", str(out)]) == 0
    assert "PASS  trajectory-derivative" in capsys.readouterr().out
    rep = json.loads((out / "trajectory-derivative.json").read_text())
    assert rep["passed"] is True
    assert rep["metrics"]["closed_form_gap"] <= 1e-12


def test_trajectory_derivative_integrator_ramp():
    b = catalog.system("integrator", DT)
    g = b.grid(DT)
    t_eval = 1.5
    td = trajectory_derivative(b.system, SmoothInput.ramp(0.0), t_eval, g)
    v = future_probes(DT, 2.0, 32, count=1)[0]
    vals = td(v).samples[:, 0]
    # d/dt of (accumulated input + future integral) is the input level t.
    assert np.max(np.abs(vals - t_eval)) <= 1e-9


def test_trajectory_refusals(quad):
    tv = catalog.system("quadratic-volterra-tv", DT)
    rep = trajectory_derivative(tv.system, SmoothInput.sine(), 0.0,
                                tv.grid(DT))
    assert rep["refused"]
    assert rep["reason_code"] == "time_varying_needs_trajectory_generator"
    rep2 = trajectory_derivative(quad.system, SmoothInput.boxcar(), 0.0,
                                 quad.grid(DT))
    assert rep2["refused"] and rep2["reason_code"] == "jump_discontinuity"


def test_small_derivative_reports_are_pinned(tmp_path):
    # sha256 of the reports that one closed-form call per pair, the
    # trapezoid as masked np.where chains, one window call per uniform-ratio
    # end, a second apply per spliced input and every term contracted
    # through the kernels' slot factors (a time-varying kernel's factored
    # per instant), one dot product per output row and factor column,
    # wrote, at four pasts.
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text('[run]\npasts = 4\nexperiments = ["state-closed-form", '
                       '"shift-derivative", "frechet-derivatives"]\n')
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfgfile), "--seed", "12345",
                 "--out", str(out)]) == 0
    names = ("state-closed-form.json", "state-closed-form_quadratic.csv",
             "shift-derivative.json", "shift-derivative_trapezoid.csv",
             "frechet-derivatives.json",
             "frechet-derivatives_remainder_decay.csv")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in names}
    assert digests == {
        "state-closed-form.json": "727a7f47a95a77c1e3b1c038ba2ac58d"
                                  "915a02491f399ca1d81fbbeb77a105a2",
        "state-closed-form_quadratic.csv": "512b654d6f979581dbac6bb148f110b5"
                                           "092c78d81429e6a0ba760f7784ca535d",
        "shift-derivative.json": "885acaee91d895f008771e3763da10dd"
                                 "3cc895445bcb5c077ebe85850e41da9c",
        "shift-derivative_trapezoid.csv": "94f233f4d8e099b4b04f1f918641feb4"
                                          "68649e77175b117e55cdfce25bf889b1",
        "frechet-derivatives.json": "b0a141b52d5fffdc6b97006879296639"
                                    "171ecd74414cb241da394bcc2792d2d6",
        "frechet-derivatives_remainder_decay.csv":
            "907264f65e143ba9a5dbfae574249dfa"
            "826be8bf6a9aac81fa985e3d3e75e950"}

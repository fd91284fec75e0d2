import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natstate import (AlignmentError, FittedFamily, Grid, Interval,
                      TimeBatch, TimeFunction, Weight, catalog,
                      check_ff_axioms, classify, seminorm, shift_left,
                      splice, taper_certificate, taper_delta)
from natstate.calculus import SmoothInput
from natstate.probes import probe_set
from natstate.seminorm import (_EXP_BLOCK, ConditionResult, NormReport,
                               _random_triples)
from natstate.timegrid import to_cells

UL2 = FittedFamily.weighted_lp(2.0, Weight.uniform(), name="uniform-l2")
EXP2 = FittedFamily.weighted_lp(2.0, Weight.exponential(1.0), name="exp-l2")
BOX2 = FittedFamily.weighted_lp(2.0, Weight.box(1.5), name="box-l2")
SUP = FittedFamily.unweighted_sup()


def _window_single(fam, f, si, ti):
    """Direct O(window) oracle for ``|f|_{si, ti}`` (``si=None``: from -inf).

    A finite-support weight clips the window to its support; the part of the
    window at or before the grid start is the closed-form tail integral.
    """
    g = f.grid
    if ti > g.i1:
        raise ValueError("window end beyond represented horizon")
    dt = g.dt
    lo = g.i0 if si is None else max(si, g.i0)
    if fam.weight.support < math.inf:
        supp_idx = to_cells(fam.weight.support, dt)
        lo = max(lo, ti - supp_idx)
        if si is None or si < ti - supp_idx:
            si = ti - supp_idx
    tail_mag = fam._scalar_tail(f.tail_value)
    tail_term = 0.0
    cut = min(ti, g.i0)
    if (si is None or si < cut) and tail_mag > 0.0:
        a = (ti - cut) * dt
        if fam.p < math.inf:
            b = math.inf if si is None else (ti - si) * dt
            mass = fam.weight.integral(a, b)
            if mass == math.inf:
                raise ValueError("divergent tail")
            tail_term = tail_mag ** fam.p * mass
        else:
            tail_term = tail_mag * float(fam.weight(np.array([a]))[0])
    if ti > lo:
        mags = fam._rownorm(f.samples[lo - g.i0: ti - g.i0])
        wv = np.asarray(fam.weight((ti - np.arange(lo + 1, ti + 1)) * dt))
        if fam.p < math.inf:
            return float((np.dot(mags ** fam.p, wv) * dt + tail_term)
                         ** (1.0 / fam.p))
        return max(float(np.max(mags * wv)), tail_term)
    return float(tail_term ** (1.0 / fam.p)) if fam.p < math.inf \
        else tail_term


def _oracle(fam, f, si, ti):
    """``_window_single``, or its running sup over right ends for ``sup``."""
    if fam.kind != "sup":
        return _window_single(fam, f, si, ti)
    g = f.grid
    lo = g.i0 if si is None else max(si, g.i0)
    vals = [_window_single(fam.base, f, si, u) for u in range(lo + 1, ti + 1)]
    if si is None:
        vals.append(_window_single(fam.base, f, None, g.i0))
    return max(vals, default=0.0)


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
    # A tail whose square underflows is still a nonzero tail.
    tiny = TimeFunction(g, np.ones((g.n, 1)), np.array([1e-170]))
    with pytest.raises(ValueError, match="divergent tail"):
        UL2.past_norm(tiny, 0.0)
    with pytest.raises(ValueError, match="represented past"):
        UL2.future_norm(tiny, g.t_start - 0.5)


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
    # Splice reads its past operand up to the splice instant only, so ``f``
    # itself is the past and its samples after 0.5 are ignored.
    f = TimeFunction(grid, rng.standard_normal((grid.n, 1)), np.array([0.2]))
    fut = TimeFunction(grid, rng.standard_normal((grid.n, 1)), np.zeros(1))
    sp = splice(f, fut, 0.5)
    d = sp.with_window(grid.i0, grid.i1) - f
    assert EXP2.past_norm(d, 0.5) == 0.0


def test_axioms_pass_on_shipped_families(grid, rng):
    probes = probe_set(grid, 7, count=25, tails=True)
    for fam in (UL2, EXP2, BOX2, SUP, FittedFamily.sup_family(UL2)):
        rep = check_ff_axioms(fam, probes, rng=3, n_triples=12)
        assert rep.passed, rep.to_dict()
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


def classify_input_set(fns) -> dict:
    """Shifted-zero check for an input set: zero tails, supported to the right."""
    zero_tails = all(not np.any(f.tail_value) for f in fns)
    starts = []
    for f in fns:
        nz = np.nonzero(np.any(f.samples != 0.0, axis=1))[0]
        starts.append(None if nz.size == 0
                      else (f.grid.i0 + 1 + int(nz[0])) * f.grid.dt)
    return {"shifted_zero": zero_tails, "first_support": starts}


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


# -- batched windows against the direct oracle ---------------------------------

_UL2 = catalog.family("uniform-l2")
_FAST_EXP = FittedFamily.weighted_lp(1.5, Weight.exponential(200.0),
                                     name="exp-fast-l1.5")
_SEMINORM_CASES = [catalog.family(name) for name in sorted(catalog.FAMILIES)] + [
    FittedFamily.weighted_lp(2.0, Weight.table([0.0, 0.3, 1.1], [1.0, 0.4]),
                             name="table-l2"),
    FittedFamily.weighted_lp(math.inf, Weight.table([0.0, 0.5, 2.0],
                                                    [1.0, 0.25]),
                             name="table-linf"),
    FittedFamily.weighted_lp(2.0, Weight.table([0.0, 1.0, 2.0, 3.0],
                                               [1.0, 0.0, 1.0]),
                             name="broken-dip", allow_nonmonotone=True),
    _FAST_EXP,
    FittedFamily.weighted_lp(math.inf, Weight.exponential(200.0),
                             name="exp-fast-linf"),
    FittedFamily.sup_family(_UL2),
    FittedFamily.sup_family(catalog.family("box-l2")),
    FittedFamily.sup_family(_FAST_EXP),
    FittedFamily.sup_family(FittedFamily.weighted_lp(
        math.inf, Weight.exponential(3.0), name="exp3-linf")),
]
# Magnitudes near the subnormal range lose relative precision in any
# rounding order, so tiny draws are snapped to exact zeros.  The rescaled
# exponential recurrence scales a term ``|x|**p * dt`` down by at most
# ``exp(-_EXP_BLOCK)``; the snap keeps that a normal float for every p <= 2
# and dt >= 0.01 (about 1.2e-139).
_SNAP = math.sqrt(np.finfo(float).tiny / (0.01 * math.exp(-_EXP_BLOCK)))
_VALUE = st.floats(min_value=-5, max_value=5).map(
    lambda x: 0.0 if abs(x) < _SNAP else x)


def _divergent(fam, f):
    base = fam.base if fam.kind == "sup" else fam
    return base.p < math.inf and not base.weight.integrable \
        and bool(np.any(f.tail_value))


@st.composite
def _windows_case(draw):
    fam = draw(st.sampled_from(_SEMINORM_CASES))
    dt = draw(st.sampled_from([0.01, 0.05, 0.1]))
    i0 = draw(st.integers(-40, 5))
    n = draw(st.integers(1, 300))
    dim = 2 if fam.vector_norm == "max" else draw(st.sampled_from([1, 2]))
    cells = draw(st.lists(_VALUE, min_size=1, max_size=12))
    reps = -(-n * dim // len(cells))
    vals = np.resize(np.repeat(cells, reps), n * dim).reshape(n, dim)
    tail = np.array(draw(st.lists(_VALUE, min_size=dim, max_size=dim)))
    f = TimeFunction(Grid(dt, i0, i0 + n), vals, tail)
    # Left ends before i0 need the closed-form tail, which the sup kind
    # only has for the left-expanded window.
    low = i0 if fam.kind == "sup" and np.any(tail) else i0 - 30
    windows = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()) and not _divergent(fam, f):
            t = draw(st.integers(i0 - 20, i0 + n))
            windows.append((-math.inf, t))
        else:
            s = draw(st.integers(low, i0 + n - 1))
            windows.append((s, draw(st.integers(s + 1, i0 + n))))
    return fam, f, windows


def _long_case():
    # About 100k samples, like shift-derivative's residual grids: windows
    # over the whole grid, from -inf, inside it and before its origin.
    g = Grid(0.001, -40_000, 60_000)
    vals = np.random.default_rng(12).uniform(-5.0, 5.0, (g.n, 1))
    return _UL2, TimeFunction(g, vals, np.zeros(1)), [
        (g.i0, g.i1), (-math.inf, g.i1), (g.i0 + 123, g.i1 - 4567),
        (-17_000, 250), (g.i1 - 10, g.i1), (g.i0 - 30, g.i0 - 5)]


@settings(max_examples=300, deadline=None)
@given(_windows_case())
@example(_long_case())
def test_seminorms_match_direct_oracle(case):
    fam, f, windows = case
    s, t = map(np.array, zip(*windows))
    got = fam.seminorms(f, s, t)
    for k, (sk, tk) in enumerate(windows):
        want = _oracle(fam, f, None if sk == -math.inf else int(sk), int(tk))
        assert got[k] == pytest.approx(want, rel=1e-12, abs=0.0), (k, sk, tk)
        # A batch entry is the one-window value, bit for bit.
        assert got[k] == fam.seminorms(f, [sk], [tk])[0]
    # The same on a copy whose grid reaches further into the past; windows
    # inside the original grid keep their exact value off the sup kind.
    g = f.grid
    longer = f.with_window(g.i0 - 25, g.i1)
    got2 = fam.seminorms(longer, s, t)
    for k, (sk, tk) in enumerate(windows):
        assert got2[k] == fam.seminorms(longer, [sk], [tk])[0]
        if fam.kind != "sup" and sk >= g.i0:
            assert got2[k] == got[k]
    # Exact zero when the integrand vanishes on the window.
    sk, tk = windows[0]
    idx = np.arange(g.i0 + 1, g.i1 + 1)
    zeroed = np.where(((idx > sk) & (idx <= tk))[:, None], 0.0, f.samples)
    tail = np.zeros(f.dim) if sk < g.i0 else f.tail_value
    z = TimeFunction(g, zeroed, tail)
    assert fam.seminorms(z, [sk], [tk])[0] == 0.0


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_exp_weight_long_span_stays_finite(p):
    # rate * span = 1000 > 709: exp(+rate * span) overflows if the whole
    # window is rescaled at once.
    fam = FittedFamily.weighted_lp(p, Weight.exponential(5.0))
    g = Grid(0.01, 0, 20000)
    f = TimeFunction(g, np.random.default_rng(6).standard_normal((g.n, 1)),
                     np.array([0.3]))
    allt = fam.past_norms_all_t(f)
    assert np.all(np.isfinite(allt))
    for ti in range(g.i0, g.i1 + 1, 997):
        assert allt[ti - g.i0] == pytest.approx(
            _window_single(fam, f, None, ti), rel=1e-12)
    assert fam.bounding_norm(f) == float(np.max(allt))
    mags = fam._rownorm(f.samples)[None]
    for si in (g.i0, 4321):
        row = fam._running(g.i0, g.dt, fam._tail_coef(f.tail_value), mags,
                           np.array([float(si)]))[0]
        assert np.all(np.isfinite(row))
        for ti in range(si + 1, g.i1 + 1, 997):
            assert row[ti - g.i0] == pytest.approx(
                _window_single(fam, f, si, ti), rel=1e-12)
        assert fam.future_norm(f, si * g.dt) == float(np.max(row))


@pytest.mark.parametrize("fam", _SEMINORM_CASES, ids=lambda fam: fam.name)
def test_windowed_all_t_matches_single(rough, fam):
    # Every right end at once against the one-window oracle: the past norm
    # at every instant, and the future norm from left ends at and after the
    # grid start; the tail stays wherever its mass is finite.
    f = rough if not _divergent(fam, rough) else TimeFunction(
        rough.grid, rough.samples, np.zeros(1))
    g = f.grid
    allt = fam.past_norms_all_t(f)
    assert allt.shape == (g.n + 1,)
    for t_idx in range(g.i0, g.i1 + 1, 7):
        assert allt[t_idx - g.i0] == pytest.approx(
            _oracle(fam, f, None, t_idx), rel=1e-12, abs=0.0)
    base = fam.base if fam.kind == "sup" else fam
    for s_idx in (g.i0, g.i0 + 13, g.i1 - 5):
        want = max(_window_single(base, f, s_idx, u)
                   for u in range(s_idx + 1, g.i1 + 1))
        assert fam.future_norm(f, s_idx * g.dt) == pytest.approx(
            want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("fam", _SEMINORM_CASES, ids=lambda fam: fam.name)
def test_seminorms_take_magnitudes_up_to_the_latest_end(rough, fam,
                                                        monkeypatch):
    # Only the samples up to the latest window end are normed, and every
    # window keeps its whole-row value bit for bit: calls whose windows end
    # before the origin, inside the grid and at its end.
    f = rough if not _divergent(fam, rough) else TimeFunction(
        rough.grid, rough.samples, np.zeros(1))
    g = f.grid
    whole = fam._rownorm(f.samples)[None]
    rows = []
    rownorm = FittedFamily._rownorm

    def counting(self, samples):
        rows.append(samples.shape[0])
        return rownorm(self, samples)

    monkeypatch.setattr(FittedFamily, "_rownorm", counting)
    # A sup family reads a nonzero tail only from -inf.
    low = g.i0 if fam.kind == "sup" and f.tail_value.any() else g.i0 - 30
    for t_max in (g.i0 - 3, g.i0 + 17, g.i1):
        t = np.array([t_max, t_max - 2, t_max, t_max - 1])
        s = np.array([-math.inf, -math.inf, t_max - 11, t_max - 6])
        s[s < low] = -math.inf
        rows.clear()
        got = fam.seminorms(f, s, t)
        assert max(rows) <= max(t_max - g.i0, 1)
        want = fam._seminorms(g.i0, g.dt, fam._tail_coef(f.tail_value),
                              whole, 0, s, t)
        assert np.array_equal(got, want), t_max


def test_box_memory_off_the_grid_is_refused_in_both_norm_paths(rough):
    # 0.075 s is a cell and a half at dt 0.05: refused, never snapped.
    g = rough.grid
    for fam in (FittedFamily.weighted_lp(2.0, Weight.box(0.075)),
                FittedFamily.output_window(0.075)):
        with pytest.raises(AlignmentError, match="length 0.075"):
            fam.seminorms(rough, [g.i0 + 4], [g.i0 + 9])
        with pytest.raises(AlignmentError, match="length 0.075"):
            fam.future_norm(rough, 0.0)
        with pytest.raises(AlignmentError, match="length 0.075"):
            _window_single(fam, rough, g.i0 + 4, g.i0 + 9)


@pytest.mark.parametrize("fam", _SEMINORM_CASES, ids=lambda fam: fam.name)
def test_future_norms_match_one_function_calls(rough, fam):
    # A batch on each of two grids, with zero and nonzero tails in each:
    # one batched call gives every function the bits of its own one-row
    # ``_running`` call (a scalar tail coefficient), from a finite left end
    # and from -inf.
    rng = np.random.default_rng(73)
    for g in (rough.grid, Grid(rough.grid.dt, -10, 57)):
        fs = TimeBatch(g, rng.standard_normal((5, g.n, 2)), [
            rng.standard_normal(2) if k % 3 and not _divergent(fam, rough)
            else np.zeros(2) for k in range(5)])
        for s in (0.0, 1.1, -math.inf):
            want = []
            for f in fs:
                si = s if s == -math.inf else float(g.index_of(s))
                want.append(float(np.max(fam._running(
                    g.i0, g.dt, fam._tail_coef(f.tail_value),
                    fam._rownorm(f.samples)[None], np.array([si])))))
            got = fam.future_norms(fs, s)
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert [x.hex() for x in got] == [fam.future_norm(f, s).hex()
                                              for f in fs]
        assert [x.hex() for x in fam.future_norms(fs, -math.inf)] == [
            fam.bounding_norm(f).hex() for f in fs]
        assert fam.future_norms(fs[:0], 0.0) == []


@pytest.mark.parametrize("fam", _SEMINORM_CASES, ids=lambda fam: fam.name)
def test_running_refuses_finite_left_end_before_a_nonzero_tail(rough, fam):
    # Every right end is read from the grid start on, so a finite left end
    # before it would miss the right ends in between: refused, as is a sup
    # window that starts there, even one that also ends before the grid.
    g = rough.grid
    with pytest.raises(ValueError, match="represented past"):
        fam.future_norm(rough, (g.i0 - 5) * g.dt)
    if fam.kind == "sup":
        for t_idx in (g.i0 - 2, g.i0, g.i0 + 9):
            with pytest.raises(ValueError, match="represented past"):
                fam.seminorms(rough, [g.i0 - 5], [t_idx])
    zero = TimeFunction(g, rough.samples, np.zeros(1))
    base = fam.base if fam.kind == "sup" else fam
    want = max(_window_single(base, zero, g.i0 - 5, u)
               for u in range(g.i0 + 1, g.i1 + 1))
    assert fam.future_norm(zero, (g.i0 - 5) * g.dt) == pytest.approx(
        want, rel=1e-12, abs=0.0)
    assert fam.seminorms(zero, [g.i0 - 5], [g.i0 - 2])[0] == 0.0


def _check_ff_axioms_per_window(fam, probes, rng, n_triples, tol=1e-12):
    """The per-window form of ``check_ff_axioms``: one ``seminorm`` call per
    window, the same random draws in the same order."""
    rng = np.random.default_rng(rng)
    report = NormReport(family=fam.name, alpha=fam.alpha, K_declared=fam.K)
    res = {name: ConditionResult(True, 0) for name in
           ("locality", "shift_invariance", "monotone_in_s",
            "triangle_over_split", "window_comparison")}
    dt = probes[0].grid.dt
    alpha_idx = None if fam.alpha == math.inf else max(2, int(fam.alpha / dt))
    k_obs = 0.0

    def fail(name, witness):
        res[name].passed = False
        res[name].witness = res[name].witness or witness

    for pi, f in enumerate(probes):
        g = f.grid
        for (r, s, t) in _random_triples(rng, g, n_triples, None):
            ivst = Interval(s * dt, t * dt)
            other = np.array(f.samples)
            idx = np.arange(g.i0 + 1, g.i1 + 1)
            other[(idx <= s) | (idx > t)] += 1.0 + rng.random()
            diff = TimeFunction(g, f.samples - other,
                                f.tail_value - (f.tail_value + 1.0))
            v = fam.seminorm(diff, ivst)
            res["locality"].checks += 1
            if v != 0.0:
                fail("locality", {"probe": pi, "window": [s * dt, t * dt],
                                  "value": v})
            k = int(rng.integers(-g.n, g.n))
            a = fam.seminorm(shift_left(f, k * dt),
                             Interval((s - k) * dt, (t - k) * dt))
            nst = fam.seminorm(f, ivst)
            res["shift_invariance"].checks += 1
            if a != nst:
                fail("shift_invariance", {
                    "probe": pi, "window": [s * dt, t * dt],
                    "shift": k * dt, "lhs": a, "rhs": nst})
            nrt = fam.seminorm(f, Interval(r * dt, t * dt))
            res["monotone_in_s"].checks += 1
            if nst > nrt + tol * max(1.0, nrt):
                fail("monotone_in_s", {"probe": pi,
                                       "triple": [r * dt, s * dt, t * dt],
                                       "lhs": nst, "rhs": nrt})
            nrs = fam.seminorm(f, Interval(r * dt, s * dt))
            res["triangle_over_split"].checks += 1
            if nrt > nrs + nst + tol * max(1.0, nrs + nst):
                fail("triangle_over_split", {
                    "probe": pi, "triple": [r * dt, s * dt, t * dt],
                    "lhs": nrt, "rhs": nrs + nst})
        for (r, s, t) in _random_triples(rng, g, n_triples, alpha_idx):
            nrs = fam.seminorm(f, Interval(r * dt, s * dt))
            nrt = fam.seminorm(f, Interval(r * dt, t * dt))
            res["window_comparison"].checks += 1
            if nrs > 0.0 and nrt == 0.0:
                fail("window_comparison", {
                    "probe": pi, "triple": [r * dt, s * dt, t * dt],
                    "ratio": "inf"})
            elif nrt > 0.0:
                k_obs = max(k_obs, nrs / nrt)
    if np.isfinite(fam.K) and k_obs > fam.K * (1.0 + 1e-9):
        fail("window_comparison", {"K_observed": k_obs, "K_declared": fam.K})
    report.conditions = res
    report.K_observed = k_obs
    return report


def test_batched_axioms_keep_counts_and_report(grid, monkeypatch):
    # Probes on two grids of one step, zero and nonzero tails side by side;
    # under the second budget the nine-triple runs take chunks of three
    # probes.
    probes = (probe_set(grid, 23, count=8, tails=True)
              + probe_set(Grid(grid.dt, -30, 25), 29, count=5, tails=True))
    broken = FittedFamily.weighted_lp(
        2.0, Weight.table([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0]),
        name="dip", allow_nonmonotone=True)
    for budget in (seminorm._AXIOM_BUDGET, 3 * 4 * 9 * grid.n):
        monkeypatch.setattr(seminorm, "_AXIOM_BUDGET", budget)
        for fam in (SUP, UL2, EXP2, BOX2, FittedFamily.sup_family(UL2),
                    broken):
            for m in (0, 1, 9):
                rep = check_ff_axioms(fam, probes, rng=31, n_triples=m)
                assert all(c.checks == len(probes) * m
                           for c in rep.conditions.values())
                assert rep.to_dict() == _check_ff_axioms_per_window(
                    fam, probes, 31, m).to_dict()


@pytest.mark.parametrize("budget", [None, 4 * 20 * 400 * 3],
                         ids=["default-budget", "three-probe-chunks"])
def test_axioms_batch_probes_within_budget(budget, monkeypatch):
    # A family that is not a sup family makes three window calls per chunk
    # of probes, and no call holds more windows x lags than the budget.
    if budget:
        monkeypatch.setattr(seminorm, "_AXIOM_BUDGET", budget)
    grid = Grid(0.01, -200, 200)
    probes = probe_set(grid, 41, count=13, tails=True)
    sizes = []
    seminorms = FittedFamily._seminorms

    def counting(self, i0, dt, tail, mags, rows, s, t):
        sizes.append(len(t) * int(np.max(t - s)))
        return seminorms(self, i0, dt, tail, mags, rows, s, t)

    monkeypatch.setattr(FittedFamily, "_seminorms", counting)
    per = seminorm._AXIOM_BUDGET // (4 * 20 * grid.n)
    assert per > 1
    for fam in (SUP, UL2, EXP2, BOX2):
        sizes.clear()
        check_ff_axioms(fam, probes, rng=3, n_triples=20)
        assert len(sizes) == 3 * math.ceil(len(probes) / per)
        assert max(sizes) <= seminorm._AXIOM_BUDGET


# -- shift invariance on per-window grid origins -------------------------------

_SHIFT_CASES = [catalog.family(name) for name in sorted(catalog.FAMILIES)] + [
    FittedFamily.weighted_lp(2.0, Weight.table([0.0, 0.3, 1.1], [1.0, 0.4]),
                             name="table-l2"),
    FittedFamily.sup_family(_UL2),
    FittedFamily.sup_family(FittedFamily.weighted_lp(
        math.inf, Weight.exponential(3.0), name="exp3-linf")),
]


@pytest.mark.parametrize("fam", _SHIFT_CASES, ids=lambda fam: fam.name)
def test_batched_shift_matches_shift_left(fam):
    rng = np.random.default_rng(17)
    g = Grid(0.05, -37, 43)
    f = TimeFunction(g, rng.standard_normal((g.n, 2)), np.array([0.7, -0.4]))
    # Left ends at the origin, inside, before it (the closed-form tail,
    # which the sup kind has only for the left-expanded window) and at -inf.
    lefts = [g.i0, g.i0, g.i0 + 5, g.i1 - 1, g.i0 - 7, g.i0 - 1]
    if fam.kind == "sup":
        lefts[-2:] = [g.i0 + 20, g.i0 + 1]
    if not _divergent(fam, f):
        lefts += [-math.inf, -math.inf]
    s = np.array(lefts, dtype=float)
    t = np.array([int(rng.integers(max(sk, g.i0 - 3) + 1, g.i1 + 1))
                  for sk in s])
    t[0] = g.i1
    shifts = np.resize([g.n - 1, -(g.n - 1), 0, 13, -29], s.shape[0])
    got = fam._seminorms(g.i0 - shifts, g.dt, fam._tail_coef(f.tail_value),
                         fam._rownorm(f.samples)[None], 0, s - shifts,
                         t - shifts)
    want = np.array([fam.seminorms(shift_left(f, k * g.dt), [sk - k],
                                   [tk - k])[0]
                     for sk, tk, k in zip(s, t, shifts)])
    assert np.array_equal(got, want)
    assert np.array_equal(got, fam.seminorms(f, s, t))


class _OriginReading(FittedFamily):
    """Window arithmetic that reads the absolute grid origin: a scale that
    is the same for every window of one function, so only shifts see it."""

    def _seminorms(self, i0, dt, tail, mags, rows, s, t):
        scale = 1.0 + 1e-3 * np.abs(np.asarray(i0, dtype=float))
        return super()._seminorms(i0, dt, tail, mags, rows, s, t) * scale


def test_origin_reading_family_fails_shift_invariance(grid):
    probes = probe_set(grid, 23, count=4, tails=True)
    fam = _OriginReading("weighted_lp", 2.0, Weight.exponential(1.0),
                         name="origin-reading")
    rep = check_ff_axioms(fam, probes, rng=5, n_triples=6)
    shift = rep.conditions["shift_invariance"]
    assert not shift.passed
    assert shift.witness["shift"] != 0.0
    assert shift.witness["lhs"] != shift.witness["rhs"]
    assert all(c.passed for name, c in rep.conditions.items()
               if name != "shift_invariance")
    # The same weight read on lags alone passes every condition.
    assert check_ff_axioms(EXP2, probes, rng=5, n_triples=6).passed


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_exp_running_keeps_a_tiny_spike(p):
    # A lone 1e-100 sample under a rate-200 weight: a block rescaling factor
    # near exp(-600) pushes its term below the subnormal range, and
    # past_norms_all_t would read 0.0 where past_norm reads 3.2e-101.
    fam = FittedFamily.weighted_lp(p, Weight.exponential(200.0))
    g = Grid(0.1, 0, 60)
    x = np.zeros((g.n, 1))
    x[0, 0] = 1e-100
    f = TimeFunction(g, x, np.zeros(1))
    allt = fam.past_norms_all_t(f)
    assert allt[1] > 0.0
    for ti in range(1, 6):
        assert allt[ti] == pytest.approx(fam.past_norm(f, ti * g.dt),
                                         rel=1e-12, abs=0.0)


def _sliding_max(x, win):
    """The ``O(n win)`` running box maximum: the max of each zero-padded
    window of ``win`` samples ending at every position (the test oracle of
    ``Weight._accumulate``'s box branch with ``np.maximum``)."""
    padded = np.concatenate([np.zeros(x.shape[:-1] + (win - 1,)), x], axis=-1)
    return np.lib.stride_tricks.sliding_window_view(
        padded, win, axis=-1).max(axis=-1)


@pytest.mark.parametrize("rows, n, win", [
    (1, 50, 1), (1, 1, 1), (1, 50, 50), (1, 50, 73), (1, 1, 9), (1, 50, 7),
    (3, 50, 7), (4, 401, 200), (5, 401, 200)])
def test_box_running_max_matches_sliding_window(rows, n, win):
    # Block prefix/suffix maxima against the direct sliding window, bit for
    # bit: win of 1, win of n or more, n not a multiple of win, several rows
    # with the last one all zero.
    dt = 0.01
    x = np.abs(np.random.default_rng([rows, n, win]).standard_normal((rows, n)))
    if rows > 1:
        x[-1] = 0.0
    got = Weight.box(win * dt)._accumulate(x, dt, np.maximum)
    want = _sliding_max(x, win)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_box_running_max_fuzz():
    rng = np.random.default_rng(2024)
    dt = 0.01
    for _ in range(300):
        rows, n, win = rng.integers(1, 4), rng.integers(1, 120), rng.integers(1, 150)
        x = np.abs(rng.standard_normal((rows, n)))
        x[rng.random((rows, n)) < 0.3] = 0.0
        got = Weight.box(win * dt)._accumulate(x, dt, np.maximum)
        assert got.tobytes() == _sliding_max(x, win).tobytes()


@pytest.mark.parametrize("fam", [
    catalog.family("esssup-window-2"), FittedFamily.output_window(0.35),
    FittedFamily.output_window(0.05)], ids=lambda fam: fam.name)
def test_box_running_max_norms_match_sliding_window(rough, fam, monkeypatch):
    # ``_running`` and ``future_norm`` of the windowed ess-sup families read
    # the same bits as with the sliding-window maximum in its place.
    assert fam.weight.form == "box" and fam.p == math.inf
    g = rough.grid
    mags = fam._rownorm(rough.samples)[None]
    s = np.array([-math.inf, g.i0, g.i0 + 13, g.i1 - 5], dtype=float)
    lefts = [-math.inf, g.i0 * g.dt, (g.i0 + 13) * g.dt, (g.i1 - 5) * g.dt]

    def norms():
        return (fam._running(g.i0, g.dt, fam._tail_coef(rough.tail_value),
                             mags, s),
                [fam.future_norm(rough, t) for t in lefts])

    got_run, got_fut = norms()
    accumulate = Weight._accumulate

    def oracle(self, x, dt, op):
        if self.form == "box" and op is np.maximum:
            return _sliding_max(
                x, max(int(round(self.params["memory"] / dt)), 1))
        return accumulate(self, x, dt, op)

    monkeypatch.setattr(Weight, "_accumulate", oracle)
    want_run, want_fut = norms()
    assert got_run.tobytes() == want_run.tobytes()
    assert got_fut == want_fut

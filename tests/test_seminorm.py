import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from natstate import (AlignmentError, FittedFamily, Grid, Interval,
                      TimeFunction, Weight, catalog, check_ff_axioms,
                      classify, seminorm, shift_left, splice,
                      taper_certificate, taper_delta)
from natstate.calculus import SmoothInput
from natstate.cli import main
from natstate.probes import probe_set
from natstate.seminorm import (ConditionResult, NormReport, _exp_running,
                               _pcg64_draws)
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
    tail_mag = float(fam._rownorm(f.tail_value[None])[0])
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
    # Three copies of one probe fail at different triples, the third at
    # an earlier triple than the first copy's first failure: the witness
    # is the first failure by probe, then by triple, as the per-window
    # check finds it.
    copies = probe_set(Grid(grid.dt, -30, 25), 29, count=5, tails=True)[4:] * 3
    rep = check_ff_axioms(broken, copies, rng=0, n_triples=9)
    assert rep.conditions["window_comparison"].witness["probe"] == 0
    assert rep.to_dict() == _check_ff_axioms_per_window(
        broken, copies, 0, 9).to_dict()


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
    # A table weight has finite support; an exponential one at p=inf
    # solves c e^{-rate delta} = eps.  The floats are pinned bit for bit.
    table = FittedFamily.weighted_lp(2.0, Weight.table([0.0, 0.3, 1.1],
                                                       [1.0, 0.4]))
    assert taper_delta(table, 0.1, 1.0) == 1.1
    fast_linf = FittedFamily.weighted_lp(math.inf, Weight.exponential(200.0))
    assert taper_delta(fast_linf, 0.1, 1.0) == math.log(1.0 / 0.1) / 200.0
    assert taper_delta(fast_linf, 0.1, 1.0) == 0.01151292546497023
    assert taper_delta(fast_linf, 1e-3, 2.5) == 0.03912023005428146
    assert taper_delta(EXP2, 0.1, 1.0) == 4.605170185988091


@pytest.mark.parametrize("eps, c", [
    (math.nan, 1.0), (0.1, math.nan), (math.inf, 1.0), (0.1, math.inf),
    (0.0, 1.0), (0.1, -1.0)])
def test_taper_delta_refuses_bad_eps_and_c(eps, c):
    with pytest.raises(ValueError, match="must be positive and finite"):
        taper_delta(EXP2, eps, c)


def test_taper_delta_takes_logs_where_the_power_under_or_overflows():
    # (eps / c) ** 2 underflows to 0 and c / eps overflows to inf: the
    # closed form in logs, delta = (log r + p (log eps - log c)) / -r.
    fast_linf = FittedFamily.weighted_lp(math.inf, Weight.exponential(200.0))
    big = 200 * math.log(10)
    assert taper_delta(EXP2, 1e-200, 1e200) == pytest.approx(4 * big)
    assert taper_delta(EXP2, 1e-170, 1.0) == pytest.approx(2 * 170 * math.log(10))
    assert taper_delta(fast_linf, 1e-200, 1e200) == pytest.approx(2 * big / 200)
    # A power or ratio past the other end: the window is empty.
    for fam in (EXP2, fast_linf):
        for eps, c in ((1e200, 1e-200), (1e300, 1e-10)):
            assert taper_delta(fam, eps, c) == 0.0
    # Ordinary inputs keep the bits of the direct expressions.
    fast = FittedFamily.weighted_lp(1.5, Weight.exponential(200.0))
    for fam in (EXP2, fast, fast_linf):
        r = fam.weight.params["rate"]
        for eps in (1e-12, 1e-6, 0.01, 0.1, 0.5, 1.0, 3.0):
            for c in (1e-3, 0.1, 1.0, 2.5, 10.0, 1e6):
                want = (max(0.0, math.log(c / eps) / r) if fam.p == math.inf
                        else max(0.0, -math.log(r * (eps / c) ** fam.p) / r))
                assert taper_delta(fam, eps, c) == want


@pytest.mark.parametrize("edges, values, rule", [
    ([0.0, 1.0, 2.0], [1.0, math.nan], "values must be finite"),
    ([0.0, 1.0], [-0.5], "values must be >= 0"),
    ([0.0, 2.0, 1.0], [1.0, 0.5], "edges must rise strictly"),
    ([0.0, 1.0, 1.0], [1.0, 0.5], "edges must rise strictly"),
    ([0.5, 1.0], [1.0], "edges must start at 0"),
    ([0.0, 1.0, math.inf], [1.0, 0.0], "edges must be finite"),
    ([0.0, 1.0], [1.0, 0.5], "len"),
])
def test_malformed_table_refused(edges, values, rule):
    with pytest.raises(ValueError, match=rule):
        Weight.table(edges, values)


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


def test_taper_certificate_refuses_no_probes_and_mixed_steps():
    # The window is snapped to one step, so probes at dt 0.01 and 0.02 are
    # refused with both steps named, and no probes leave no step to snap to.
    d = taper_delta(EXP2, 0.1, 1.0)
    with pytest.raises(ValueError, match="one or more probes"):
        taper_certificate(EXP2, d, 0.1, 1.0, [], 1.0)
    fine = probe_set(Grid(0.01, -200, 0), 19, count=2, tails=True)
    coarse = probe_set(Grid(0.02, -100, 0), 19, count=2, tails=True)
    with pytest.raises(ValueError, match="steps 0.01 and 0.02$"):
        taper_certificate(EXP2, 1.005, 0.1, 1.0, fine + coarse, 0.0)


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
# rounding order, so tiny draws are snapped to exact zeros.  The snap, about
# 1.2e-139, keeps a term ``|x|**p * dt`` decayed by ``exp(-64)`` a normal
# float for every p <= 2 and dt >= 0.01.
_SNAP = math.sqrt(np.finfo(float).tiny / (0.01 * math.exp(-64.0)))
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
    # inside the original grid keep their exact value, for every kind.
    g = f.grid
    longer = f.with_window(g.i0 - 25, g.i1)
    got2 = fam.seminorms(longer, s, t)
    for k, (sk, tk) in enumerate(windows):
        assert got2[k] == fam.seminorms(longer, [sk], [tk])[0]
        if sk >= g.i0:
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
    mags, tail = fam._magnitudes(f.samples[None], f.tail_value[None])
    for si in (g.i0, 4321):
        row = fam._running(g.i0, g.dt, tail, mags, np.array([float(si)]))[0]
        assert np.all(np.isfinite(row))
        for ti in range(si + 1, g.i1 + 1, 997):
            assert row[ti - g.i0] == pytest.approx(
                _window_single(fam, f, si, ti), rel=1e-12)
        assert fam.future_norm(f, si * g.dt) == float(np.max(row))


@pytest.mark.parametrize("vector_norm", ["euclidean", "max"])
def test_rownorm_of_one_component_keeps_the_reduction_bits(vector_norm):
    # A one-component value is read as its column instead of reduced over
    # the component axis: the same bits, squares that underflow or reach
    # the top of the range included.
    fam = FittedFamily.weighted_lp(2.0, Weight.uniform(),
                                   vector_norm=vector_norm)
    tiny = math.ulp(0.0)
    col = np.array([0.0, -0.0, tiny, -tiny, 3.0 * tiny, 2.2e-308, -1e-200,
                    1e-200, 1e-160, 1e154, -1e154, 1.3e154, -2.5, 0.75])
    for samples in (col[:, None], col.reshape(2, 7, 1)):
        if vector_norm == "max":
            want = np.abs(samples).max(axis=-1)
        else:
            want = np.sqrt((samples * samples).sum(axis=-1))
        got = fam._rownorm(samples)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # So is a tail: at p = inf its coefficient is its magnitude, and one
    # that squares to zero keeps the least positive coefficient.
    sup = FittedFamily.weighted_lp(math.inf, Weight.uniform(),
                                   vector_norm=vector_norm)
    for family, want in ((fam, tiny), (sup, 1e-200 if vector_norm == "max"
                                       else tiny)):
        mags, coef = family._magnitudes(col.reshape(1, 14, 1),
                                        np.array([[-1e-200]]))
        assert mags.tobytes() == family._rownorm(col[None, :, None]).tobytes()
        assert coef.tolist() == [want]


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
    whole, tail = fam._magnitudes(f.samples[None], f.tail_value[None])
    rows = []
    rownorm = FittedFamily._rownorm

    def counting(self, samples):
        rows.append(samples.shape[-2])
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
        want = fam._seminorms(g.i0, g.dt, tail, whole, 0, s, t)
        assert np.array_equal(got, want), t_max


def _padded_seminorms(fam, i0, dt, tail, mags, rows, s, t):
    """``FittedFamily._seminorms`` as one padded pass: every window summed
    over the longest span of the call from its row reversed with its own
    zero pad, and for the sup kind one whole ``_running`` row per window."""
    if fam.kind == "sup":
        run = fam._running(i0, dt, tail, mags[rows], s)
        return run[np.arange(t.shape[0]), np.maximum(t - i0, 0)]
    w = fam.weight
    if w.support < math.inf:
        s = np.maximum(s, t - to_cells(w.support, dt))
    s, t = s - i0, t - i0
    tail = fam._tail(dt, tail, s, t)
    end = np.maximum(t, 0)
    span = end - np.maximum(s, 0).astype(np.int64)
    n_lags = max(int(span.max()), 1)
    hi = int(end.max())
    x = np.zeros((mags.shape[0], hi + n_lags))
    x[:, :hi] = mags[:, :hi][:, ::-1]
    if fam.p < math.inf:
        x[:, :hi] **= fam.p
    runs = np.ndarray((x.size - n_lags + 1, n_lags), x.dtype, x, 0,
                      (x.itemsize, x.itemsize))
    terms = runs[rows * x.shape[1] + (hi - end)]
    terms *= w._at_lags(n_lags, dt)
    if fam.p == math.inf:
        np.copyto(terms, 0.0, where=np.arange(n_lags) >= span[:, None])
        return np.maximum(terms.max(axis=1), tail)
    np.add.accumulate(terms, axis=1, out=terms)
    sums = terms[np.arange(span.shape[0]), span - 1]
    return (sums * dt + tail) ** (1.0 / fam.p)


# Rate 200 at dt 0.01 decays a term by exp(-128) across 64 cells, so the
# doubling scan of its running rows joins values of very different sizes.
_KERNEL_WEIGHTS = [Weight.uniform(), Weight.exponential(1.0),
                   Weight.exponential(200.0), Weight.box(0.2),
                   Weight.table([0.0, 0.3, 1.1], [1.0, 0.4])]
_MAG = st.floats(min_value=0.0, max_value=5.0).map(
    lambda x: 0.0 if x < _SNAP else x)


@st.composite
def _kernel_batch(draw):
    """A ``_seminorms`` batch: rows of magnitudes, and windows each on a row,
    a shifted origin and a tail coefficient, with ``-inf`` left ends, left
    ends before the origin, windows without samples, and windows that share
    a running row (a shifted copy, or another end from the same left end)."""
    p = draw(st.sampled_from([1.0, 1.5, 2.0, math.inf]))
    fam = FittedFamily.weighted_lp(p, draw(st.sampled_from(_KERNEL_WEIGHTS)))
    if draw(st.booleans()):
        fam = FittedFamily.sup_family(fam)
    dt = draw(st.sampled_from([0.01, 0.05]))
    n = draw(st.integers(1, 120))
    n_rows = draw(st.integers(1, 4))
    cells = draw(st.lists(_MAG, min_size=1, max_size=12))
    mags = np.resize(np.array(cells), n_rows * n).reshape(n_rows, n)
    i0 = draw(st.integers(-40, 5))
    # A uniform weight has no finite mass over an unbounded past.
    finite_mass = p == math.inf or fam.weight.form != "uniform"
    windows = []
    for _ in range(draw(st.integers(1, 12))):
        h = draw(st.integers(-n, n))
        share = draw(st.sampled_from([None, "shift", "end"])) if windows \
            else None
        if share == "shift":
            row, tail, s, t, _ = windows[-1]
        elif share == "end":
            row, tail, s, _, h = windows[-1]
            t = draw(st.integers(int(max(s, i0 - 5)) + 1, i0 + n))
        else:
            row = draw(st.integers(0, n_rows - 1))
            tail = draw(st.sampled_from([0.0, 0.4, 3.0]))
            t = draw(st.integers(i0 - 5, i0 + n))
            # A sup window with a tail starts at -inf or inside the grid.
            lo = i0 if fam.kind == "sup" and tail else t - 40
            if draw(st.booleans()) or lo >= t:
                if tail and not finite_mass:
                    continue
                s = -math.inf
            else:
                s = draw(st.integers(lo, t - 1))
        windows.append((row, tail, s, t, h))
    assume(windows)
    row, tail, s, t, h = map(np.array, zip(*windows))
    return fam, dt, mags, i0 - h, row, tail.astype(float), \
        s.astype(float) - h, t - h


def _fast_exp_batch(kind):
    # exp(-200 x) over 120 cells of 0.01: rate * n * dt = 240.
    fam = FittedFamily.weighted_lp(1.5, Weight.exponential(200.0))
    if kind == "sup":
        fam = FittedFamily.sup_family(fam)
    mags = np.abs(np.random.default_rng(3).standard_normal((2, 120)))
    s = np.array([-math.inf, 0.0, 0.0, 37.0, 37.0, 100.0, -math.inf])
    t = np.array([120, 90, 120, 40, 119, 101, -2])
    return (fam, 0.01, mags, np.array([0, 0, -9, 0, 0, 0, 0]),
            np.array([0, 1, 1, 0, 0, 1, 0]), np.array([0.5] + [0.0] * 6),
            s - [0, 0, 9, 0, 0, 0, 0], t - [0, 0, 9, 0, 0, 0, 0])


def _one_sup_window(weight, s, t, tail):
    # One window of sup(weighted L2) on the second of two rows: the call
    # cuts or shares no running row with another window.
    fam = FittedFamily.sup_family(FittedFamily.weighted_lp(2.0, weight))
    mags = np.abs(np.random.default_rng(5).standard_normal((2, 90)))
    return (fam, 0.01, mags, np.array([-7]), np.array([1]),
            np.array([tail]), np.array([s]), np.array([t]))


@settings(max_examples=300, deadline=None)
@given(_kernel_batch())
@example(_fast_exp_batch("lp"))
@example(_fast_exp_batch("sup"))
@example(_one_sup_window(Weight.exponential(1.0), -math.inf, 60, 0.4))
@example(_one_sup_window(Weight.exponential(1.0), 10.0, 60, 0.0))
@example(_one_sup_window(Weight.box(0.2), 10.0, 80, 0.0))
@example(_one_sup_window(Weight.box(0.2), -math.inf, 30, 0.4))
def test_window_kernel_matches_one_window_calls_and_the_padded_pass(batch):
    # Every window of a batch gets the bits of its one-window call and of
    # the padded pass; for the sup kind, shared and cut running rows give
    # the bits of each window's whole running row.  The batch goes in one
    # bucket, then in buckets of every power of two, whole or one item at a
    # time.
    fam, dt, mags, i0, rows, tail, s, t = batch
    want = _padded_seminorms(fam, i0, dt, tail, mags, rows, s, t)
    for one_bucket, floor, piece in (
            (seminorm._ONE_BUCKET, seminorm._BUCKET_FLOOR, seminorm._PIECE),
            (0, 1, seminorm._PIECE), (0, 1, 1)):
        with mock.patch.multiple(seminorm, _ONE_BUCKET=one_bucket,
                                 _BUCKET_FLOOR=floor, _PIECE=piece):
            got = fam._seminorms(i0, dt, tail, mags, rows, s, t)
        assert got.tobytes() == want.tobytes()
    for k in range(t.shape[0]):
        one = fam._seminorms(i0[k:k + 1], dt, tail[k:k + 1], mags,
                             rows[k:k + 1], s[k:k + 1], t[k:k + 1])
        assert got[k:k + 1].tobytes() == one.tobytes(), k


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
    # ``_running`` call (its own tail coefficient), from a finite left end
    # and from -inf.
    rng = np.random.default_rng(73)
    for g in (rough.grid, Grid(rough.grid.dt, -10, 57)):
        fs = TimeFunction(g, rng.standard_normal((5, g.n, 2)), [
            rng.standard_normal(2) if k % 3 and not _divergent(fam, rough)
            else np.zeros(2) for k in range(5)])
        for s in (0.0, 1.1, -math.inf):
            want = []
            for f in fs:
                si = s if s == -math.inf else float(g.index_of(s))
                mags, tail = fam._magnitudes(f.samples[None],
                                             f.tail_value[None])
                want.append(float(np.max(fam._running(
                    g.i0, g.dt, tail, mags, np.array([si])))))
            got = fam.future_norms(fs, s)
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert [x.hex() for x in got] == [fam.future_norm(f, s).hex()
                                              for f in fs]
        assert [x.hex() for x in fam.future_norms(fs, -math.inf)] == [
            fam.bounding_norm(f).hex() for f in fs]
        assert fam.future_norms(fs[:0], 0.0) == []


@pytest.mark.parametrize("fam", _SEMINORM_CASES, ids=lambda fam: fam.name)
def test_past_and_bounding_norms_match_one_function_calls(rough, fam):
    # A batch on each of two grids, with zero and nonzero tails in each:
    # one batched call gives every function the bits of its own one-window
    # seminorms call and its own running row (its own tail coefficient),
    # at right ends before, at and after the grid start.
    rng = np.random.default_rng(74)
    for g in (rough.grid, Grid(rough.grid.dt, -10, 57)):
        fs = TimeFunction(g, rng.standard_normal((5, g.n, 2)), [
            rng.standard_normal(2) if k % 3 and not _divergent(fam, rough)
            else np.zeros(2) for k in range(5)])
        for ti in (g.i0 - 3, g.i0, g.i0 + 1, 0, g.i1):
            want = [float(fam.seminorms(f, [-math.inf], [ti])[0]).hex()
                    for f in fs]
            got = fam.past_norms(fs, ti * g.dt)
            assert [x.hex() for x in got] == want
            assert [fam.past_norm(f, ti * g.dt).hex() for f in fs] == want
            assert fam.past_norms(list(fs), ti * g.dt) == got
        want = [float(np.max(fam.past_norms_all_t(f))).hex() for f in fs]
        assert [x.hex() for x in fam.bounding_norms(fs)] == want
        assert [fam.bounding_norm(f).hex() for f in fs] == want
        assert fam.past_norms(fs[:0], 0.0) == fam.bounding_norms([]) == []


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


def _random_triples(rng, g, n_triples, max_span_idx):
    """Index triples r < s < t inside the grid window, one row each, by one
    scalar numpy call per draw."""
    triples = []
    span_cap = g.n if max_span_idx is None else min(g.n, max_span_idx)
    for _ in range(n_triples):
        span = int(rng.integers(2, max(3, span_cap + 1)))
        r = int(rng.integers(g.i0, g.i1 - span + 1))
        t = r + span
        s = int(rng.integers(r + 1, t))
        triples.append((r, s, t))
    return np.array(triples, dtype=np.int64).reshape(n_triples, 3)


def _check_ff_axioms_per_window(fam, probes, rng, n_triples, tol=1e-12):
    """The per-window form of ``check_ff_axioms``: one ``seminorm`` call per
    window, the same random draws in the same order, each one scalar numpy
    ``integers``/``random`` call."""
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
    # probes (ten rows of 80 cells each; the last chunk has one), one of
    # them across the two grids; the third takes one probe per chunk, and
    # the fourth holds all 13 probes in one chunk.
    probes = (probe_set(grid, 23, count=8, tails=True)
              + probe_set(Grid(grid.dt, -30, 25), 29, count=5, tails=True))
    broken = FittedFamily.weighted_lp(
        2.0, Weight.table([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0]),
        name="dip", allow_nonmonotone=True)
    for budget in (seminorm._AXIOM_BUDGET, 3 * 10 * 80, 1, 13 * 10 * 80):
        monkeypatch.setattr(seminorm, "_AXIOM_BUDGET", budget)
        for fam in (SUP, UL2, EXP2, BOX2, FittedFamily.sup_family(UL2),
                    FittedFamily.sup_family(EXP2), broken):
            for m in (0, 1, 9):
                rep = check_ff_axioms(fam, probes, rng=31, n_triples=m)
                assert all(c.checks == len(probes) * m
                           for c in rep.conditions.values())
                assert rep.to_dict() == _check_ff_axioms_per_window(
                    fam, probes, 31, m).to_dict()


def test_ff_axioms_without_probes_is_the_zero_check_report(grid):
    # No probes give what no triples give: every condition passes with 0
    # checks and K_observed is 0.0.
    probes = probe_set(grid, 23, count=3, tails=True)
    for fam in (SUP, EXP2, BOX2, FittedFamily.sup_family(UL2)):
        rep = check_ff_axioms(fam, [], rng=5).to_dict()
        assert rep == check_ff_axioms(fam, probes, rng=5,
                                      n_triples=0).to_dict()
        assert rep["passed"] and rep["K_observed"] == 0.0
        assert all(c["checks"] == 0 and c["witness"] is None
                   for c in rep["conditions"].values())


def test_ff_axioms_refuses_probes_of_different_steps(grid):
    # Every window is weighted and witnessed at one step, so probes at dt
    # 0.05 and 0.1 are refused with both steps named, in either order.
    fine = probe_set(grid, 23, count=2, tails=True)
    coarse = probe_set(Grid(0.1, -20, 20), 29, count=2, tails=True)
    for probes in (fine + coarse, coarse + fine[:1]):
        with pytest.raises(ValueError, match="steps 0.(05 and 0.1|1 and "
                                             "0.05)$"):
            check_ff_axioms(EXP2, probes, rng=5, n_triples=3)


@pytest.mark.parametrize("budget", [None, 5 * 21 * 400],
                         ids=["default-budget", "five-probe-chunks"])
def test_axioms_batch_probes_within_budget(budget, monkeypatch):
    # One window call per chunk of consecutive probes holds all 7 m windows
    # of each of its probes (locality, shift, monotonicity, split and
    # comparison), and stacks at most the budget's row elements (m + 1 rows
    # of 400 cells per probe) unless it has one probe alone: three probes
    # under the default budget, five under the other.  Every bucket piece
    # of a call gathers at most _PIECE elements (twice that for the sup
    # kind's samples and running cells) unless it is one item, or at most
    # _ONE_BUCKET as the call's single bucket.
    if budget:
        monkeypatch.setattr(seminorm, "_AXIOM_BUDGET", budget)
    grid = Grid(0.01, -200, 200)
    probes = probe_set(grid, 41, count=13, tails=True)
    m = 20
    calls, pieces = [], []
    seminorms, buckets = FittedFamily._seminorms, seminorm._buckets

    def counting(self, i0, dt, tail, mags, rows, s, t):
        calls.append([mags.shape[0] // (m + 1), len(t), mags.size])
        return seminorms(self, i0, dt, tail, mags, rows, s, t)

    def holding(need, piece):
        out = buckets(need, piece)
        pieces.extend((need[idx].shape[0], n, len(out)) for idx, n in out)
        return out

    monkeypatch.setattr(FittedFamily, "_seminorms", counting)
    monkeypatch.setattr(seminorm, "_buckets", holding)
    for fam in (SUP, UL2, EXP2, BOX2, FittedFamily.sup_family(UL2),
                FittedFamily.sup_family(EXP2)):
        calls.clear()
        pieces.clear()
        check_ff_axioms(fam, probes, rng=3, n_triples=m)
        chunk, windows, stacked = np.array(calls).T
        assert chunk.sum() == len(probes)
        assert np.array_equal(windows, 7 * m * chunk)
        assert np.all((stacked <= seminorm._AXIOM_BUDGET) | (chunk == 1))
        assert chunk.max() > 1, fam.name
        piece = seminorm._PIECE * (2 if fam.kind == "sup" else 1)
        items, n, n_buckets = np.array(pieces).T
        held = items * n
        assert np.all((held <= piece) | (items == 1)
                      | ((n_buckets == 1) & (held <= seminorm._ONE_BUCKET)))


def test_ff_axioms_traced_peak_at_the_bench_shape():
    # The five families of ff-axioms on the norm-axioms benchmark's probes
    # (200 probes of 400 cells, 20 triples), at seed 12345.  The largest
    # traced peak of one check is 1.15 MiB in chunks of three probes (numpy
    # 2.4); sizing chunks by the caps of their windows' needs read 1.10
    # MiB, and the bound is that plus 0.15 MiB, which twice the budget's
    # rows (1.72 MiB) exceeds.
    probes = probe_set(Grid(0.01, -200, 200), 12346, count=200, tails=True)
    fams = [catalog.family(name) for name in
            ("sup-linf", "uniform-l2", "exp-l2", "box-l2")]
    fams.append(FittedFamily.sup_family(catalog.family("uniform-l2")))
    peaks = []
    tracemalloc.start()
    try:
        for k, fam in enumerate(fams):
            tracemalloc.reset_peak()
            check_ff_axioms(fam, probes, rng=np.random.default_rng(
                [12345, 10 + k]), n_triples=20)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 1.25, peaks


# -- random draws read from raw words ------------------------------------------


def _draw_program(seed, n_draws, ranges):
    """Interleaved draws ``(double, lo, hi)``: ``random()`` where ``double``,
    else ``integers(lo, hi)`` over one of ``ranges``."""
    rng = np.random.default_rng(seed)
    double = rng.random(n_draws) < 0.2
    lo = rng.integers(-50, 50, n_draws)
    hi = lo + rng.choice(ranges, n_draws)
    return double.tolist(), lo.tolist(), hi.tolist()


def _run_draws(integers, random, program):
    return [random() if d else integers(lo, hi) for d, lo, hi in zip(*program)]


def _same_stream(g1, g2):
    assert g1.bit_generator.state == g2.bit_generator.state
    assert np.array_equal(g1.integers(0, 1000, 9), g2.integers(0, 1000, 9))
    assert g1.random() == g2.random()


@pytest.mark.parametrize("block", [16, 1024])
@pytest.mark.parametrize("buffered", [False, True],
                         ids=["aligned", "buffered-half"])
@pytest.mark.parametrize("seed", range(5))
def test_read_draws_match_scalar_calls(seed, buffered, block, monkeypatch):
    # Ranges of one value, small ones, 3e9 and 2**31 + 5 (above 2**31, so
    # halves get rejected) and 2**32; a start with a buffered 32-bit half
    # (one prior 32-bit draw); words fetched 16 or 1024 at a time.
    monkeypatch.setattr(seminorm, "_WORDS", block)
    prog = _draw_program(seed + 100, 400,
                         [1, 2, 3, 7, 400, 2**31 + 5, 3_000_000_000, 2**32])
    assert any(b - a == 1 and not d for d, a, b in zip(*prog))
    gens = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        for g in gens:
            g.integers(0, 5)
    assert gens[0].bit_generator.state["has_uint32"] == buffered
    want = _run_draws(gens[0].integers, gens[0].random, prog)
    with _pcg64_draws(gens[1]) as (draw, random):
        got = _run_draws(lambda lo, hi: lo + draw(hi - lo), random, prog)
    assert got == want
    _same_stream(*gens)


def test_read_draws_reject_words_as_numpy_does():
    # A range of 3e9 rejects about 30% of 32-bit halves: reading consecutive
    # halves without the rejection gives other values.
    n = 3_000_000_000
    gens = np.random.default_rng(8), np.random.default_rng(8)
    want = [gens[0].integers(5, 5 + n) for _ in range(2000)]
    with _pcg64_draws(gens[1]) as (draw, _):
        got = [5 + draw(n) for _ in range(2000)]
        for bad in (0, 2**32 + 1):
            with pytest.raises(ValueError, match="ranges of 1 to 2\\*\\*32"):
                draw(bad)
    assert got == want
    _same_stream(*gens)
    raw = np.random.default_rng(8).bit_generator.random_raw(1000)
    halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
    assert not np.array_equal(5 + (halves * np.uint64(n) >> np.uint64(32))
                              .astype(np.int64), want)


def _scalar_axiom_draws(rng, probes, m, alpha_idx):
    """The draws of ``check_ff_axioms`` as a per-probe loop of scalar calls."""
    out = []
    for f in probes:
        g = f.grid
        tri = _random_triples(rng, g, m, None)
        edits = [(1.0 + rng.random(), int(rng.integers(-g.n, g.n)))
                 for _ in range(m)]
        out.append((tri, edits, _random_triples(rng, g, m, alpha_idx)))
    return out


@pytest.mark.parametrize("alpha_idx", [None, 2, 3, 40])
def test_axiom_draws_match_the_scalar_loop(alpha_idx):
    # Grids of 2 and 3 cells give one-value ranges at both triple
    # positions: r when the span is the grid, s - r at span 2.
    probes = [TimeFunction(Grid(0.1, i0, i1), np.zeros((i1 - i0, 1)), 0.0)
              for i0, i1 in ((0, 2), (-1, 2), (-30, 25), (3, 6), (-5, 80))]
    for seed in range(4):
        gens = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:
            for g in gens:
                g.integers(0, 5)
        want = _scalar_axiom_draws(gens[0], probes, 11, alpha_idx)
        tri, bump, shift, cmp_tri = seminorm._axiom_draws(
            gens[1], probes, 11, alpha_idx)
        for k, (t, edits, c) in enumerate(want):
            assert np.array_equal(tri[k], t) and np.array_equal(cmp_tri[k], c)
            assert bump[k].tolist() == [e[0] for e in edits]
            assert shift[k].tolist() == [e[1] for e in edits]
        _same_stream(*gens)


def test_check_ff_axioms_leaves_the_generator_as_the_scalar_loop(grid):
    probes = probe_set(grid, 19, count=6, tails=True)
    for fam in (UL2, BOX2):
        gens = np.random.default_rng(4), np.random.default_rng(4)
        for g in gens:
            g.integers(0, 3)
        check_ff_axioms(fam, probes, rng=gens[1], n_triples=7)
        alpha_idx = (None if fam.alpha == math.inf
                     else max(2, to_cells(fam.alpha, grid.dt)))
        _scalar_axiom_draws(gens[0], probes, 7, alpha_idx)
        _same_stream(*gens)


def test_ff_axioms_report_does_not_read_the_probe_tails(grid):
    # Every drawn triple has i0 <= r < s < t, and a shift window (s, t] is
    # read on the origin i0 - h at (s - h, t - h]: no window starts before
    # its origin, so none reads a tail, and zeroing every probe's tail
    # leaves the report as it is.  The five families of ff-axioms and its
    # control, on probes of two grids, each with its own nonzero tail.
    gen = np.random.default_rng(41)
    probes = [TimeFunction(g, gen.standard_normal((g.n, 1)),
                           gen.standard_normal(1))
              for g in (grid, Grid(grid.dt, -30, 25)) for _ in range(4)]
    zeroed = [TimeFunction(f.grid, f.samples, np.zeros(1)) for f in probes]
    i0 = np.array([[f.grid.i0] for f in probes])
    dip = FittedFamily.weighted_lp(
        2.0, Weight.table([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0]),
        name="broken-dip", allow_nonmonotone=True)
    for fam in (*map(catalog.family, ("sup-linf", "uniform-l2", "exp-l2",
                                      "box-l2")),
                FittedFamily.sup_family(catalog.family("uniform-l2")), dip):
        rep = check_ff_axioms(fam, probes, rng=37, n_triples=9).to_dict()
        assert rep == check_ff_axioms(fam, zeroed, rng=37,
                                      n_triples=9).to_dict()
        alpha_idx = (None if fam.alpha == math.inf
                     else max(2, to_cells(fam.alpha, grid.dt)))
        tri, _, _, cmp_tri = seminorm._axiom_draws(
            np.random.default_rng(37), probes, 9, alpha_idx)
        for r, s, t in (tri.transpose(2, 0, 1), cmp_tri.transpose(2, 0, 1)):
            assert (r >= i0).all() and (s > r).all() and (t > s).all()


@pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                           np.random.Philox,
                                           np.random.SFC64,
                                           np.random.PCG64DXSM])
def test_check_ff_axioms_refuses_other_bit_generators(grid, bit_generator):
    probes = probe_set(grid, 19, count=2, tails=True)
    gen = np.random.Generator(bit_generator(3))
    with pytest.raises(ValueError, match=f"PCG64 stream; this generator "
                                         f"runs {bit_generator.__name__}"):
        check_ff_axioms(UL2, probes, rng=gen, n_triples=4)


def test_small_ff_axioms_report_is_pinned(tmp_path, capsys):
    # sha256 of the report that one scalar numpy call per draw wrote.
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text("[run]\nprobes = 12\ntriples = 6\n")
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfgfile), "--experiment", "ff-axioms",
                 "--seed", "12345", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("ff-axioms.json", "ff-axioms_conditions.csv")}
    assert digests == {
        "ff-axioms.json": "612853bef8b3d1b3f393f8d3d6388d57"
                          "7314a810e2d76b13e1eb7041530e768d",
        "ff-axioms_conditions.csv": "73e73d40bfb865d2462c5cde82fccdf3"
                                    "070aa9a8d7749ddf03e23158236aa75e"}


def test_bench_grid_ff_axioms_report_is_pinned(tmp_path):
    # sha256 of the report at 40 probes of 400 cells and 20 triples: chunks
    # of three probes, one window call each, whose windows go in several
    # buckets and are each summed over their own span.
    cfgfile = tmp_path / "run.toml"
    cfgfile.write_text("[run]\nprobes = 40\ntriples = 20\n")
    out = tmp_path / "rep"
    assert main(["run", "--config", str(cfgfile), "--experiment", "ff-axioms",
                 "--seed", "12345", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("ff-axioms.json", "ff-axioms_conditions.csv")}
    assert digests == {
        "ff-axioms.json": "fd0ad17fa928577cb4c8acb5cd18561d"
                          "6e888d3fa4db4fc5405172c0241b6d68",
        "ff-axioms_conditions.csv": "733a6cef5375120f76277a44404f8828"
                                    "6be0ba2b6b3ed49dd7eb5fc64ebfd184"}


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
    mags, tail = fam._magnitudes(f.samples[None], f.tail_value[None])
    got = fam._seminorms(g.i0 - shifts, g.dt, tail, mags, 0, s - shifts,
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
    # A lone 1e-100 sample under a rate-200 weight: a running recurrence
    # that rescaled its terms by a factor near exp(-600) would push this one
    # below the subnormal range, and past_norms_all_t would read 0.0 where
    # past_norm reads 3.2e-101.
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


def test_box_running_sums_forget_a_huge_spike():
    # A 1e9 sample at the grid start, then samples near 1e-3: each box sum
    # reads only its own memory, so once the spike has left it the running
    # value is the small samples' norm, not the round-off of a cumulative
    # difference (which read 0.0 at 650 of the 800 right ends after the
    # origin).
    fam = catalog.family("box-l2")
    g = Grid(0.01, -400, 400)
    x = np.abs(np.random.default_rng(1).standard_normal((g.n, 1))) * 1e-3
    x[0, 0] = 1e9
    f = TimeFunction(g, x, np.zeros(1))
    allt = fam.past_norms_all_t(f)
    want = [fam.past_norm(f, i * g.dt) for i in range(g.i0, g.i1 + 1)]
    assert np.count_nonzero(allt) == g.n
    assert allt == pytest.approx(want, rel=1e-12, abs=0.0)


def test_a_norm_that_overflows_is_refused():
    # A norm beyond the largest double is refused naming the family, never
    # returned as inf: the largest double over 2 s of uniform weight, or
    # with that tail under the exponential weight's mass of about 1.005.
    # A sup norm reads the value as is, and a norm that fits is returned
    # however far its samples' squares overflow.
    g = Grid(0.01, -100, 100)
    top = np.finfo(float).max
    f = TimeFunction(g, np.full((g.n, 1), top), [top])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="exp-l2.*overflows"):
            catalog.family("exp-l2").past_norm(f, 0.0)
        with pytest.raises(ValueError, match="uniform-l2.*overflows"):
            catalog.family("uniform-l2").bounding_norm(
                TimeFunction(g, f.samples, [0.0]))
    assert catalog.family("sup-linf").past_norm(f, 0.0) == top
    one = catalog.family("exp-l2").past_norm(f * (1.0 / top), 0.0)
    assert catalog.family("exp-l2").past_norm(f * (1e200 / top), 0.0) == \
        pytest.approx(1e200 * one, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(catalog.FAMILIES)), st.integers(1, 2),
       st.floats(-300.0, 300.0), st.integers(0, 2 ** 32 - 1))
def test_norms_scale_with_samples_from_1e_minus_300_to_1e300(name, dim,
                                                             exp10, seed):
    # Every norm of a nonzero function is positive and scales with its
    # samples, at magnitudes whose squares leave the double range: a
    # weighted L2 norm of 1e-170 once read 0.0.  Tails are zero under the
    # uniform weight, whose unbounded past would diverge.
    fam = catalog.family(name)
    g = Grid(0.05, -20, 20)
    rng = np.random.default_rng(seed)
    tail = np.zeros(dim) if name == "uniform-l2" else rng.standard_normal(dim)
    f = TimeFunction(g, rng.standard_normal((g.n, dim)), tail)
    a = 10.0 ** exp10

    def norms(h):
        return np.array([fam.past_norm(h, 0.0), fam.bounding_norm(h),
                         fam.future_norm(h, -0.5),
                         fam.seminorm(h, Interval(-0.5, 0.5)),
                         *fam.past_norms_all_t(h)[1:]])

    want = a * norms(f)
    got = norms(f * a)
    assert (got > 0.0).all()
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _exp_oracle(x, rate, dt, op, cols):
    """The direct ``O(n^2)`` running value at each column ``c`` of ``cols``:
    ``math.fsum``, or the maximum, of ``x[j] exp(-rate (c - j) dt)`` over
    ``j <= c``."""
    out = []
    for c in cols:
        terms = x[:c + 1] * np.exp(-rate * (c - np.arange(c + 1)) * dt)
        out.append(math.fsum(terms) if op is np.add else float(terms.max()))
    return np.array(out)


@pytest.mark.parametrize("op", [np.add, np.maximum], ids=["sum", "max"])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("rate_dt", [1e-4, 0.01, 1.0, 20.0])
@pytest.mark.parametrize("n", [1, 2, 3, 100, 4096])
def test_exp_running_matches_the_direct_sum(n, rate_dt, scale, op):
    # Within 4 log2(n) roundings of the direct value, for decays from
    # nearly none to exp(-20) a cell, on rows of terms near the bottom and
    # the top of the float range; a one-cell row is returned as it is.
    rate, dt = rate_dt / 0.01, 0.01
    x = np.random.default_rng([n, int(rate_dt * 1e4)]).uniform(
        0.5, 1.5, n) * scale
    got = _exp_running(x.copy(), rate, dt, op)
    cols = np.unique(np.r_[np.linspace(0, n - 1, 40).astype(int),
                           [k + d for k in (1, 64, 1024, 2048) for d in (-1, 0, 1)
                            if k + d < n]])
    want = _exp_oracle(x, rate, dt, op, cols)
    assert np.all(np.isfinite(got)) and np.all(want > 0.0)
    bound = 4.0 * math.log2(n) * np.finfo(float).eps
    assert np.all(np.abs(got[cols] - want) <= bound * want)


@pytest.mark.parametrize("op", [np.add, np.maximum], ids=["sum", "max"])
@pytest.mark.parametrize("rate_dt", [1e-4, 1.0, 20.0])
def test_exp_running_reads_only_its_own_samples(rate_dt, op):
    # Every value keeps its bits under a zero prefix of any length, when the
    # row is cut short, and in a stack of rows; zeros inside the row included.
    rate, dt = rate_dt / 0.01, 0.01
    rng = np.random.default_rng(int(rate_dt * 1e4))
    x = rng.uniform(0.0, 2.0, 700)
    x[rng.random(700) < 0.2] = 0.0
    x[:5] = 0.0
    want = _exp_running(x.copy(), rate, dt, op)
    for pad in (1, 2, 3, 31, 64, 65, 500, 1023, 3000):
        got = _exp_running(np.r_[np.zeros(pad), x], rate, dt, op)
        assert got[pad:].tobytes() == want.tobytes(), pad
    for m in (1, 2, 3, 63, 64, 65, 129, 699):
        got = _exp_running(x[:m].copy(), rate, dt, op)
        assert got.tobytes() == want[:m].tobytes(), m
    rows = np.stack([x, x[::-1], np.r_[np.zeros(300), x[:400]]])
    got = _exp_running(rows.copy(), rate, dt, op)
    for row, g in zip(rows, got):
        assert g.tobytes() == _exp_running(row.copy(), rate, dt, op).tobytes()


_EXTEND_CASES = _SEMINORM_CASES + [
    fam for w in _KERNEL_WEIGHTS for p in (1.5, math.inf)
    for fam in (FittedFamily.weighted_lp(p, w),
                FittedFamily.sup_family(FittedFamily.weighted_lp(p, w)))]


@st.composite
def _extension_case(draw):
    """A family, a function on a grid that reaches ``before`` cells further
    into the past and ``after`` into the future than the grid ``(i0, i1]``,
    and windows with finite left ends in that grid."""
    fam = draw(st.sampled_from(_EXTEND_CASES))
    dt = draw(st.sampled_from([0.01, 0.05]))
    i0 = draw(st.integers(-40, 5))
    n = draw(st.integers(1, 150))
    before, after = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    dim = 2 if fam.vector_norm == "max" else 1
    cells = draw(st.lists(_VALUE, min_size=1, max_size=12))
    size = (before + n + after) * dim
    vals = np.resize(np.array(cells), size).reshape(-1, dim)
    tail = np.array(draw(st.lists(_VALUE, min_size=dim, max_size=dim)))
    long = TimeFunction(Grid(dt, i0 - before, i0 + n + after), vals, tail)
    windows = []
    for _ in range(draw(st.integers(1, 6))):
        sk = draw(st.integers(i0, i0 + n - 1))
        windows.append((sk, draw(st.integers(sk + 1, i0 + n))))
    return fam, long, i0, i0 + n, windows


@settings(max_examples=200, deadline=None)
@given(_extension_case())
def test_finite_windows_keep_their_bits_as_the_grid_grows(case):
    # A window whose left end is in the grid reads only the samples inside
    # it, so it keeps its bits when the grid reaches further into the past
    # or the future, for every kind and weight.  So do the running values of
    # its left end (future_norm's row) at right ends in the grid, and the
    # future norm itself when only the past grows.
    fam, long, i0, i1, windows = case
    s, t = map(np.array, zip(*windows))
    s = s.astype(float)
    past = long.with_window(long.grid.i0, i1)
    grids = [long.with_window(i0, i1), past,
             long.with_window(i0, long.grid.i1), long]
    want = fam.seminorms(grids[0], s, t)
    for f in grids[1:]:
        assert fam.seminorms(f, s, t).tobytes() == want.tobytes()

    def running(f):
        g = f.grid
        mags, tail = fam._magnitudes(f.samples[None], f.tail_value[None])
        return fam._running(g.i0, g.dt, tail, mags.repeat(len(s), 0), s)

    cols = np.arange(i0, i1 + 1)
    want_run = running(grids[0])
    for f in grids[1:]:
        got = running(f)[:, cols - f.grid.i0]
        assert got.tobytes() == want_run.tobytes()
    dt = long.grid.dt
    for sk in s:
        assert fam.future_norm(past, sk * dt) == fam.future_norm(
            grids[0], sk * dt)

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


@pytest.mark.parametrize("memory", [0.01, 0.05, 0.6, 5.0])
def test_box_running_sums_are_sequential_in_lag_order(memory):
    # Each position sums the samples of its own memory from itself back,
    # bit for bit: a one-cell memory and one longer than the row included.
    w, dt = Weight.box(memory), 0.01
    x = np.random.default_rng(7).uniform(0.0, 2.0, (3, 260))
    win = to_cells(memory, dt)
    want = np.empty_like(x)
    for c in range(x.shape[1]):
        want[:, c] = np.add.accumulate(x[:, c::-1][:, :win], axis=-1)[:, -1]
    got = w._accumulate(x, dt, np.add)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("op", [np.add, np.maximum], ids=["sum", "max"])
@pytest.mark.parametrize("edges, values", [
    ([0.0, 0.3, 1.1], [1.0, 0.4]), ([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0]),
    ([0.0, 0.05, 0.5], [0.0, 2.0]), ([0.0, 50.0], [0.7])])
def test_table_running_rows_are_sequential_in_lag_order(edges, values, op):
    # Each position's value is one sequential op.accumulate of its terms
    # from itself back, bit for bit: zero pieces, a zero first lag and a
    # support longer than the row included, one row or a stack.
    w, dt = Weight.table(edges, values), 0.01
    rng = np.random.default_rng(len(edges))
    for shape in ((1, 1), (1, 7), (3, 260)):
        x = rng.uniform(0.0, 2.0, shape)
        x[rng.random(shape) < 0.2] = 0.0
        wker = w(np.arange(shape[1]) * dt)
        want = np.empty_like(x)
        for c in range(shape[1]):
            want[:, c] = op.accumulate(x[:, c::-1] * wker[:c + 1], axis=-1)[:, -1]
        got = w._accumulate(x.copy(), dt, op)
        assert got.tobytes() == want.tobytes(), shape


@pytest.mark.parametrize("fam", [
    catalog.family("esssup-window-2"), FittedFamily.output_window(0.35),
    FittedFamily.output_window(0.05)], ids=lambda fam: fam.name)
def test_box_running_max_norms_match_sliding_window(rough, fam, monkeypatch):
    # ``_running`` and ``future_norm`` of the windowed ess-sup families read
    # the same bits as with the sliding-window maximum in its place.
    assert fam.weight.form == "box" and fam.p == math.inf
    g = rough.grid
    mags, tail = fam._magnitudes(rough.samples[None], rough.tail_value[None])
    s = np.array([-math.inf, g.i0, g.i0 + 13, g.i1 - 5], dtype=float)
    lefts = [-math.inf, g.i0 * g.dt, (g.i0 + 13) * g.dt, (g.i1 - 5) * g.dt]

    def norms():
        return (fam._running(g.i0, g.dt, tail, mags, s),
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

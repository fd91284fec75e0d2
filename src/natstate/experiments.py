"""Named desk-scale experiments, each verifying one family of claims.

Every experiment is a pure function of a :class:`RunConfig`: seeded, no
shared state, deterministic output.  Results carry scalar metrics, row
tables for CSV emission, and a pass flag; refusals and deliberate negative
controls count toward the pass criteria they demonstrate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .calculus import (SmoothInput, fd_directional_order, frechet_of,
                       input_to_state_frechet, remainder_decay,
                       shift_derivative, state_frechet, trajectory_derivative)
from . import kernel as kernel_mod
from .kernel import (PolyKernel, Permutation, check_symmetrization_properties,
                     identify_kernels, kernel_from_cells,
                     permutation_change_of_variables, symmetrize)
from .probes import future_probes, probe_set, random_timefunction
from .seminorm import (FittedFamily, Weight, check_ff_axioms, classify,
                       taper_certificate, taper_delta)
from .states import (NaturalState, reachability_experiment,
                     representative_independence, state_bound_check,
                     state_distance, state_matching_ladder)
from .sysop import (PolyIntegralOperator, TimeAdvance,
                    centered_truncation, check_causality, estimate_npower,
                    hypothesis_uniformity_check, npower_centered,
                    npower_global, steer_to_state)
from .timegrid import Grid, Interval, TimeFunction, shift_left, splice

__all__ = ["RunConfig", "ExperimentResult", "EXPERIMENTS", "run_experiment"]


@dataclass
class RunConfig:
    """Knobs shared by all experiments; sizes grow for the acceptance run.

    ``family``/``system`` select a single target where an experiment
    supports it; config files may add run-local families (built) and
    system specs (built per ``dt`` on demand).
    """

    dt: float = 0.01
    horizon: float = 2.0
    seed: int = 12345
    probes: int = 60
    triples: int = 20
    pasts: int = 8
    futures: int = 20
    bound_probes: int = 120
    family: str = ""
    system: str = ""
    custom_families: dict = field(default_factory=dict)
    system_specs: dict = field(default_factory=dict)

    def rng(self, stream: int):
        return np.random.default_rng([self.seed, stream])

    def get_family(self, name: str):
        if name in self.custom_families:
            return self.custom_families[name]
        return catalog.family(name)

    def get_system(self, name: str, dt: float):
        if name in self.system_specs:
            return catalog.system_from_spec(name, self.system_specs[name],
                                            dt, self.custom_families)
        return catalog.system(name, dt)


@dataclass
class ExperimentResult:
    name: str
    claim: str
    passed: bool
    metrics: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "claim": self.claim, "passed": self.passed,
                "metrics": self.metrics}


def _past_probes(grid: Grid, seed, count, tail_levels=(0.0,), bound=1.0):
    """Seeded pasts on ``grid``: bounded random samples with set tail levels."""
    rng = np.random.default_rng(seed)
    return [random_timefunction(grid, rng, bound=bound,
                                tail=tail_levels[i % len(tail_levels)])
            for i in range(count)]


def _random_future(dt: float, horizon: float, seed,
                   amplitude: float = 1.0) -> TimeFunction:
    g = Grid(dt, 0, int(round(horizon / dt)))
    return random_timefunction(g, np.random.default_rng(seed),
                               bound=amplitude)


# ---------------------------------------------------------------------------
# 1. family axioms


def exp_ff_axioms(cfg: RunConfig) -> ExperimentResult:
    n2 = min(int(round(2.0 / cfg.dt)), 200)
    grid = Grid(cfg.dt, -n2, n2)
    probes = probe_set(grid, cfg.seed + 1, count=cfg.probes, tails=True)
    if cfg.family:
        fams = [cfg.get_family(cfg.family)]
    else:
        fams = [catalog.family("sup-linf"), catalog.family("uniform-l2"),
                catalog.family("exp-l2"), catalog.family("box-l2"),
                FittedFamily.sup_family(catalog.family("uniform-l2"))]
    rows, all_ok = [], True
    reports = {}
    for k, fam in enumerate(fams):
        rep = check_ff_axioms(fam, probes, rng=cfg.rng(10 + k),
                              n_triples=cfg.triples)
        reports[fam.name] = rep.to_dict()
        all_ok &= rep.passed
        for cond, c in rep.conditions.items():
            rows.append({"family": fam.name, "condition": cond,
                         "passed": c.passed, "checks": c.checks})
    metrics_reports = reports
    # Negative control (skipped when one family was requested): a weight
    # that grows again must break the split triangle and the window
    # comparison.
    control_failed = True
    if not cfg.family:
        broken = FittedFamily.weighted_lp(
            2.0, Weight.table([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0]),
            name="broken-dip", allow_nonmonotone=True)
        rep_b = check_ff_axioms(broken, probes[: max(10, cfg.probes // 4)],
                                rng=cfg.rng(19), n_triples=cfg.triples)
        control_failed = not rep_b.passed
        rows.append({"family": "broken-dip", "condition": "any",
                     "passed": rep_b.passed, "checks": sum(
                         c.checks for c in rep_b.conditions.values())})
    return ExperimentResult(
        "ff-axioms",
        "the five window-seminorm conditions hold on every shipped family "
        "and fail with witnesses on a non-monotone weight",
        all_ok and control_failed,
        metrics={"families_checked": len(fams),
                 "probes": len(probes), "triples_per_probe": cfg.triples,
                 "control_detected": control_failed,
                 "reports": metrics_reports},
        tables={"conditions": rows})


# ---------------------------------------------------------------------------
# 2. separation of eventual-level classes


def exp_tail_separation(cfg: RunConfig) -> ExperimentResult:
    one, _ = catalog.averager_pair(cfg.dt)
    grid = one.grid(cfg.dt)
    n_each = max(3, cfg.pasts // 2)
    us = _past_probes(grid, [cfg.seed, 21], n_each, tail_levels=(1.0,))
    ws = _past_probes(grid, [cfg.seed, 22], n_each, tail_levels=(2.0,))
    futures = [0.0 * f for f in future_probes(cfg.dt, one.horizon, cfg.seed + 23,
                                              count=1)]
    futures += future_probes(cfg.dt, one.horizon, cfg.seed + 24, count=10)
    t0 = time.perf_counter()
    worst = math.inf
    rows = []
    for i, u in enumerate(us):
        for j, w in enumerate(ws):
            xi = NaturalState(one.system, u, 0.0)
            eta = NaturalState(one.system, w, 0.0)
            d = state_distance(xi, eta, 2, futures)
            worst = min(worst, d.value)
            rows.append({"u": i, "w": j, "distance": d.value})
    elapsed = time.perf_counter() - t0
    ok = worst >= 1.0 - 1e-9
    return ExperimentResult(
        "tail-separation",
        "states of level-1 and level-2 pasts stay at distance at least one: "
        "the zero future already witnesses the gap",
        ok,
        metrics={"min_distance": worst, "pairs": len(rows),
                 "runtime_seconds": elapsed},
        tables={"distances": rows})


# ---------------------------------------------------------------------------
# 3. same state set, different systems


def exp_shared_state_set(cfg: RunConfig) -> ExperimentResult:
    one, two = catalog.averager_pair(cfg.dt)
    grid = one.grid(cfg.dt)
    T = one.params["response_support"]
    h_l1 = one.system.l1_mass
    rng = cfg.rng(31)
    futures = future_probes(cfg.dt, one.horizon, cfg.seed + 32,
                            count=cfg.futures)
    worst = 0.0
    rows = []
    for k in range(cfg.pasts):
        level = float(rng.uniform(0.5, 2.0))
        u = _past_probes(grid, [cfg.seed, 33, k], 1, tail_levels=(level,))[0]
        # Match: same recent past, half the eventual level elsewhere.
        w_level = 0.5 * level
        idx = np.arange(grid.i0 + 1, grid.i1 + 1)
        keep = (idx * cfg.dt > -T) & (idx <= grid.index_of(0.0))
        vals = np.where(keep[:, None], u.samples, w_level)
        w = TimeFunction(grid, vals, np.array([w_level]))
        xi = NaturalState(one.system, u, 0.0)
        eta = NaturalState(two.system, w, 0.0)
        gap = max(one.system.output_fam.future_norm(
            xi.evaluate(v) - eta.evaluate(v), 0.0) for v in futures)
        worst = max(worst, gap)
        rows.append({"past": k, "tail_level": level, "gap": gap})
    tol = 5.0 * cfg.dt * h_l1
    return ExperimentResult(
        "shared-state-set",
        "every state of the single-gain system is a state of the double-gain "
        "system: matching the last second and halving the level reproduces "
        "all futures",
        worst <= tol,
        metrics={"max_gap": worst, "tolerance": tol, "pasts": cfg.pasts,
                 "futures": len(futures)},
        tables={"gaps": rows})


# ---------------------------------------------------------------------------
# 4. closed-form state evaluations


def exp_state_closed_form(cfg: RunConfig) -> ExperimentResult:
    dt = cfg.dt
    one, _ = catalog.averager_pair(dt)
    grid = one.grid(dt)
    T = one.params["response_support"]
    metrics, ok = {}, True

    # Moving-average system: past influence dies after the response support,
    # leaving exactly the eventual level.
    u = _past_probes(grid, [cfg.seed, 41], 1, tail_levels=(1.0,))[0]
    xi = NaturalState(one.system, u, 0.0)
    zero_future = 0.0 * future_probes(dt, one.horizon, 1, count=1)[0]
    y = xi.evaluate(zero_future)
    late = y.samples[y.grid.index_of(T) - y.grid.i0:, 0]
    metrics["averager_late_max_err"] = float(np.max(np.abs(late - 1.0)))
    ok &= metrics["averager_late_max_err"] == 0.0

    # Full three-term closed form for the box response: plain lattice sums
    # over the past and future segments plus the eventual level.
    v = _random_future(dt, one.horizon, [cfg.seed, 42])
    y2 = xi.evaluate(v)
    m = int(round(T / dt))
    worst = 0.0
    for s_idx in range(1, y2.grid.n + 1):
        acc = 0.0
        # Right-endpoint rule in the lag variable reads the input at
        # s - dt .. s - T.
        for j in range(s_idx - m, s_idx):
            x = u.value_at_index(j) if j <= 0 else v.value_at_index(j)
            acc += float(x[0]) * dt
        acc += 1.0  # eventual level of u
        worst = max(worst, abs(acc - float(y2.samples[s_idx - 1, 0])))
    metrics["averager_threeterm_max_err"] = worst
    ok &= worst <= 1e-10

    # Integrator: accumulated past plus the running integral of the future.
    bundle_i = catalog.system("integrator", dt)
    gi = bundle_i.grid(dt)
    up = _past_probes(gi, [cfg.seed, 43], 1)[0]
    xi_i = NaturalState(bundle_i.system, up, 0.0)
    vi = _random_future(dt, bundle_i.horizon, [cfg.seed, 44])
    got = xi_i.evaluate(vi).samples[:, 0]
    want = catalog.integrator_state_closed_form(up, vi, 0.0)
    metrics["integrator_max_err"] = float(np.max(np.abs(got - want)))
    ok &= metrics["integrator_max_err"] <= 1e-9

    # Quadratic operator: three-term kernel-side evaluation.
    qb = catalog.system("quadratic-volterra", dt)
    gq = qb.grid(dt)
    ker = qb.system.kernels[2]
    tol_q = 10.0 * dt
    worst_q = 0.0
    rows = []
    n_pairs = max(4, cfg.pasts)
    for k in range(n_pairs):
        upq = _past_probes(gq, [cfg.seed, 45, k], 1)[0]
        vq = _random_future(dt, qb.horizon, [cfg.seed, 47, k])
        t_eval = 0.0
        sigmas = np.arange(1, vq.grid.i1 + 1, max(1, vq.grid.i1 // 16))
        xi_q = NaturalState(qb.system, upq, t_eval)
        got_q = xi_q.evaluate_at(vq, sigmas)[:, 0]
        want_q = catalog.quadratic_state_closed_form(
            ker, False, upq, vq, t_eval, sigmas)
        err = float(np.max(np.abs(got_q - want_q)))
        worst_q = max(worst_q, err)
        rows.append({"pair": k, "max_err": err})
    metrics["quadratic_max_err"] = worst_q
    metrics["quadratic_tolerance"] = tol_q
    ok &= worst_q <= tol_q

    # Time-varying variant, smaller sweep.
    qtv = catalog.system("quadratic-volterra-tv", dt)
    gtv = qtv.grid(dt)
    kertv = qtv.system.kernels[2]
    worst_tv = 0.0
    for k in range(2):
        upq = _past_probes(gtv, [cfg.seed, 46, k], 1)[0]
        vq = _random_future(dt, qtv.horizon, [cfg.seed, 48, k])
        sigmas = np.arange(1, vq.grid.i1 + 1, max(1, vq.grid.i1 // 8))
        for t_eval in (0.0, 0.5):
            xi_q = NaturalState(qtv.system, upq, t_eval)
            got_q = xi_q.evaluate_at(vq, sigmas)[:, 0]
            want_q = catalog.quadratic_state_closed_form(
                kertv, True, upq, vq, t_eval, sigmas)
            worst_tv = max(worst_tv, float(np.max(np.abs(got_q - want_q))))
    metrics["quadratic_tv_max_err"] = worst_tv
    ok &= worst_tv <= tol_q

    return ExperimentResult(
        "state-closed-form",
        "splice-apply-shift state evaluation matches the per-system closed "
        "forms: eventual level after the response dies, integrator "
        "accumulation, and the three-term quadratic split",
        ok, metrics=metrics, tables={"quadratic": rows})


# ---------------------------------------------------------------------------
# 5. causality


def exp_causality(cfg: RunConfig) -> ExperimentResult:
    dt = cfg.dt
    results, rows = {}, []
    names = (cfg.system,) if cfg.system else (
        "averager-1x", "integrator", "quadratic-volterra")
    for name in names:
        b = cfg.get_system(name, dt)
        grid = b.grid(dt)
        probes = _past_probes(grid, [cfg.seed, 51, hash(name) % 997], 6)
        ts = [grid.dt * (grid.i0 + grid.n // 3),
              0.0, grid.dt * (grid.i1 - grid.n // 4)]
        rep = check_causality(b.system, probes, ts, rng=cfg.rng(52))
        results[name] = rep["causal"]
        rows.append({"system": name, "causal": rep["causal"],
                     "checks": rep["checks"]})
    # Anti-causal control must be caught.
    b = catalog.system("averager-1x", dt)
    grid = b.grid(dt)
    adv = TimeAdvance(5, b.system.input_fam, b.system.output_fam)
    probes = _past_probes(grid, [cfg.seed, 53], 4)
    rep = check_causality(adv, probes, [0.0], rng=cfg.rng(54))
    rows.append({"system": "time-advance", "causal": rep["causal"],
                 "checks": rep["checks"]})
    ok = all(results.values()) and not rep["causal"]
    return ExperimentResult(
        "causality",
        "past-equal inputs give past-equal outputs for every shipped system; "
        "a deliberate look-ahead operator is caught with a witness",
        ok,
        metrics={"systems": results, "anticausal_detected": not rep["causal"],
                 "witness": rep["violations"][0] if rep["violations"] else None},
        tables={"systems": rows})


# ---------------------------------------------------------------------------
# 6. memory can spoil causality


def exp_memory_causality(cfg: RunConfig) -> ExperimentResult:
    dt = cfg.dt
    b = catalog.system("averager-1x", dt)
    grid = b.grid(dt)
    box_fam = catalog.family("box-l2")
    M = box_fam.weight.support
    t = 0.0
    rng = cfg.rng(61)
    # Same samples within the memory window, different eventual levels.
    base = _past_probes(grid, [cfg.seed, 62], 1, tail_levels=(1.0,))[0]
    idx = np.arange(grid.i0 + 1, grid.i1 + 1)
    far = idx * dt <= -M
    vals = np.where(far[:, None], 0.0, base.samples)
    other = TimeFunction(grid, vals, np.array([0.0]))
    gap_in_box = box_fam.past_norm(base - other, t)
    gap_in_sup = catalog.family("sup-linf").past_norm(base - other, t)
    y_gap = b.system.output_fam.past_norm(
        b.system.apply(base) - b.system.apply(other), t)
    violates = gap_in_box == 0.0 and y_gap > 0.0
    return ExperimentResult(
        "memory-causality",
        "under a finite-memory input norm two pasts can be "
        "indistinguishable while the eventual-level term still tells them "
        "apart: the causality definition is norm-relative",
        violates and gap_in_sup > 0.0,
        metrics={"input_gap_finite_memory_norm": gap_in_box,
                 "input_gap_full_memory_norm": gap_in_sup,
                 "output_gap": y_gap,
                 "definition_violated_under_finite_memory": violates},
        tables={})


# ---------------------------------------------------------------------------
# 7. weighted operator norms and their bounds


def exp_npower_bounds(cfg: RunConfig) -> ExperimentResult:
    dt = cfg.dt
    qb = catalog.system("quadratic-volterra", dt)
    sysq = qb.system
    grid = qb.grid(dt)
    N = 2
    M = catalog.hilbert_schmidt_bound(sysq, dt)
    probes = _past_probes(grid, [cfg.seed, 71], max(10, cfg.probes // 4))
    metrics, ok = {"hs_bound": M}, True

    # Pointwise Cauchy-Schwarz chain and the windowed estimates.
    worst_ratio = 0.0
    for u in probes:
        y = sysq.apply(u)
        t0 = grid.index_of(0.0)
        yy = np.abs(y.samples[: t0 - grid.i0, 0])
        nu = sysq.input_fam.past_norm(u, 0.0)
        worst_ratio = max(worst_ratio, float(np.max(yy)) / (1.0 + nu ** N))
    ests = []
    for t in (-1.0, 0.0, 1.0):
        est = npower_centered(sysq, t, probes, N)
        ests.append(est.value)
    metrics["windowed_estimates"] = ests
    metrics["windowed_max"] = max(ests)
    ok &= max(ests) <= M * (1.0 + 1e-9)
    ok &= (max(ests) - min(ests)) == 0.0  # time invariance, exactly

    # Global norm never exceeds the matched windowed suprema.
    glob = npower_global(sysq, probes, N)
    matched = 0.0
    for u in probes:
        y = sysq.apply(u)
        all_t = sysq.output_fam.past_norms_all_t(y)
        tstar_pos = int(np.argmax(all_t))
        t_star = (y.grid.i0 + tstar_pos) * dt
        if t_star <= y.grid.i0 * dt:
            t_star = (y.grid.i0 + 1) * dt
        num = sysq.output_fam.past_norm(y, t_star)
        den = 1.0 + sysq.input_fam.past_norm(u, t_star) ** N
        matched = max(matched, num / den)
    metrics["global_estimate"] = glob.value
    metrics["matched_windowed_supremum"] = matched
    ok &= glob.value <= matched * (1.0 + 1e-9)

    # Homogeneity of the estimate under output scaling.
    class Scaled:
        def __init__(self, s, c):
            self.s, self.c = s, c

        def __call__(self, u):
            return self.c * self.s.apply(u)

    for c in (0.5, 2.0):
        est_c = estimate_npower(Scaled(sysq, c), probes, N,
                                lambda u: sysq.input_fam.past_norm(u, 0.0),
                                lambda y: sysq.output_fam.past_norm(y, 0.0))
        base = estimate_npower(Scaled(sysq, 1.0), probes, N,
                               lambda u: sysq.input_fam.past_norm(u, 0.0),
                               lambda y: sysq.output_fam.past_norm(y, 0.0))
        ok &= abs(est_c.value - c * base.value) <= 1e-12 * max(1.0, est_c.value)

    # Zero operator.
    zero_est = estimate_npower(lambda u: 0.0 * sysq.apply(u), probes, N,
                               sysq.input_fam.bounding_norm,
                               sysq.output_fam.bounding_norm)
    ok &= zero_est.value == 0.0

    # Uniformity across window instants (the standing boundedness hypothesis).
    uni = hypothesis_uniformity_check(sysq, (-0.5, 0.0, 0.5), probes[:6], N)
    metrics["uniform_bound"] = uni["uniform_bound"]
    metrics["modulus_bound"] = uni["modulus_bound"]
    ok &= uni["time_invariant_consistent"]

    # Centered and uncentered windowed estimates agree exactly.
    t = 0.5
    cen = centered_truncation(sysq, t)
    agree = True
    for u in probes[:5]:
        y0 = cen(u)
        u_shift = shift_left(u, -t)
        y_full = sysq.apply(u_shift)
        y_tr = y_full.with_window(y_full.grid.i0, y_full.grid.index_of(t))
        a = sysq.output_fam.past_norm(y0, 0.0)
        bnorm = sysq.output_fam.past_norm(y_tr, t)
        agree &= (a == bnorm)
    ok &= agree
    metrics["centered_equals_uncentered"] = agree
    metrics["per_point_ratio_bound_ok"] = worst_ratio <= M * (1.0 + 1e-9)
    ok &= worst_ratio <= M * (1.0 + 1e-9)
    return ExperimentResult(
        "npower-bounds",
        "weighted operator-norm estimates respect the kernel's "
        "Cauchy-Schwarz constant, the windowed-supremum chain, homogeneity, "
        "and window-instant uniformity",
        ok, metrics=metrics, tables={})


# ---------------------------------------------------------------------------
# 8. symmetrization


def exp_symmetrize(cfg: RunConfig) -> ExperimentResult:
    dt = max(cfg.dt, 0.01)
    metrics, ok = {}, True

    # Operator invariance for a deliberately asymmetric degree-2 kernel.
    S = 1.0
    asym = PolyKernel(2, S, func=lambda a, b:
                      np.exp(-2.0 * np.asarray(a) - np.asarray(b)))
    g = Grid(dt, -int(1.0 / dt), int(1.0 / dt))
    probes = probe_set(g, cfg.seed + 81, count=6, tails=False)
    rep = check_symmetrization_properties(asym, probes, dt, rng=cfg.rng(82))
    metrics["asym_operator_max_diff"] = rep["operator_invariance_max_diff"]
    metrics["reindexing_max_diff"] = rep["reindexing_max_diff"]
    ok &= rep["operator_invariance_ok"] and rep["reindexing_ok"]

    # Separable kernel: same invariance at tighter tolerance.
    sep = PolyKernel(2, S, func=lambda a, b:
                     np.exp(-np.asarray(a)) * (1.0 + np.asarray(b)) *
                     np.exp(-np.asarray(b)))
    rep2 = check_symmetrization_properties(sep, probes, dt, rng=cfg.rng(83))
    metrics["separable_operator_max_diff"] = rep2["operator_invariance_max_diff"]
    ok &= rep2["operator_invariance_max_diff"] <= 1e-12

    # Degree-3 asymmetric kernel on a small lag box.
    dt3 = max(dt, 0.05)
    asym3 = PolyKernel(3, 0.3, func=lambda a, b, c: np.exp(
        -2.0 * np.asarray(a) - np.asarray(b) - 0.5 * np.asarray(c)))
    g3 = Grid(dt3, -10, 10)
    probes3 = probe_set(g3, cfg.seed + 85, count=4, tails=False)
    rep3 = check_symmetrization_properties(asym3, probes3, dt3,
                                           rng=cfg.rng(86))
    metrics["asym3_operator_max_diff"] = rep3["operator_invariance_max_diff"]
    ok &= rep3["operator_invariance_ok"] and rep3["reindexing_ok"]

    # Two-term average of the simplest asymmetric kernel.
    lin = PolyKernel(2, S, func=lambda a, b: np.asarray(a) + 0.0 * np.asarray(b))
    lin_s = symmetrize(lin)
    xs = np.array([0.1, 0.3, 0.7])
    got = lin_s.func(xs[:, None], xs[None, :])
    want = 0.5 * (xs[:, None] + xs[None, :])
    metrics["two_term_max_err"] = float(np.max(np.abs(got - want)))
    ok &= metrics["two_term_max_err"] == 0.0

    # Idempotence on grids.
    K = asym.grid_values(dt)
    from .kernel import _symmetrized_array
    K1 = _symmetrized_array(K, 2)
    K2 = _symmetrized_array(K1, 2)
    metrics["idempotent_max_err"] = float(np.max(np.abs(K1 - K2)))
    ok &= metrics["idempotent_max_err"] <= 1e-15

    # Vector case, degree 3 with a repeated component index: the six-term
    # expansion written out longhand.
    rng = cfg.rng(84)
    Q = 5
    data = rng.standard_normal((2,) * 3 + (Q,) * 3)
    vec = PolyKernel(3, Q * dt, input_dim=2, data=data, data_dt=dt)
    vec_s = symmetrize(vec)
    Ks = vec_s.data
    i1, i2, i3 = 0, 0, 1  # component tuple (1,1,2)
    worst = 0.0
    for _ in range(20):
        a, b, c = (int(x) for x in rng.integers(0, Q, size=3))
        manual = (data[i1, i2, i3][a, b, c] + data[i1, i2, i3][b, a, c]
                  + data[i1, i3, i2][a, c, b] + data[i1, i3, i2][b, c, a]
                  + data[i3, i1, i2][c, a, b] + data[i3, i1, i2][c, b, a]) / 6.0
        worst = max(worst, abs(manual - Ks[i1, i2, i3][a, b, c]))
    metrics["six_term_max_err"] = worst
    ok &= worst <= 1e-14

    # Permutation tables for the six-symbol reindexing identity.
    rho = Permutation((3, 4, 6, 5, 2, 1))
    expected = {
        (2, 1, 3, 5, 4, 6): {"pi_rho_inverse": (5, 6, 1, 4, 2, 3),
                             "rows": [(1, 5, 2), (2, 6, 1), (3, 1, 3),
                                      (4, 4, 5), (5, 2, 4), (6, 3, 6)]},
        (4, 2, 1, 5, 3, 6): {"pi_rho_inverse": (2, 5, 6, 4, 1, 3),
                             "rows": [(1, 2, 4), (2, 5, 2), (3, 6, 1),
                                      (4, 4, 5), (5, 1, 3), (6, 3, 6)]},
    }
    tables_ok = True
    rows_out = []
    for pim, want_tbl in expected.items():
        table = permutation_change_of_variables(Permutation(pim), rho)
        tables_ok &= table["pi_rho_inverse"] == want_tbl["pi_rho_inverse"]
        tables_ok &= table["identity_holds"]
        for r, (k, pr, sym) in zip(table["rows"], want_tbl["rows"]):
            tables_ok &= (r["k"] == k and r["pi_rho_inv"] == pr
                          and r["sigma_symbol"] == sym and r["tau_pi"] == sym)
            rows_out.append({"pi": str(pim), "k": k,
                             "pi_rho_inv": r["pi_rho_inv"],
                             "symbol": r["sigma_symbol"]})
    metrics["permutation_tables_ok"] = tables_ok
    ok &= tables_ok
    return ExperimentResult(
        "symmetrize-invariance",
        "symmetrizing kernels never changes the operator; the index "
        "reindexing identity and the six-symbol permutation tables check "
        "out entry by entry",
        ok, metrics=metrics, tables={"permutation_rows": rows_out})


# ---------------------------------------------------------------------------
# 9. kernel identification


def exp_kernel_identify(cfg: RunConfig) -> ExperimentResult:
    dt = cfg.dt
    metrics, ok = {}, True
    qb = catalog.system("quadratic-volterra", dt)
    sysq = qb.system
    S = 2.0
    sigma = S + 0.25
    gq = Grid(dt, -int(round(1.0 / dt)), int(round(sigma / dt)))
    past = _past_probes(gq, [cfg.seed, 91], 1)[0]
    state = NaturalState(sysq, past, 0.0)
    sig_idx = [int(round(sigma / dt))]

    def oracle(v):
        return float(state.evaluate_at(v, sig_idx)[0, 0])

    # Probing width near a quarter second, snapped to the grid.
    delta = max(4, round(0.25 / dt)) * dt
    cell_list = kernel_mod.default_cell_lattice(dt, delta, 5 * delta,
                                                width=delta)
    tuples2 = [(a, b) for i, a in enumerate(cell_list)
               for b in cell_list[i:]]
    res = identify_kernels(oracle, dt, sigma, 2, {2: tuples2},
                           tail_bounds={2: sysq.kernels[2].tail_abs_mass(
                               dt, sigma)})
    got = np.array(res["degrees"][2]["values"])

    def cell_avg(c1, c2):
        f = lambda lo, hi: math.exp(-lo) - math.exp(-hi)
        return f(*c1) * f(*c2) / (delta * delta)

    want = np.array([cell_avg(a, b) for (a, b) in tuples2])
    rel = np.abs(got - want) / np.abs(want)
    tol = 2.0 * dt / delta
    metrics["max_rel_error"] = float(np.max(rel))
    metrics["tolerance"] = tol
    metrics["vandermonde_cond"] = res["vandermonde_cond"]
    ok &= float(np.max(rel)) <= tol
    rows = [{"cell": str(tp), "recovered": float(gv), "expected": float(wv),
             "rel_err": float(rv)}
            for tp, gv, wv, rv in zip(tuples2, got, want, rel)]

    # Re-identification of the piecewise-constant rebuild is a fixed point.
    rebuilt = kernel_from_cells(2, tuples2, got.tolist(), S, dt)
    op2 = PolyIntegralOperator([rebuilt], 0.0, sysq.input_fam, sysq.output_fam)
    state2 = NaturalState(op2, 0.0 * past, 0.0)

    def oracle2(v):
        return float(state2.evaluate_at(v, sig_idx)[0, 0])

    res2 = identify_kernels(oracle2, dt, sigma, 2, {2: tuples2})
    got2 = np.array(res2["degrees"][2]["values"])
    metrics["reidentify_max_err"] = float(np.max(np.abs(got2 - got)))
    ok &= metrics["reidentify_max_err"] <= 1e-9 * max(1.0, float(np.max(np.abs(got))))

    # Zero system recovers zeros.
    res0 = identify_kernels(lambda v: 0.0, dt, sigma, 2,
                            {1: [(c,) for c in cell_list], 2: tuples2[:3]})
    z1 = max(abs(x) for x in res0["degrees"][1]["values"])
    z2 = max(abs(x) for x in res0["degrees"][2]["values"])
    ok &= z1 == 0.0 and z2 == 0.0

    # Two descriptions of one operator give one symmetrized kernel.
    asym = PolyKernel(2, S, func=lambda a, b: np.where(
        (np.asarray(a) <= S) & (np.asarray(b) <= S),
        np.exp(-1.5 * np.asarray(a) - 0.5 * np.asarray(b)), 0.0))
    for ker_desc, tag in ((asym, "raw"), (symmetrize(asym), "symmetrized")):
        opa = PolyIntegralOperator([ker_desc], 0.0, sysq.input_fam,
                                   sysq.output_fam)
        sta = NaturalState(opa, 0.0 * past, 0.0)
        resa = identify_kernels(
            lambda v: float(sta.evaluate_at(v, sig_idx)[0, 0]),
            dt, sigma, 2, {2: tuples2[:4]})
        metrics[f"uniqueness_{tag}"] = resa["degrees"][2]["values"]
    u_raw = np.array(metrics["uniqueness_raw"])
    u_sym = np.array(metrics["uniqueness_symmetrized"])
    metrics["uniqueness_gap"] = float(np.max(np.abs(u_raw - u_sym)))
    ok &= metrics["uniqueness_gap"] <= 1e-9

    # Contamination from mass beyond the probe instant is reported, and the
    # spurious low-degree response stays inside the reported bound.
    wide = PolyKernel(2, 3.0, func=lambda a, b: np.where(
        (np.asarray(a) <= 3.0) & (np.asarray(b) <= 3.0),
        np.exp(-(np.asarray(a) + np.asarray(b))), 0.0))
    opw = PolyIntegralOperator([wide], 0.0, sysq.input_fam, sysq.output_fam)
    gw = Grid(dt, -int(round(2.0 / dt)), int(round(sigma / dt)))
    pw = _past_probes(gw, [cfg.seed, 92], 1)[0]
    stw = NaturalState(opw, pw, 0.0)
    resw = identify_kernels(
        lambda v: float(stw.evaluate_at(v, sig_idx)[0, 0]),
        dt, sigma, 2, {1: [(c,) for c in cell_list[:2]]},
        tail_bounds={2: wide.tail_abs_mass(dt, sigma)},
        input_bound=2.0)
    bound = resw["degrees"][1]["residual_bound"]
    spurious = max(abs(v) * delta for v in resw["degrees"][1]["values"])
    metrics["contamination_bound"] = bound
    metrics["spurious_degree1_mass"] = spurious
    ok &= bound > 0.0 and spurious <= bound * (1.0 + 1e-6)

    return ExperimentResult(
        "kernel-identify",
        "scaling plus indicator probing recovers symmetrized-kernel cell "
        "averages through the inclusion-exclusion ladder; recovery is a "
        "fixed point and is unique across kernel descriptions",
        ok, metrics=metrics, tables={"cells": rows})


# ---------------------------------------------------------------------------
# 10. reachability


def exp_reachability(cfg: RunConfig) -> ExperimentResult:
    dt = cfg.dt
    metrics, ok = {}, True
    futures = future_probes(dt, 2.0, cfg.seed + 101, count=max(8, cfg.futures // 2))
    futures = [0.0 * futures[0]] + futures

    rb = catalog.system("reachable-conv", dt)
    g = rb.grid(dt)
    src = _past_probes(g, [cfg.seed, 102], 1)[0]
    tgt = _past_probes(g, [cfg.seed, 103], 1)[0]
    fin = reachability_experiment(rb.system, src, tgt, rb.system.input_fam,
                                  futures, eps=0.05)
    metrics["finite_memory"] = fin
    ok &= (not fin["refused"]) and fin["exact"]

    fb = catalog.system("fading-conv", dt)
    gf = fb.grid(dt)
    srcf = _past_probes(gf, [cfg.seed, 104], 1)[0]
    tgtf = _past_probes(gf, [cfg.seed, 105], 1)[0]
    tap = reachability_experiment(fb.system, srcf, tgtf, fb.system.input_fam,
                                  futures, eps=0.05, c=1.0)
    metrics["tapered"] = tap
    ok &= (not tap["refused"]) and tap["achieved"]

    one, _ = catalog.averager_pair(dt)
    ga = one.grid(dt)
    u1 = _past_probes(ga, [cfg.seed, 106], 1, tail_levels=(1.0,))[0]
    w2 = _past_probes(ga, [cfg.seed, 107], 1, tail_levels=(2.0,))[0]
    ref = reachability_experiment(one.system, w2, u1, one.system.input_fam,
                                  futures)
    metrics["refusal"] = ref
    ok &= ref["refused"] and ref["reason_code"] == "family_not_tapered"
    # Separation persists under any drive: the eventual level survives splices.
    persist_rows = []
    target_state = NaturalState(one.system, u1, 0.0)
    for D in (1.0, 2.0, 3.0):
        driven = splice(shift_left(w2, D), u1, -D)
        persist_rows.append({
            "drive_seconds": D,
            "tail_preserved": float(driven.tail_value[0]) == 2.0,
            "distance": state_distance(
                NaturalState(one.system, driven, 0.0), target_state,
                2, futures).value})
    metrics["persistence_min_distance"] = min(r["distance"] for r in persist_rows)
    ok &= all(r["tail_preserved"] for r in persist_rows)
    ok &= metrics["persistence_min_distance"] >= 1.0 - 1e-9
    return ExperimentResult(
        "reachability",
        "finite memory reaches states exactly after one memory length; "
        "tapered families reach them to tolerance with a closed-form drive "
        "time; the untapered sup family is refused and its level classes "
        "stay one apart under any drive",
        ok, metrics=metrics, tables={"persistence": persist_rows})


# ---------------------------------------------------------------------------
# 11. does the state set identify the system?


def exp_state_set_identity(cfg: RunConfig) -> ExperimentResult:
    dt = cfg.dt
    metrics, ok = {}, True
    futures = future_probes(dt, 2.0, cfg.seed + 111, count=10)
    futures = [0.0 * futures[0]] + futures

    # Identical systems, trivial matching.
    one, two = catalog.averager_pair(dt)
    ga = one.grid(dt)
    u = _past_probes(ga, [cfg.seed, 112], 1, tail_levels=(1.0,))[0]
    triv = state_matching_ladder(one.system, one.system, u, 1.0, 3,
                                 lambda uu, tau: uu, futures)
    metrics["trivial_final_gap"] = triv["final_output_gap_at_T"]
    ok &= triv["final_output_gap_at_T"] == 0.0

    # Same dynamics written twice; matching via controllability steering.
    from .sysop import LTISystem
    fam_in = catalog.family("exp-l2")
    fam_out = catalog.family("esssup")
    A = [[0.0, 1.0], [-1.0, -0.6]]
    B = [[0.0], [1.0]]
    s1 = LTISystem(A, B, fam_in, fam_out)
    s2 = LTISystem(A, B, fam_in, fam_out)
    gl = Grid(dt, -int(round(8.0 / dt)), int(round(2.0 / dt)))
    ul = _past_probes(gl, [cfg.seed, 113], 1)[0]

    def match(uu, tau):
        x = s2.apply(uu).value(tau)
        return steer_to_state(s1, x, tau, 2.0, gl)

    lad = state_matching_ladder(s1, s2, ul, 0.0, 4, match, futures,
                                match_tol=1e-6)
    gaps = [r["input_gap_at_T"] for r in lad["rows"]]
    metrics["lti_ladder_final_gap"] = lad["final_output_gap_at_T"]
    metrics["lti_ladder_input_gaps"] = gaps
    metrics["lti_matches_ok"] = all(r["match_ok"] for r in lad["rows"])
    ok &= lad["final_output_gap_at_T"] <= 1e-9
    ok &= all(b < a * (1.0 + 1e-9) for a, b in zip(gaps, gaps[1:]))
    ok &= metrics["lti_matches_ok"] and lad["taper_hypothesis_met"]

    # Distinct dynamics produce separated state sets over matched vectors.
    b1 = catalog.system("oscillator", dt)
    b2 = catalog.system("oscillator-alt", dt)
    gl2 = b1.grid(dt)
    rng = cfg.rng(114)
    min_cross, max_same = math.inf, 0.0
    rows = []
    for k in range(4):
        x = rng.uniform(-1.0, 1.0, size=2)
        p1 = steer_to_state(b1.system, x, 0.0, 2.0, gl2)
        p2 = steer_to_state(b2.system, x, 0.0, 2.0, gl2)
        st1 = NaturalState(b1.system, p1, 0.0)
        st2 = NaturalState(b2.system, p2, 0.0)
        st1b = NaturalState(
            b1.system, steer_to_state(b1.system, x, 0.0, 3.0, gl2), 0.0)
        cross = state_distance(st1, st2, 2, futures).value
        same = state_distance(st1, st1b, 2, futures).value
        min_cross = min(min_cross, cross)
        max_same = max(max_same, same)
        rows.append({"target": str(x.round(3).tolist()),
                     "cross_distance": cross, "same_distance": same})
    metrics["min_cross_distance"] = min_cross
    metrics["max_same_distance"] = max_same
    ok &= min_cross > 1e-3 and max_same <= 1e-8

    # The averager pair: same states, different systems; the ladder's taper
    # premise fails and so does the conclusion.  Realizing the double-gain
    # system's state inside the single-gain system doubles the level.
    T_avg = one.params["response_support"]

    def match_avg(uu, tau):
        lev = 2.0 * float(uu.tail_value[0])
        idx = np.arange(ga.i0 + 1, ga.i1 + 1)
        keep = (idx * dt > tau - T_avg) & (idx <= ga.index_of(tau))
        vals = np.where(keep[:, None], uu.samples, lev)
        return TimeFunction(ga, vals, np.array([lev]))

    neg = state_matching_ladder(one.system, two.system, u, 1.0, 3,
                                match_avg, futures)
    metrics["negative_final_gap"] = neg["final_output_gap_at_T"]
    metrics["negative_matches_ok"] = all(r["match_ok"] for r in neg["rows"])
    metrics["negative_taper_met"] = neg["taper_hypothesis_met"]
    ok &= metrics["negative_matches_ok"]
    ok &= not neg["taper_hypothesis_met"]
    ok &= neg["final_output_gap_at_T"] >= 0.5
    return ExperimentResult(
        "state-set-identity",
        "with a tapered input family the matching ladder pins the system "
        "down from its state set; the untapered averager pair shares its "
        "state set while the systems differ, and the failed premise is "
        "reported",
        ok, metrics=metrics, tables={"lti_ladder": lad["rows"],
                                     "negative_ladder": neg["rows"],
                                     "vector_targets": rows})


# ---------------------------------------------------------------------------
# 12. state bounds inherited from the system


def exp_state_bounds(cfg: RunConfig) -> ExperimentResult:
    dt = cfg.dt
    metrics, ok = {}, True
    futures = future_probes(dt, 1.5, cfg.seed + 121,
                            count=max(20, cfg.bound_probes))
    total_probes = 0
    for name, n_states in (("quadratic-volterra", 2), ("averager-1x", 2)):
        b = catalog.system(name, dt)
        g = b.grid(dt)
        pasts = _past_probes(g, [cfg.seed, 122, hash(name) % 997], n_states,
                             tail_levels=(0.0,) if "quad" in name else (1.0,))
        for si, past in enumerate(pasts):
            st = NaturalState(b.system, past, 0.0)
            rep = state_bound_check(st, 2, futures)
            total_probes += len(futures)
            key = f"{name}[{si}]"
            metrics[key] = {"bound": rep["bound"], "max_ratio": rep["max_ratio"],
                            "violations": len(rep["violations"])}
            ok &= rep["passed"]
            # Representative independence rides along.
            ok &= representative_independence(st, futures[:4],
                                              rng=cfg.rng(123)) == 0.0
    metrics["probes_checked"] = total_probes
    return ExperimentResult(
        "state-bounds",
        "every state inherits the system's weighted bound through the "
        "binomial splice chain, with zero violations, and evaluations "
        "ignore the past beyond the state instant",
        ok, metrics=metrics, tables={})


# ---------------------------------------------------------------------------
# 13. derivatives of operators and states


def exp_frechet(cfg: RunConfig) -> ExperimentResult:
    dt = cfg.dt
    metrics, ok = {}, True
    # Linear systems: zero remainder, differential is the map itself.
    for name in ("integrator", "averager-1x"):
        b = catalog.system(name, dt)
        g = b.grid(dt)
        u, v = _past_probes(g, [cfg.seed, 131, hash(name) % 997], 2)
        fp = frechet_of(b.system)
        w = fp.W(u, v)
        l_gap = float(np.max(np.abs(
            (fp.L(u, v) - b.system.apply(v)).samples)))
        metrics[f"{name}_remainder"] = float(np.max(np.abs(w.samples)))
        metrics[f"{name}_linear_gap"] = l_gap
        ok &= metrics[f"{name}_remainder"] == 0.0 and l_gap == 0.0

    qb = catalog.system("quadratic-volterra", dt)
    sysq = qb.system
    gq = qb.grid(dt)
    M = catalog.hilbert_schmidt_bound(sysq, dt)
    fpq = frechet_of(sysq)
    u, v = _past_probes(gq, [cfg.seed, 132], 2)
    out_norm = sysq.output_fam.bounding_norm
    in_norm = sysq.input_fam.bounding_norm

    # Remainder controlled by the kernel constant.
    wv = fpq.W(u, v)
    ratio = out_norm(wv) / in_norm(v)
    metrics["quadratic_remainder_ratio"] = ratio
    metrics["quadratic_remainder_bound"] = M * in_norm(v)
    ok &= ratio <= M * in_norm(v) * (1.0 + 1e-9)

    # Decay sweep and the directional finite difference.
    rows = remainder_decay(fpq.W, u, v, out_norm, in_norm, steps=8)
    ratios = [r["ratio"] for r in rows]
    mono = all(b <= a * (1.0 + 1e-12) for a, b in zip(ratios[1:], ratios[2:]))
    metrics["remainder_decay_final_over_initial"] = ratios[-1] / ratios[0]
    ok &= mono and ratios[-1] <= 0.1 * ratios[0]
    fd = fd_directional_order(sysq, fpq, u, v, out_norm,
                              [0.5 ** k for k in range(2, 8)])
    metrics["directional_fd_order"] = fd["order"]
    ok &= fd["exact"] or fd["order"] >= 0.9

    # Additivity and homogeneity of the differential slot.
    w2 = _past_probes(gq, [cfg.seed, 133], 1)[0]
    add_gap = float(np.max(np.abs(
        (fpq.L(u, v + w2) - fpq.L(u, v) - fpq.L(u, w2)).samples)))
    hom_gap = float(np.max(np.abs(
        (fpq.L(u, 2.5 * v) - 2.5 * fpq.L(u, v)).samples)))
    metrics["L_additivity_gap"] = add_gap
    metrics["L_homogeneity_gap"] = hom_gap
    ok &= add_gap <= 1e-10 and hom_gap <= 1e-10

    # State-level differential: norm never grows, finite differences agree.
    pastq = _past_probes(gq, [cfg.seed, 134], 1)[0]
    st = NaturalState(sysq, pastq, 0.0)
    sf = state_frechet(st, fpq)
    futs = future_probes(dt, qb.horizon, cfg.seed + 135, count=8)
    vv, ww = futs[1], futs[2]
    est_state = 0.0
    est_sys = 0.0
    zero_past = 0.0 * pastq
    for w_dir in futs[3:]:
        a = st.spliced_input(vv)
        bdir = splice(zero_past, w_dir, 0.0)
        num_state = sysq.output_fam.future_norm(sf.L(vv, w_dir), 0.0)
        den = sysq.input_fam.future_norm(w_dir, 0.0)
        est_state = max(est_state, num_state / den)
        est_sys = max(est_sys, out_norm(fpq.L(a, bdir)) / in_norm(bdir))
    metrics["state_diff_norm"] = est_state
    metrics["system_diff_norm"] = est_sys
    ok &= est_state <= est_sys * (1.0 + 1e-9)

    h = 1e-3
    fd_state = (st.evaluate(vv + h * ww) - st.evaluate(vv)) * (1.0 / h)
    gap = sysq.output_fam.future_norm(fd_state - sf.L(vv, ww), 0.0)
    metrics["state_fd_gap"] = gap
    ok &= gap <= 10.0 * h

    # Past-to-state differential: refusal without unbounded comparison span,
    # vanishing remainder and the splice-power bound with it.
    fam_exp = catalog.family("exp-l2")
    clone = PolyIntegralOperator(list(sysq.kernels.values()), 0.0,
                                 fam_exp, sysq.output_fam)
    refuse = input_to_state_frechet(clone, 0.0, fpq)
    metrics["alpha_refusal"] = refuse.get("reason_code")
    ok &= refuse["refused"] and refuse["reason_code"] == "alpha_not_infinite"

    # State-level remainder decays like the system's.
    state_rows = remainder_decay(sf.W, vv, ww,
                                 lambda y: sysq.output_fam.future_norm(y, 0.0),
                                 lambda w_: sysq.input_fam.future_norm(w_, 0.0),
                                 steps=8)
    sr = [r["ratio"] for r in state_rows]
    metrics["state_remainder_final_over_initial"] = sr[-1] / sr[0]
    ok &= all(b <= a * (1.0 + 1e-12) for a, b in zip(sr[1:], sr[2:]))
    ok &= sr[-1] <= 0.1 * sr[0]

    s_pair = input_to_state_frechet(sysq, 0.0, fpq)
    ok &= not s_pair["refused"]
    Lam, Om = s_pair["Lambda"], s_pair["Omega"]
    vpast = _past_probes(gq, [cfg.seed, 136], 1)[0]
    lam_gap = float(np.max(np.abs(
        (Lam(pastq, 2.0 * vpast, ww) - 2.0 * Lam(pastq, vpast, ww)).samples)))
    metrics["lambda_homogeneity_gap"] = lam_gap
    ok &= lam_gap <= 1e-10
    om_rows = []
    for k in range(8):
        c = 0.5 ** k
        om = Om(pastq, c * vpast, ww)
        om_rows.append(sysq.output_fam.future_norm(om, 0.0)
                       / sysq.input_fam.past_norm(c * vpast, 0.0))
    metrics["omega_ratio_first_last"] = [om_rows[0], om_rows[-1]]
    ok &= all(b <= a * (1.0 + 1e-12) for a, b in zip(om_rows[1:], om_rows[2:]))
    ok &= om_rows[-1] <= 0.1 * om_rows[0] if om_rows[0] > 0 else True

    N = 2
    est_S = 0.0
    est_F_matched = 0.0
    pasts = _past_probes(gq, [cfg.seed, 137], 4)
    for pu in pasts:
        stu = NaturalState(sysq, pu, 0.0)
        xi_norm = max(
            sysq.output_fam.future_norm(stu.evaluate(f), 0.0)
            / (1.0 + sysq.input_fam.future_norm(f, 0.0) ** N)
            for f in futs[:5])
        est_S = max(est_S, xi_norm
                    / (1.0 + sysq.input_fam.past_norm(pu, 0.0) ** N))
        for f in futs[:5]:
            z = stu.spliced_input(f)
            est_F_matched = max(est_F_matched,
                                out_norm(sysq.apply(z)) / (1.0 + in_norm(z) ** N))
    metrics["past_to_state_norm"] = est_S
    metrics["matched_system_norm"] = est_F_matched
    metrics["power_factor"] = 2 ** N + 1
    ok &= est_S <= (2 ** N + 1) * est_F_matched * (1.0 + 1e-9)

    # Equivalent pasts give the same differential samples.
    edited = np.array(pastq.samples)
    after = np.arange(gq.i0 + 1, gq.i1 + 1) > gq.index_of(0.0)
    edited[after] += 1.0
    st_alt = NaturalState(sysq, TimeFunction(gq, edited, pastq.tail_value), 0.0)
    sf_alt = state_frechet(st_alt, fpq)
    nerode_gap = float(np.max(np.abs(
        (sf.L(vv, ww) - sf_alt.L(vv, ww)).samples)))
    metrics["nerode_gap"] = nerode_gap
    ok &= nerode_gap == 0.0
    return ExperimentResult(
        "frechet-derivatives",
        "analytic differentials beat finite differences at first order; "
        "state differentials never exceed the system's, remainders die "
        "linearly, and the past-to-state derivative obeys the power-factor "
        "bound on matched probes",
        ok, metrics=metrics, tables={"remainder_decay": rows})


# ---------------------------------------------------------------------------
# 14. shift derivatives


def exp_shift_derivative(cfg: RunConfig) -> ExperimentResult:
    dt = 1e-3  # pinned: the residual numbers are quoted at this resolution
    fam = catalog.family("uniform-l2")
    metrics, ok = {}, True
    g = Grid(dt, -int(round(2.0 / dt)), int(round(12.0 / dt)))
    trap = SmoothInput.trapezoid()
    sd = shift_derivative(trap, g, fam)
    rows = []
    for h in (0.25, 0.125, 0.0625):
        got = sd.residual_norm(h) ** 2
        want = 4.0 * h ** 3 / 3.0
        rel = abs(got - want) / want
        rows.append({"h": h, "norm_sq": got, "expected": want, "rel_err": rel})
        ok &= rel <= 0.02
    metrics["residual_sq_rows"] = rows

    ratio = sd.residual_norm(0.01) / 0.01
    metrics["ratio_at_0p01"] = ratio
    metrics["ratio_expected"] = 2.0 / math.sqrt(3.0) * math.sqrt(0.01)
    ok &= abs(ratio - metrics["ratio_expected"]) / metrics["ratio_expected"] <= 0.05

    sweep = sd.ratio_sweep(0.25, steps=8)
    rr = [r["ratio"] for r in sweep]
    metrics["sweep_final_over_initial"] = rr[-1] / rr[0]
    ok &= all(b <= a * (1 + 1e-12) for a, b in zip(rr[1:], rr[2:]))
    ok &= rr[-1] <= 0.1 * rr[0]

    # Uniform-in-s variant along descending h.
    ts = [-1.0, 0.0, 5.0, 11.5]
    uni = [sd.uniform_ratio(h, ts) for h in (0.2, 0.1, 0.05)]
    metrics["uniform_ratios"] = uni
    ok &= uni[2] <= uni[0]

    # Constants are their own shifts.
    const = shift_derivative(SmoothInput.constant(3.0), g, fam)
    metrics["constant_residual"] = const.residual_norm(0.1)
    ok &= metrics["constant_residual"] == 0.0

    # Smooth input: second-order residual with the curvature constant.
    g2 = Grid(dt, 0, int(round(2.0 / dt)))
    sine = SmoothInput.sine(freq=0.5)
    sd2 = shift_derivative(sine, g2, fam)
    w = 2.0 * math.pi * 0.5
    span = g2.t_end - g2.t_start
    for h in (0.05, 0.025):
        bound = 0.5 * h * (w ** 2) * math.sqrt(span)
        r = sd2.residual_norm(h, t=g2.t_end) / h
        ok &= r <= bound * (1.0 + 1e-6)
    metrics["sine_ratio_at_0p025"] = sd2.residual_norm(0.025) / 0.025

    # Jumps are refused.
    try:
        shift_derivative(SmoothInput.boxcar(), g, fam)
        refused = False
    except ValueError as e:
        refused = "jump_discontinuity" in str(e)
    metrics["jump_refused"] = refused
    ok &= refused
    return ExperimentResult(
        "shift-derivative",
        "piecewise-linear inputs are shift differentiable with the "
        "advertised cubic residual; smooth inputs decay at first order with "
        "the curvature constant; jumps are refused",
        ok, metrics=metrics, tables={"trapezoid": rows})


# ---------------------------------------------------------------------------
# 15. trajectory derivative


def exp_trajectory_derivative(cfg: RunConfig) -> ExperimentResult:
    dt = cfg.dt
    metrics, ok = {}, True
    qb = cfg.get_system(cfg.system or "quadratic-volterra", dt)
    sysq = qb.system
    gq = qb.grid(dt)
    src = SmoothInput.sine(freq=0.25, amp=0.8)
    td = trajectory_derivative(sysq, src, 0.0, gq)
    if isinstance(td, dict) and td.get("refused"):
        # A correctly refused target (time varying, or jumps) is reported
        # as such; the convergence claims then do not apply.
        return ExperimentResult(
            "trajectory-derivative",
            "the selected system does not admit the derivative route and "
            "is refused with a machine-readable reason",
            True, metrics={"refusal": td}, tables={})
    v = _random_future(dt, qb.horizon, [cfg.seed, 151])
    sweep = td.fd_check(v, h0=32 * dt)
    metrics["fd_order"] = sweep["order"]
    ok &= 0.8 <= sweep["order"] <= 1.2

    # Direct kernel-side lag sums agree with the evaluator (the polynomial
    # integral operator ships this oracle for every kernel degree).
    if isinstance(sysq, PolyIntegralOperator):
        past = src.sample(gq)
        dpast = src.derivative_sample(gq)
        sig = np.arange(1, v.grid.i1 + 1, max(1, v.grid.i1 // 10))
        got = td(v)
        got_vals = got.values_at_indices(sig)[:, 0]
        want = catalog.poly_state_derivative_closed_form(
            sysq, past, dpast, v, 0.0, sig)
        gap = float(np.max(np.abs(got_vals - want)))
        h_small = 32 * dt * 0.5 ** 7
        tol = max(10.0 * dt, 10.0 * h_small)
        metrics["closed_form_gap"] = gap
        metrics["closed_form_tol"] = tol
        ok &= gap <= tol

    # Constant past: the trajectory is frozen.
    const = SmoothInput.constant(0.4)
    td0 = trajectory_derivative(sysq, const, 0.0, gq)
    d0 = td0(v)
    metrics["constant_derivative_max"] = float(np.max(np.abs(d0.samples)))
    ok &= metrics["constant_derivative_max"] == 0.0
    st_a = NaturalState(sysq, const.sample(gq), 0.0)
    st_b = NaturalState(sysq, const.sample(gq, shift=0.37), 0.0)
    frozen_gap = float(np.max(np.abs(
        (st_a.evaluate(v) - st_b.evaluate(v)).samples)))
    metrics["frozen_trajectory_gap"] = frozen_gap
    ok &= frozen_gap == 0.0

    # Integrator with a ramp past: the derivative is the current input level.
    ib = catalog.system("integrator", dt)
    gi = ib.grid(dt)
    ramp = SmoothInput.ramp(0.0)
    t_eval = 1.5
    tdi = trajectory_derivative(ib.system, ramp, t_eval, gi)
    di = tdi(v)
    expect = t_eval  # ramp level at the evaluation instant
    gap_i = float(np.max(np.abs(di.samples - expect)))
    metrics["integrator_ramp_gap"] = gap_i
    ok &= gap_i <= 1e-9

    # Time-varying refusal.
    tvb = catalog.system("quadratic-volterra-tv", dt)
    ref = trajectory_derivative(tvb.system, src, 0.0, tvb.grid(dt))
    metrics["tv_refusal"] = ref.get("reason_code") if isinstance(ref, dict) else None
    ok &= isinstance(ref, dict) and ref["refused"]

    # Equivalent pasts: a source altered strictly after the state instant
    # yields identical derivative evaluations.
    def altered_u(t_arr):
        t_arr = np.asarray(t_arr, dtype=float)
        return np.where(t_arr > 0.0, src.u(t_arr) + 2.0, src.u(t_arr))

    src_alt = SmoothInput(altered_u, src.d, name="altered-after-zero")
    td_alt = trajectory_derivative(sysq, src_alt, 0.0, gq)
    gap_nerode = float(np.max(np.abs((td_alt(v) - td(v)).samples)))
    metrics["nerode_gap"] = gap_nerode
    ok &= gap_nerode == 0.0
    return ExperimentResult(
        "trajectory-derivative",
        "state trajectories of the time-invariant operator differentiate "
        "with first-order finite-difference convergence; constants freeze "
        "the trajectory, the integrator recovers its input level, and "
        "time-varying trajectories are refused",
        ok, metrics=metrics,
        tables={"fd_sweep": sweep["rows"]})


# ---------------------------------------------------------------------------
# 16. taper windows


def exp_taper(cfg: RunConfig) -> ExperimentResult:
    dt = cfg.dt
    metrics, ok = {}, True
    fam = catalog.family("exp-l2")
    d = taper_delta(fam, 0.1, 1.0)
    metrics["exp_delta"] = d
    metrics["exp_delta_expected"] = math.log(1.0 / (0.1 ** 2))
    ok &= abs(d - metrics["exp_delta_expected"]) <= 1e-9
    g = Grid(dt, -int(round(8.0 / dt)), 0)
    probes = probe_set(g, cfg.seed + 161, count=12, tails=True)
    cert = taper_certificate(fam, d, 0.1, 1.0, probes, 0.0)
    metrics["certificate"] = cert
    ok &= cert["certified"]

    box_fam = catalog.family("box-l2")
    metrics["box_delta"] = taper_delta(box_fam, 0.01, 5.0)
    ok &= metrics["box_delta"] == box_fam.weight.support

    sup_fam = catalog.family("sup-linf")
    none_delta = taper_delta(sup_fam, 0.1, 1.0)
    metrics["sup_delta"] = none_delta
    ok &= none_delta is None
    # Far-past spike: the gap never falls below the spike height.
    spike_vals = np.zeros((g.n, 1))
    spike_vals[2] = 1.0
    spike = TimeFunction(g, spike_vals, np.zeros(1))
    gaps = []
    for delta in (1.0, 3.0, 6.0):
        gaps.append(sup_fam.past_norm(spike, 0.0)
                    - sup_fam.seminorm(spike, Interval(-delta, 0.0)))
    metrics["spike_gaps"] = gaps
    ok &= min(gaps) >= 1.0
    cls = {n: classify(catalog.family(n))["class"]
           for n in ("sup-linf", "uniform-l2", "exp-l2", "box-l2")}
    metrics["classes"] = cls
    ok &= cls == {"sup-linf": "neither", "uniform-l2": "neither",
                  "exp-l2": "tapered", "box-l2": "finite_memory"}
    return ExperimentResult(
        "taper",
        "closed-form taper windows match their defining inequality on "
        "bounded probes; finite memory tapers at its own length; the sup "
        "family never tapers, witnessed by an arbitrarily old spike",
        ok, metrics=metrics, tables={})


EXPERIMENTS = {
    "ff-axioms": exp_ff_axioms,
    "tail-separation": exp_tail_separation,
    "shared-state-set": exp_shared_state_set,
    "state-closed-form": exp_state_closed_form,
    "causality": exp_causality,
    "memory-causality": exp_memory_causality,
    "npower-bounds": exp_npower_bounds,
    "symmetrize-invariance": exp_symmetrize,
    "kernel-identify": exp_kernel_identify,
    "reachability": exp_reachability,
    "state-set-identity": exp_state_set_identity,
    "state-bounds": exp_state_bounds,
    "frechet-derivatives": exp_frechet,
    "shift-derivative": exp_shift_derivative,
    "trajectory-derivative": exp_trajectory_derivative,
    "taper": exp_taper,
}


def run_experiment(name: str, cfg: RunConfig) -> ExperimentResult:
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}") from None
    return fn(cfg)

"""Named desk-scale experiments, each verifying one family of claims.

Every experiment depends on its :class:`RunConfig` alone: seeded, no
shared state, deterministic output.  An experiment ``exp_x(cfg, res)``
states its claim as its docstring and fills the :class:`ExperimentResult`
that :func:`run_experiment` names by its ``EXPERIMENTS`` key: scalar
metrics, row tables for CSV emission, and named checks.  Each check records
an observed value, a bound and whether it held; the experiment passes when
every check does.  Refusals and deliberate negative controls are checked
like any other sub-claim.
"""

from __future__ import annotations

import math
import operator
import time
import zlib
from dataclasses import dataclass, field

import numpy as np
# numpy loads its random module lazily; import it with the experiments, which
# draw from it, so that the first probe draw does not pay for it.
import numpy.random  # noqa: F401

from . import catalog
from .calculus import (DECAY_STEPS, SmoothInput, fd_directional_order,
                       frechet_of, input_to_state_frechet, remainder_decay,
                       shift_derivative, state_frechet, trajectory_derivative)
from . import kernel as kernel_mod
from .kernel import (PolyKernel, Permutation, check_symmetrization_properties,
                     identify_kernels, kernel_from_cells,
                     permutation_change_of_variables, symmetrize)
from .probes import (edited_after, future_probes, probe_set,
                     random_timefunction)
from .seminorm import (FittedFamily, Weight, check_ff_axioms, classify,
                       taper_certificate, taper_delta)
from .states import (NaturalState, reachability_experiment,
                     representative_independence, state_bound_check,
                     state_distances, state_matching_ladder)
from .sysop import (PolyIntegralOperator, TimeAdvance, centered_truncations,
                    check_causality, estimate_npower,
                    hypothesis_uniformity_check, steer_to_state)
from .timegrid import (Grid, Interval, TimeFunction, ceil_cells, recenter,
                       shift_left, splice, to_cells)

__all__ = ["RunConfig", "ExperimentResult", "Check", "EXPERIMENTS", "claim",
           "run_experiment"]


@dataclass
class RunConfig:
    """Knobs shared by all experiments; sizes grow for the acceptance run.

    ``family``/``system`` select a single target where an experiment
    supports it; config files may add run-local families (built) and
    system specs (built per ``dt`` on demand).
    """

    dt: float = 0.01
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

    def get_system(self, name: str):
        if name in self.system_specs:
            return catalog.system_from_spec(name, self.system_specs[name],
                                            self.dt, self.custom_families)
        return catalog.system(name, self.dt)


def _decays(ratios, factor) -> bool:
    """Non-increasing from the second ratio on (1e-12 relative slack), and
    the last at most ``factor`` times the first."""
    return (all(b <= a * (1.0 + 1e-12) for a, b in zip(ratios[1:], ratios[2:]))
            and ratios[-1] <= factor * ratios[0])


# How a check compares its observed value with its bound.
_OPS = {
    "==": operator.eq, "<=": operator.le, "<": operator.lt,
    ">=": operator.ge, ">": operator.gt,
    "within": lambda x, lo_hi: lo_hi[0] <= x <= lo_hi[1],
    "decreasing within": lambda xs, slack: all(
        b < a * (1.0 + slack) for a, b in zip(xs, xs[1:])),
    "decays to": _decays,
}


@dataclass
class Check:
    """One named sub-claim: ``observed <op> bound``, and whether it held."""

    name: str
    passed: bool
    observed: object
    op: str
    bound: object


@dataclass
class ExperimentResult:
    """What one experiment found: scalar metrics, row tables for CSV
    emission and named checks.  It passes when every check passed."""

    name: str
    claim: str
    metrics: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str, observed, op: str, bound) -> bool:
        """Record the check ``observed <op> bound`` as ``name``; return
        whether it held."""
        passed = bool(_OPS[op](observed, bound))
        self.checks.append(Check(name, passed, observed, op, bound))
        return passed

    def metric(self, name: str, value, op: str, bound) -> bool:
        """Store ``value`` as metric ``name`` and check it under that name."""
        self.metrics[name] = value
        return self.check(name, value, op, bound)


# Probe seeds of the shipped systems: what hash(name) % 997 gave under
# PYTHONHASHSEED=0, which the stored reports were written with.  Any other
# name takes its CRC-32, so no seed depends on the process.
_SYSTEM_SALT = {
    "averager-1x": 805, "averager-2x": 653, "cubic-volterra": 7,
    "fading-conv": 85, "integrator": 276, "leaky-integrator": 381,
    "oscillator": 899, "oscillator-alt": 113, "quadratic-volterra": 588,
    "quadratic-volterra-tv": 112, "reachable-conv": 758}


def _salt(name: str) -> int:
    return _SYSTEM_SALT.get(name, zlib.crc32(name.encode()) % 997)


def _random_probes(grid: Grid, seed, count, tail_levels=(0.0,)):
    """Seeded random samples on ``grid``, bounded by one, with set tail
    levels: pasts, or futures on a grid that starts at zero."""
    rng = np.random.default_rng(seed)
    return [random_timefunction(grid, rng,
                                tail=tail_levels[i % len(tail_levels)])
            for i in range(count)]


def _level_match(u: TimeFunction, tau: float, T: float,
                 level: float) -> TimeFunction:
    """``u`` on the last ``T`` seconds up to ``tau`` and the constant
    ``level`` everywhere else, tail included: how one averager of the pair
    realizes a state of the other."""
    g = u.grid
    lag = g.index_of(tau) - np.arange(g.i0 + 1, g.i1 + 1)
    keep = (lag >= 0) & (lag < to_cells(T, g.dt))
    return TimeFunction(g, np.where(keep[:, None], u.samples, level),
                        np.array([level]))


# ff-axioms' negative control: 1 on lags [0, 1), 0 on [1, 2), 1 on [2, 3).
_DIP_WEIGHT = Weight.table([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0])


def exp_ff_axioms(cfg: RunConfig, res: ExperimentResult) -> None:
    """the five window-seminorm conditions hold on every shipped family and
    fail with witnesses on a non-monotone weight"""
    n2 = min(to_cells(2.0, cfg.dt), 200)  # a cell count, capped at 200
    grid = Grid(cfg.dt, -n2, n2)
    probes = probe_set(grid, cfg.seed + 1, count=cfg.probes, tails=True)
    if cfg.family:
        fams = [cfg.get_family(cfg.family)]
    else:
        fams = [catalog.family("sup-linf"), catalog.family("uniform-l2"),
                catalog.family("exp-l2"), catalog.family("box-l2"),
                FittedFamily.sup_family(catalog.family("uniform-l2"))]
    rows, reports = [], {}
    for k, fam in enumerate(fams):
        rep = check_ff_axioms(fam, probes, rng=cfg.rng(10 + k),
                              n_triples=cfg.triples)
        reports[fam.name] = rep.to_dict()
        res.check(f"failed_conditions[{fam.name}]",
                  [c for c, v in rep.conditions.items() if not v.passed],
                  "==", [])
        for cond, c in rep.conditions.items():
            rows.append({"family": fam.name, "condition": cond,
                         "passed": c.passed, "checks": c.checks})
    res.metrics.update(families_checked=len(fams), probes=len(probes),
                       triples_per_probe=cfg.triples, reports=reports,
                       control_detected=True)
    res.tables["conditions"] = rows
    # Negative control (skipped when one family was requested): a weight
    # that grows again breaks the window comparison.  A one-cell spike at 0
    # witnesses it: (-dt, 0.5] reads the weight at lag 0.5, where it is
    # one, and (-dt, 1.5] at lag 1.5, where it is zero.  Whether the random
    # search on a quarter of the probes finds a failure is a metric.
    if not cfg.family:
        broken = FittedFamily.weighted_lp(2.0, _DIP_WEIGHT, name="broken-dip",
                                          allow_nonmonotone=True)
        far = ceil_cells(1.5, cfg.dt)
        spike = TimeFunction(Grid(cfg.dt, -1, far), np.eye(far + 1, 1), 0.0)
        near_norm, far_norm = broken.seminorms(
            spike, [-1, -1], [ceil_cells(0.5, cfg.dt), far]).tolist()
        res.check("control_witness_near", near_norm, ">", 0.0)
        res.check("control_witness_far", far_norm, "==", 0.0)
        rep_b = check_ff_axioms(broken, probes[: max(10, cfg.probes // 4)],
                                rng=cfg.rng(19), n_triples=cfg.triples)
        res.metrics["control_detected"] = not rep_b.passed
        rows.append({"family": "broken-dip", "condition": "any",
                     "passed": rep_b.passed, "checks": sum(
                         c.checks for c in rep_b.conditions.values())})


def exp_tail_separation(cfg: RunConfig, res: ExperimentResult) -> None:
    """states of level-1 and level-2 pasts stay at distance at least one: the
    zero future already witnesses the gap"""
    one, _ = catalog.averager_pair(cfg.dt)
    grid = one.grid(cfg.dt)
    n_each = max(3, cfg.pasts // 2)
    us = _random_probes(grid, [cfg.seed, 21], n_each, tail_levels=(1.0,))
    ws = _random_probes(grid, [cfg.seed, 22], n_each, tail_levels=(2.0,))
    futures = [0.0 * f for f in future_probes(cfg.dt, one.horizon, cfg.seed + 23,
                                              count=1)]
    futures += future_probes(cfg.dt, one.horizon, cfg.seed + 24, count=10)
    t0 = time.perf_counter()
    worst = math.inf
    rows = []
    dists = state_distances([NaturalState(one.system, u, 0.0) for u in us],
                            [NaturalState(one.system, w, 0.0) for w in ws],
                            2, futures)
    for i, row in enumerate(dists):
        for j, d in enumerate(row):
            worst = min(worst, d)
            rows.append({"u": i, "w": j, "distance": d})
    res.metrics.update(pairs=len(rows),
                       runtime_seconds=time.perf_counter() - t0)
    res.metric("min_distance", worst, ">=", 1.0 - 1e-9)
    res.tables["distances"] = rows


def exp_shared_state_set(cfg: RunConfig, res: ExperimentResult) -> None:
    """every state of the single-gain system is a state of the double-gain
    system: matching the last second and halving the level reproduces all
    futures"""
    one, two = catalog.averager_pair(cfg.dt)
    grid = one.grid(cfg.dt)
    T = one.params["response_support"]
    h_l1 = one.system.l1_mass
    rng = cfg.rng(31)
    futures = TimeFunction.stack(future_probes(
        cfg.dt, one.horizon, cfg.seed + 32, count=cfg.futures))
    worst = 0.0
    rows = []
    for k in range(cfg.pasts):
        level = float(rng.uniform(0.5, 2.0))
        u = _random_probes(grid, [cfg.seed, 33, k], 1, tail_levels=(level,))[0]
        # Match: same recent past, half the eventual level elsewhere.
        w = _level_match(u, 0.0, T, 0.5 * level)
        xi = NaturalState(one.system, u, 0.0)
        eta = NaturalState(two.system, w, 0.0)
        gap = max(one.system.output_fam.future_norms(
            xi.evaluate_all(futures) - eta.evaluate_all(futures), 0.0))
        worst = max(worst, gap)
        rows.append({"past": k, "tail_level": level, "gap": gap})
    tol = 5.0 * cfg.dt * h_l1
    res.metrics.update(tolerance=tol, pasts=cfg.pasts, futures=len(futures))
    res.metric("max_gap", worst, "<=", tol)
    # The match reproduces every future exactly; a match one cell short of
    # the response still passes the tolerance above.
    res.check("max_gap_exact", worst, "==", 0.0)
    res.tables["gaps"] = rows


def exp_state_closed_form(cfg: RunConfig, res: ExperimentResult) -> None:
    """splice-apply-shift state evaluation matches the per-system closed
    forms: eventual level after the response dies, integrator accumulation,
    and the three-term quadratic split"""
    dt = cfg.dt
    one, _ = catalog.averager_pair(dt)
    grid = one.grid(dt)
    T = one.params["response_support"]

    # Moving-average system: past influence dies after the response support,
    # leaving exactly the eventual level.
    u = _random_probes(grid, [cfg.seed, 41], 1, tail_levels=(1.0,))[0]
    xi = NaturalState(one.system, u, 0.0)
    zero_future = 0.0 * future_probes(dt, one.horizon, 1, count=1)[0]
    y = xi.evaluate(zero_future)
    late = y.samples[y.grid.index_of(T) - y.grid.i0:, 0]
    res.metric("averager_late_max_err", float(np.max(np.abs(late - 1.0))),
               "==", 0.0)

    # Full three-term closed form for the box response: plain lattice sums
    # over the past and future segments plus the eventual level.
    v = _random_probes(Grid.spanning(dt, 0.0, one.horizon), [cfg.seed, 42], 1)[0]
    y2 = xi.evaluate(v)
    m = to_cells(T, dt)
    # Right-endpoint rule in the lag variable reads the input at
    # s - dt .. s - T, summed in turn from the earliest lag.
    x = np.concatenate([u.values_at_indices(np.arange(1 - m, 1)),
                        v.values_at_indices(np.arange(1, y2.grid.n))])[:, 0]
    windows = np.lib.stride_tricks.sliding_window_view(x * dt, m)
    acc = np.add.accumulate(windows, axis=1)[:, -1] + 1.0
    worst = float(np.max(np.abs(acc - y2.samples[:, 0])))
    res.metric("averager_threeterm_max_err", worst, "<=", 1e-10)

    # Integrator: accumulated past plus the running integral of the future.
    bundle_i = catalog.system("integrator", dt)
    gi = bundle_i.grid(dt)
    up = _random_probes(gi, [cfg.seed, 43], 1)[0]
    xi_i = NaturalState(bundle_i.system, up, 0.0)
    vi = _random_probes(Grid.spanning(dt, 0.0, bundle_i.horizon),
                      [cfg.seed, 44], 1)[0]
    got = xi_i.evaluate(vi).samples[:, 0]
    want = catalog.integrator_state_closed_form(up, vi, 0.0)
    res.metric("integrator_max_err", float(np.max(np.abs(got - want))),
               "<=", 1e-9)

    # Quadratic operators: three-term kernel-side evaluation of all pairs.
    def quadratic_gaps(name, past_stream, future_stream, count, steps,
                       t_evals) -> list[float]:
        b = catalog.system(name, dt)
        pasts = [_random_probes(b.grid(dt), [cfg.seed, past_stream, k], 1)[0]
                 for k in range(count)]
        vs = [_random_probes(Grid.spanning(dt, 0.0, b.horizon),
                             [cfg.seed, future_stream, k], 1)[0]
              for k in range(count)]
        i1 = vs[0].grid.i1
        sigmas = np.arange(1, i1 + 1, max(1, i1 // steps))
        errs = []
        for t_eval in t_evals:
            want = catalog.quadratic_state_closed_form(
                b.system.kernels[2], pasts, vs, t_eval, sigmas)
            errs += [float(np.max(np.abs(NaturalState(
                b.system, past, t_eval).evaluate_at(v, sigmas)[:, 0] - w)))
                for past, v, w in zip(pasts, vs, want)]
        return errs

    tol_q = 10.0 * dt
    errs = quadratic_gaps("quadratic-volterra", 45, 47, max(4, cfg.pasts), 16,
                          (0.0,))
    res.metrics["quadratic_tolerance"] = tol_q
    res.metric("quadratic_max_err", max(errs), "<=", tol_q)
    res.tables["quadratic"] = [{"pair": k, "max_err": err}
                               for k, err in enumerate(errs)]

    # Time-varying variant, smaller sweep.
    errs = quadratic_gaps("quadratic-volterra-tv", 46, 48, 2, 8, (0.0, 0.5))
    res.metric("quadratic_tv_max_err", max(errs), "<=", tol_q)


def exp_causality(cfg: RunConfig, res: ExperimentResult) -> None:
    """past-equal inputs give past-equal outputs for every shipped system; a
    deliberate look-ahead operator is caught with a witness"""
    dt = cfg.dt
    results, rows = {}, []
    names = (cfg.system,) if cfg.system else (
        "averager-1x", "integrator", "quadratic-volterra")
    for name in names:
        b = cfg.get_system(name)
        grid = b.grid(dt)
        probes = _random_probes(grid, [cfg.seed, 51, _salt(name)], 6)
        ts = [grid.dt * (grid.i0 + grid.n // 3),
              0.0, grid.dt * (grid.i1 - grid.n // 4)]
        rep = check_causality(b.system, probes, ts, rng=cfg.rng(52))
        results[name] = rep["causal"]
        res.check(f"causal[{name}]", rep["causal"], "==", True)
        rows.append({"system": name, "causal": rep["causal"],
                     "checks": rep["checks"]})
    # Anti-causal control must be caught.
    b = catalog.system("averager-1x", dt)
    grid = b.grid(dt)
    adv = TimeAdvance(5, b.system.input_fam, b.system.output_fam)
    probes = _random_probes(grid, [cfg.seed, 53], 4)
    rep = check_causality(adv, probes, [0.0], rng=cfg.rng(54))
    rows.append({"system": "time-advance", "causal": rep["causal"],
                 "checks": rep["checks"]})
    res.metric("anticausal_detected", not rep["causal"], "==", True)
    res.metrics.update(systems=results, witness=rep["violations"][0]
                       if rep["violations"] else None)
    res.tables["systems"] = rows


def exp_memory_causality(cfg: RunConfig, res: ExperimentResult) -> None:
    """under a finite-memory input norm two pasts can be indistinguishable
    while the eventual-level term still tells them apart: the causality
    definition is norm-relative"""
    dt = cfg.dt
    b = catalog.system("averager-1x", dt)
    grid = b.grid(dt)
    box_fam = catalog.family("box-l2")
    M = box_fam.weight.support
    t = 0.0
    # Same samples within the memory window, different eventual levels.
    base = _random_probes(grid, [cfg.seed, 62], 1, tail_levels=(1.0,))[0]
    far = np.arange(grid.i0 + 1, grid.i1 + 1) <= -to_cells(M, dt)
    vals = np.where(far[:, None], 0.0, base.samples)
    other = TimeFunction(grid, vals, np.array([0.0]))
    hidden = res.metric("input_gap_finite_memory_norm",
                        box_fam.past_norm(base - other, t), "==", 0.0)
    res.metric("input_gap_full_memory_norm",
               catalog.family("sup-linf").past_norm(base - other, t),
               ">", 0.0)
    gap = b.system.apply(base) - b.system.apply(other)
    out_fam = b.system.output_fam
    seen = res.metric("output_gap", out_fam.past_norm(gap, t), ">", 0.0)
    # On (-0.5, 0] every 1 s response window reads only samples the pasts
    # share, so the eventual-level term alone can tell the outputs apart.
    res.check("recent_output_gap", out_fam.seminorm(gap, Interval(-0.5, t)),
              ">", 0.0)
    res.metrics["definition_violated_under_finite_memory"] = hidden and seen


def exp_npower_bounds(cfg: RunConfig, res: ExperimentResult) -> None:
    """weighted operator-norm estimates respect the kernel's Cauchy-Schwarz
    constant, the windowed-supremum chain, homogeneity, and window-instant
    uniformity"""
    dt = cfg.dt
    qb = catalog.system("quadratic-volterra", dt)
    sysq = qb.system
    grid = qb.grid(dt)
    N = 2
    M = catalog.hilbert_schmidt_bound(sysq, dt)
    probes = _random_probes(grid, [cfg.seed, 71], max(10, cfg.probes // 4))
    res.metrics["hs_bound"] = M
    in_fam, out_fam = sysq.input_fam, sysq.output_fam
    # Every probe is applied once, and each probe's norms are taken once;
    # the estimates on unshifted probes all read these.
    ys = sysq.apply_all(probes)
    in0, out0 = in_fam.past_norms(probes, 0.0), out_fam.past_norms(ys, 0.0)
    in_b, out_b = in_fam.bounding_norms(probes), out_fam.bounding_norms(ys)

    # Pointwise Cauchy-Schwarz chain and the windowed estimates.
    t0 = grid.index_of(0.0)
    worst_ratio = estimate_npower(in0, np.max(np.abs(
        ys.samples[:, : t0 - grid.i0, 0]), axis=1).tolist(), N)
    # Each instant applies its own shifted probes: the spread claims that
    # these separate applications agree.
    ests = [estimate_npower(in0, out_fam.past_norms(
        centered_truncations(sysq, t, probes), 0.0), N)
            for t in (-1.0, 0.0, 1.0)]
    res.metrics["windowed_estimates"] = ests
    res.metric("windowed_max", max(ests), "<=", M * (1.0 + 1e-9))
    # Time invariance, exactly.
    res.check("windowed_spread", max(ests) - min(ests), "==", 0.0)

    # Global norm never exceeds the matched windowed suprema.
    glob = estimate_npower(in_b, out_b, N)
    matched = 0.0
    for u, y in zip(probes, ys):  # at the first right end of largest norm
        t_star = (grid.i0 + max(int(np.argmax(
            out_fam.past_norms_all_t(y))), 1)) * dt
        matched = max(matched, estimate_npower(in_fam.past_norms(
            [u], t_star), out_fam.past_norms([y], t_star), N))
    res.metrics["matched_windowed_supremum"] = matched
    res.metric("global_estimate", glob, "<=", matched * (1.0 + 1e-9))

    # Homogeneity of the estimate under output scaling.
    base = estimate_npower(in0, out0, N)
    for c in (0.5, 2.0):
        est_c = estimate_npower(
            in0, out_fam.past_norms(c * ys, 0.0), N)
        res.check(f"homogeneity_gap[c={c}]", abs(est_c - c * base),
                  "<=", 1e-12 * max(1.0, est_c))

    # Zero operator.
    zero_est = estimate_npower(
        in_b, out_fam.bounding_norms(0.0 * ys), N)
    res.check("zero_operator_estimate", zero_est, "==", 0.0)

    # Uniformity across window instants (the standing boundedness hypothesis).
    uni = hypothesis_uniformity_check(sysq, (-0.5, 0.0, 0.5), probes[:6], N)
    res.metrics["uniform_bound"] = uni["uniform_bound"]
    res.metrics["modulus_bound"] = uni["modulus_bound"]
    res.check("time_invariant_consistent", uni["time_invariant_consistent"],
              "==", True)

    # Centered and uncentered windowed estimates agree exactly; uncentered,
    # each shifted probe is applied and re-windowed to (-inf, t].
    t = 0.5
    cen = out_fam.past_norms(centered_truncations(sysq, t, probes[:5]), 0.0)
    ys_t = [sysq.apply(shift_left(u, -t)) for u in probes[:5]]
    gaps = np.subtract(cen, out_fam.past_norms(
        [y.with_window(y.grid.i0, y.grid.index_of(t)) for y in ys_t], t))
    res.metrics["centered_equals_uncentered"] = res.check(
        "centered_minus_uncentered", float(np.max(np.abs(gaps))), "==", 0.0)
    res.metrics["per_point_ratio_bound_ok"] = res.check(
        "per_point_ratio", worst_ratio, "<=", M * (1.0 + 1e-9))


def exp_symmetrize(cfg: RunConfig, res: ExperimentResult) -> None:
    """symmetrizing kernels never changes the operator; the index reindexing
    identity and the six-symbol permutation tables check out entry by
    entry"""
    dt = max(cfg.dt, 0.01)

    # Operator invariance for a deliberately asymmetric degree-2 kernel.
    S = 1.0
    asym = PolyKernel(2, S, func=lambda a, b:
                      np.exp(-2.0 * np.asarray(a) - np.asarray(b)))
    g = Grid.spanning(dt, -1.0, 1.0)
    probes = probe_set(g, cfg.seed + 81, count=6, tails=False)
    rep = check_symmetrization_properties(asym, probes, dt, rng=cfg.rng(82))
    res.metric("asym_operator_max_diff", rep["operator_invariance_max_diff"],
               "<=", 1e-9)
    res.metric("reindexing_max_diff", rep["reindexing_max_diff"], "<=", 1e-10)

    # Separable kernel: same invariance at tighter tolerance.
    sep = PolyKernel(2, S, func=lambda a, b:
                     np.exp(-np.asarray(a)) * (1.0 + np.asarray(b)) *
                     np.exp(-np.asarray(b)))
    rep2 = check_symmetrization_properties(sep, probes, dt, rng=cfg.rng(83))
    res.metric("separable_operator_max_diff",
               rep2["operator_invariance_max_diff"], "<=", 1e-12)

    # Degree-3 asymmetric kernel on a small lag box.
    dt3 = max(dt, 0.05)
    asym3 = PolyKernel(3, 0.3, func=lambda a, b, c: np.exp(
        -2.0 * np.asarray(a) - np.asarray(b) - 0.5 * np.asarray(c)))
    g3 = Grid(dt3, -10, 10)
    probes3 = probe_set(g3, cfg.seed + 85, count=4, tails=False)
    rep3 = check_symmetrization_properties(asym3, probes3, dt3,
                                           rng=cfg.rng(86))
    res.metric("asym3_operator_max_diff", rep3["operator_invariance_max_diff"],
               "<=", 1e-9)
    res.check("asym3_reindexing_max_diff", rep3["reindexing_max_diff"],
              "<=", 1e-10)

    # Two-term average of the simplest asymmetric kernel.
    lin = PolyKernel(2, S, func=lambda a, b: np.asarray(a) + 0.0 * np.asarray(b))
    lin_s = symmetrize(lin)
    xs = np.array([0.1, 0.3, 0.7])
    got = lin_s.func(xs[:, None], xs[None, :])
    want = 0.5 * (xs[:, None] + xs[None, :])
    res.metric("two_term_max_err", float(np.max(np.abs(got - want))),
               "==", 0.0)

    # Idempotence on grids.
    K = asym.grid_values(dt)
    from .kernel import _symmetrized_array
    K1 = _symmetrized_array(K, 2)
    K2 = _symmetrized_array(K1, 2)
    res.metric("idempotent_max_err", float(np.max(np.abs(K1 - K2))),
               "<=", 1e-15)

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
    res.metric("six_term_max_err", worst, "<=", 1e-14)

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
    got_tbls, want_tbls, rows_out = {}, {}, []
    for pim, want_tbl in expected.items():
        table = permutation_change_of_variables(Permutation(pim), rho)
        got_tbls[pim] = (table["pi_rho_inverse"], table["identity_holds"],
                         [(r["k"], r["pi_rho_inv"], r["sigma_symbol"],
                           r["tau_pi"]) for r in table["rows"]])
        want_tbls[pim] = (want_tbl["pi_rho_inverse"], True,
                          [(k, pr, sym, sym) for k, pr, sym in want_tbl["rows"]])
        for r, (k, _, _) in zip(table["rows"], want_tbl["rows"]):
            rows_out.append({"pi": str(pim), "k": k,
                             "pi_rho_inv": r["pi_rho_inv"],
                             "symbol": r["sigma_symbol"]})
    res.metrics["permutation_tables_ok"] = res.check(
        "permutation_tables", got_tbls, "==", want_tbls)
    res.tables["permutation_rows"] = rows_out


def exp_kernel_identify(cfg: RunConfig, res: ExperimentResult) -> None:
    """scaling plus indicator probing recovers symmetrized-kernel cell
    averages through the inclusion-exclusion ladder; recovery is a fixed
    point and is unique across kernel descriptions"""
    dt = cfg.dt
    qb = catalog.system("quadratic-volterra", dt)
    sysq = qb.system
    S = 2.0
    sigma = S + 0.25
    gq = Grid.spanning(dt, -1.0, sigma)
    past = _random_probes(gq, [cfg.seed, 91], 1)[0]

    def oracle(ker, p):
        """The response at sigma of ``ker``'s operator after the past ``p``
        (at 0) to a future input on ``(0, sigma]``."""
        st = NaturalState(PolyIntegralOperator(
            [ker], 0.0, sysq.input_fam, sysq.output_fam), p, 0.0)
        return lambda v: float(st.evaluate_at(v, [gq.i1])[0, 0])

    # Probing width: the cell count nearest a quarter second, at least four.
    delta = max(4, round(0.25 / dt)) * dt
    cell_list = kernel_mod.default_cell_lattice(dt, delta, 5 * delta,
                                                width=delta)
    tuples2 = [(a, b) for i, a in enumerate(cell_list)
               for b in cell_list[i:]]
    ident = identify_kernels(oracle(sysq.kernels[2], past), dt, sigma, 2,
                             {2: tuples2},
                             tail_bounds={2: sysq.kernels[2].tail_abs_mass(
                                 dt, sigma)})
    got = np.array(ident["degrees"][2]["values"])

    def cell_avg(c1, c2):
        f = lambda lo, hi: math.exp(-lo) - math.exp(-hi)
        return f(*c1) * f(*c2) / (delta * delta)

    want = np.array([cell_avg(a, b) for (a, b) in tuples2])
    rel = np.abs(got - want) / np.abs(want)
    tol = 2.0 * dt / delta
    res.metrics["tolerance"] = tol
    res.metrics["vandermonde_cond"] = ident["vandermonde_cond"]
    res.metric("max_rel_error", float(np.max(rel)), "<=", tol)
    res.tables["cells"] = [
        {"cell": str(tp), "recovered": float(gv), "expected": float(wv),
         "rel_err": float(rv)}
        for tp, gv, wv, rv in zip(tuples2, got, want, rel)]

    # Re-identification of the piecewise-constant rebuild is a fixed point.
    rebuilt = kernel_from_cells(2, tuples2, got.tolist(), S, dt)
    res2 = identify_kernels(oracle(rebuilt, 0.0 * past), dt, sigma, 2,
                            {2: tuples2})
    got2 = np.array(res2["degrees"][2]["values"])
    res.metric("reidentify_max_err", float(np.max(np.abs(got2 - got))),
               "<=", 1e-9 * max(1.0, float(np.max(np.abs(got)))))

    # Zero system recovers zeros.
    res0 = identify_kernels(lambda v: 0.0, dt, sigma, 2,
                            {1: [(c,) for c in cell_list], 2: tuples2[:3]})
    for deg in (1, 2):
        res.check(f"zero_system_degree{deg}",
                  max(abs(x) for x in res0["degrees"][deg]["values"]),
                  "==", 0.0)

    # Two descriptions of one operator give one symmetrized kernel.
    asym = PolyKernel(2, S, func=lambda a, b: np.where(
        (np.asarray(a) <= S) & (np.asarray(b) <= S),
        np.exp(-1.5 * np.asarray(a) - 0.5 * np.asarray(b)), 0.0))
    for ker_desc, tag in ((asym, "raw"), (symmetrize(asym), "symmetrized")):
        resa = identify_kernels(oracle(ker_desc, 0.0 * past), dt, sigma, 2,
                                {2: tuples2[:4]})
        res.metrics[f"uniqueness_{tag}"] = resa["degrees"][2]["values"]
    u_raw = np.array(res.metrics["uniqueness_raw"])
    u_sym = np.array(res.metrics["uniqueness_symmetrized"])
    res.metric("uniqueness_gap", float(np.max(np.abs(u_raw - u_sym))),
               "<=", 1e-9)

    # Contamination from mass beyond the probe instant is reported, and the
    # spurious low-degree response stays inside the reported bound.
    wide = PolyKernel(2, 3.0, func=lambda a, b: np.where(
        (np.asarray(a) <= 3.0) & (np.asarray(b) <= 3.0),
        np.exp(-(np.asarray(a) + np.asarray(b))), 0.0))
    pw = _random_probes(Grid.spanning(dt, -2.0, sigma), [cfg.seed, 92], 1)[0]
    resw = identify_kernels(
        oracle(wide, pw), dt, sigma, 2, {1: [(c,) for c in cell_list[:2]]},
        tail_bounds={2: wide.tail_abs_mass(dt, sigma)},
        input_bound=2.0)
    bound = resw["degrees"][1]["residual_bound"]
    spurious = max(abs(v) * delta for v in resw["degrees"][1]["values"])
    res.metric("contamination_bound", bound, ">", 0.0)
    res.metric("spurious_degree1_mass", spurious, "<=", bound * (1.0 + 1e-6))


def exp_reachability(cfg: RunConfig, res: ExperimentResult) -> None:
    """finite memory reaches states exactly after one memory length; tapered
    families reach them to tolerance with a closed-form drive time; the
    untapered sup family is refused and its level classes stay one apart
    under any drive"""
    dt = cfg.dt
    futures = future_probes(dt, 2.0, cfg.seed + 101, count=max(8, cfg.futures // 2))
    futures = TimeFunction.stack([0.0 * futures[0]] + futures)

    rb = catalog.system("reachable-conv", dt)
    g = rb.grid(dt)
    src = _random_probes(g, [cfg.seed, 102], 1)[0]
    tgt = _random_probes(g, [cfg.seed, 103], 1)[0]
    fin = reachability_experiment(rb.system, src, tgt, rb.system.input_fam,
                                  futures, eps=0.05)
    res.metrics["finite_memory"] = fin
    res.check("finite_memory_exact", fin.get("exact"), "==", True)

    fb = catalog.system("fading-conv", dt)
    gf = fb.grid(dt)
    srcf = _random_probes(gf, [cfg.seed, 104], 1)[0]
    tgtf = _random_probes(gf, [cfg.seed, 105], 1)[0]
    tap = reachability_experiment(fb.system, srcf, tgtf, fb.system.input_fam,
                                  futures, eps=0.05, c=1.0)
    res.metrics["tapered"] = tap
    res.check("tapered_achieved", tap.get("achieved"), "==", True)

    one, _ = catalog.averager_pair(dt)
    ga = one.grid(dt)
    u1 = _random_probes(ga, [cfg.seed, 106], 1, tail_levels=(1.0,))[0]
    w2 = _random_probes(ga, [cfg.seed, 107], 1, tail_levels=(2.0,))[0]
    ref = reachability_experiment(one.system, w2, u1, one.system.input_fam,
                                  futures)
    res.metrics["refusal"] = ref
    res.check("refusal_reason_code", ref.get("reason_code"), "==",
              "family_not_tapered")
    # Separation persists under any drive: the eventual level survives splices.
    drives = (1.0, 2.0, 3.0)
    driven = [splice(shift_left(w2, D), u1, -D) for D in drives]
    dists = state_distances([NaturalState(one.system, d, 0.0) for d in driven],
                            [NaturalState(one.system, u1, 0.0)], 2, futures)
    persist_rows = [{"drive_seconds": D,
                     "tail_preserved": float(past.tail_value[0]) == 2.0,
                     "distance": row[0]}
                    for D, past, row in zip(drives, driven, dists)]
    res.check("tails_lost", sum(not r["tail_preserved"] for r in persist_rows),
              "==", 0)
    res.metric("persistence_min_distance",
               min(r["distance"] for r in persist_rows), ">=", 1.0 - 1e-9)
    res.tables["persistence"] = persist_rows


def exp_state_set_identity(cfg: RunConfig, res: ExperimentResult) -> None:
    """with a tapered input family the matching ladder pins the system down
    from its state set; the untapered averager pair shares its state set
    while the systems differ, and the failed premise is reported"""
    dt = cfg.dt
    futures = future_probes(dt, 2.0, cfg.seed + 111, count=10)
    futures = TimeFunction.stack([0.0 * futures[0]] + futures)

    # Identical systems, trivial matching.
    one, two = catalog.averager_pair(dt)
    ga = one.grid(dt)
    u = _random_probes(ga, [cfg.seed, 112], 1, tail_levels=(1.0,))[0]
    triv = state_matching_ladder(one.system, one.system, u, 1.0, 3,
                                 lambda uu, tau: uu, futures)
    res.metric("trivial_final_gap", triv["final_output_gap_at_T"], "==", 0.0)

    # Same dynamics written twice; matching via controllability steering.
    from .sysop import LTISystem
    fam_in = catalog.family("exp-l2")
    fam_out = catalog.family("esssup")
    A = [[0.0, 1.0], [-1.0, -0.6]]
    B = [[0.0], [1.0]]
    s1 = LTISystem(A, B, fam_in, fam_out)
    s2 = LTISystem(A, B, fam_in, fam_out)
    gl = Grid.spanning(dt, -8.0, 2.0)
    ul = _random_probes(gl, [cfg.seed, 113], 1)[0]

    y2 = s2.apply(ul)  # the ladder matches the states of ul itself
    match = lambda uu, tau: steer_to_state(s1, y2.value(tau), tau, 2.0, gl)

    T = 0.0
    lad = state_matching_ladder(s1, s2, ul, T, 4, match, futures,
                                match_tol=1e-6)
    res.metric("lti_ladder_final_gap", lad["final_output_gap_at_T"],
               "<=", 1e-9)
    # The taper bound of each row, |v_i - u|_T <= |c_i 1_(-inf, tau_i]|_T,
    # c_i (int_{T - tau_i}^inf w)^(1/p) off the grid: the factor falls to 0.
    gaps = [r["input_gap_at_T"] for r in lad["rows"]]
    res.metrics["lti_ladder_input_gaps"] = gaps
    for r, gap, bound in zip(lad["rows"], gaps, lad["input_gap_bounds"]):
        res.check(f"lti_ladder_input_gap[{r['i']}]", gap, "<=", bound)
    res.check("lti_ladder_taper_factors",
              [fam_in.weight.integral(T - r["tau"], math.inf) ** (1 / fam_in.p)
               for r in lad["rows"]], "decreasing within", 0.0)
    res.metric("lti_matches_ok", all(r["match_ok"] for r in lad["rows"]),
               "==", True)
    res.check("lti_taper_hypothesis_met", lad["taper_hypothesis_met"],
              "==", True)

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
        [[cross, same]] = state_distances([st1], [st2, st1b], 2, futures)
        min_cross = min(min_cross, cross)
        max_same = max(max_same, same)
        rows.append({"target": str(x.round(3).tolist()),
                     "cross_distance": cross, "same_distance": same})
    res.metric("min_cross_distance", min_cross, ">", 1e-3)
    res.metric("max_same_distance", max_same, "<=", 1e-8)

    # The averager pair: same states, different systems; the ladder's taper
    # premise fails and so does the conclusion.  Realizing the double-gain
    # system's state inside the single-gain system doubles the level.
    T_avg = one.params["response_support"]

    def match_avg(uu, tau):
        return _level_match(uu, tau, T_avg, 2.0 * float(uu.tail_value[0]))

    neg = state_matching_ladder(one.system, two.system, u, 1.0, 3,
                                match_avg, futures)
    res.metric("negative_final_gap", neg["final_output_gap_at_T"], ">=", 0.5)
    res.metric("negative_matches_ok", all(r["match_ok"] for r in neg["rows"]),
               "==", True)
    res.metric("negative_taper_met", neg["taper_hypothesis_met"], "==", False)
    # The premise of each row's taper bound: v_i - u vanishes after tau_i.
    for name, ladder in (("lti_ladder", lad), ("negative_ladder", neg)):
        for r, gap in zip(ladder["rows"], ladder["premise_gaps"]):
            res.check(f"{name}_premise[{r['i']}]", gap, "==", 0.0)
    res.tables.update(lti_ladder=lad["rows"], negative_ladder=neg["rows"],
                      vector_targets=rows)


def exp_state_bounds(cfg: RunConfig, res: ExperimentResult) -> None:
    """every state inherits the system's weighted bound through the binomial
    splice chain, with zero violations, and evaluations ignore the past
    beyond the state instant"""
    dt = cfg.dt
    futures = TimeFunction.stack(future_probes(
        dt, 1.5, cfg.seed + 121, count=max(20, cfg.bound_probes)))
    total_probes = 0
    for name, n_states in (("quadratic-volterra", 2), ("averager-1x", 2)):
        b = catalog.system(name, dt)
        g = b.grid(dt)
        pasts = _random_probes(g, [cfg.seed, 122, _salt(name)], n_states,
                               tail_levels=(0.0,) if "quad" in name else (1.0,))
        for si, past in enumerate(pasts):
            st = NaturalState(b.system, past, 0.0)
            rep = state_bound_check(st, 2, futures)
            total_probes += len(futures)
            key = f"{name}[{si}]"
            res.metrics[key] = {"bound": rep["bound"],
                                "max_ratio": rep["max_ratio"],
                                "violations": len(rep["violations"])}
            res.check(f"violations[{key}]", len(rep["violations"]), "==", 0)
            res.check(f"continuity_failures[{key}]",
                      sum(not c["ok"] for c in rep["continuity"]), "==", 0)
            # Representative independence rides along.
            res.check(f"representative_dependence[{key}]",
                      representative_independence(st, futures[:4],
                                                  rng=cfg.rng(123)),
                      "==", 0.0)
    res.metrics["probes_checked"] = total_probes


def exp_frechet(cfg: RunConfig, res: ExperimentResult) -> None:
    """analytic differentials beat finite differences at first order; state
    differentials never exceed the system's, remainders die linearly, and
    the past-to-state derivative obeys the power-factor bound on matched
    probes"""
    dt = cfg.dt
    # Linear systems: zero remainder, differential is the map itself.
    for name in ("integrator", "averager-1x"):
        b = catalog.system(name, dt)
        g = b.grid(dt)
        u, v = _random_probes(g, [cfg.seed, 131, _salt(name)], 2)
        fp = frechet_of(b.system)
        w = fp.W(u, v)
        l_gap = float(np.max(np.abs(
            (fp.L(u, v) - b.system.apply(v)).samples)))
        res.metric(f"{name}_remainder", float(np.max(np.abs(w.samples))),
                   "==", 0.0)
        res.metric(f"{name}_linear_gap", l_gap, "==", 0.0)

    qb = catalog.system("quadratic-volterra", dt)
    sysq = qb.system
    gq = qb.grid(dt)
    M = catalog.hilbert_schmidt_bound(sysq, dt)
    fpq = frechet_of(sysq)
    u, v = _random_probes(gq, [cfg.seed, 132], 2)
    out_norm = sysq.output_fam.bounding_norm
    in_norm = sysq.input_fam.bounding_norm

    # Remainder controlled by the kernel constant.
    wv = fpq.W(u, v)
    ratio = out_norm(wv) / in_norm(v)
    res.metrics["quadratic_remainder_bound"] = M * in_norm(v)
    res.metric("quadratic_remainder_ratio", ratio,
               "<=", M * in_norm(v) * (1.0 + 1e-9))

    # Decay sweep and the directional finite difference.
    rows = remainder_decay(fpq.W, u, v, out_norm, in_norm)
    ratios = [r["ratio"] for r in rows]
    res.metrics["remainder_decay_final_over_initial"] = ratios[-1] / ratios[0]
    res.check("remainder_decay", ratios, "decays to", 0.1)
    res.tables["remainder_decay"] = rows
    fd = fd_directional_order(sysq, fpq, u, v, out_norm,
                              [0.5 ** k for k in range(2, 8)])
    res.metrics["directional_fd_order"] = fd["order"]
    if not fd["exact"]:  # an exact differential leaves no order to fit
        res.check("directional_fd_order", fd["order"], ">=", 0.9)

    # Additivity and homogeneity of the differential slot.
    w2 = _random_probes(gq, [cfg.seed, 133], 1)[0]
    add_gap = float(np.max(np.abs(
        (fpq.L(u, v + w2) - fpq.L(u, v) - fpq.L(u, w2)).samples)))
    hom_gap = float(np.max(np.abs(
        (fpq.L(u, 2.5 * v) - 2.5 * fpq.L(u, v)).samples)))
    res.metric("L_additivity_gap", add_gap, "<=", 1e-10)
    res.metric("L_homogeneity_gap", hom_gap, "<=", 1e-10)

    # State-level differential: norm never grows, finite differences agree.
    pastq = _random_probes(gq, [cfg.seed, 134], 1)[0]
    st = NaturalState(sysq, pastq, 0.0)
    sf = state_frechet(st, fpq)
    futs = future_probes(dt, qb.horizon, cfg.seed + 135, count=8)
    vv, ww = futs[1], futs[2]
    fut_in = lambda f: sysq.input_fam.future_norm(f, 0.0)
    fut_out = lambda y: sysq.output_fam.future_norm(y, 0.0)
    est_state = 0.0
    est_sys = 0.0
    zero_past = 0.0 * pastq
    a = st.spliced_input(vv)
    for w_dir in futs[3:]:
        bdir = splice(zero_past, w_dir, 0.0)
        y = fpq.L(a, bdir)  # recentred, the state differential sf.L(vv, w_dir)
        est_state = max(est_state, fut_out(recenter(y, 0.0)) / fut_in(w_dir))
        est_sys = max(est_sys, out_norm(y) / in_norm(bdir))
    res.metrics["system_diff_norm"] = est_sys
    res.metric("state_diff_norm", est_state, "<=", est_sys * (1.0 + 1e-9))

    h = 1e-3
    fd_state = (st.evaluate(vv + h * ww) - st.evaluate(vv)) * (1.0 / h)
    gap = fut_out(fd_state - sf.L(vv, ww))
    res.metric("state_fd_gap", gap, "<=", 10.0 * h)

    # Past-to-state differential: refusal without unbounded comparison span,
    # vanishing remainder and the splice-power bound with it.
    fam_exp = catalog.family("exp-l2")
    clone = PolyIntegralOperator(list(sysq.kernels.values()), 0.0,
                                 fam_exp, sysq.output_fam)
    refuse = input_to_state_frechet(clone, 0.0, fpq)
    res.metric("alpha_refusal", refuse.get("reason_code"),
               "==", "alpha_not_infinite")

    # State-level remainder decays like the system's.
    state_rows = remainder_decay(sf.W, vv, ww, fut_out, fut_in)
    sr = [r["ratio"] for r in state_rows]
    res.metrics["state_remainder_final_over_initial"] = sr[-1] / sr[0]
    res.check("state_remainder_decay", sr, "decays to", 0.1)

    s_pair = input_to_state_frechet(sysq, 0.0, fpq)
    res.check("past_to_state_refused", s_pair["refused"], "==", False)
    Lam, Om = s_pair["Lambda"], s_pair["Omega"]
    vpast = _random_probes(gq, [cfg.seed, 136], 1)[0]
    lam_gap = float(np.max(np.abs(
        (Lam(pastq, 2.0 * vpast, ww) - 2.0 * Lam(pastq, vpast, ww)).samples)))
    res.metric("lambda_homogeneity_gap", lam_gap, "<=", 1e-10)
    om_rows = [r["ratio"] for r in remainder_decay(
        lambda p, q: Om(p, q, ww), pastq, vpast, fut_out,
        lambda q: sysq.input_fam.past_norm(q, 0.0))]
    res.metrics["omega_ratio_first_last"] = [om_rows[0], om_rows[-1]]
    if om_rows[0] > 0:  # a zero Omega has nothing to decay
        res.check("omega_decay", om_rows, "decays to", 0.1)

    N = 2
    est_S = 0.0
    est_F_matched = 0.0
    pasts = _random_probes(gq, [cfg.seed, 137], 4)
    for pu in pasts:
        chain = state_bound_check(NaturalState(sysq, pu, 0.0), N, futs[:5])
        est_S = max(est_S, chain["max_ratio"]
                    / (1.0 + sysq.input_fam.past_norm(pu, 0.0) ** N))
        est_F_matched = max(est_F_matched, chain["estimate"])
    res.metrics["matched_system_norm"] = est_F_matched
    res.metrics["power_factor"] = 2 ** N + 1
    res.metric("past_to_state_norm", est_S,
               "<=", (2 ** N + 1) * est_F_matched * (1.0 + 1e-9))

    # Equivalent pasts give the same differential samples.
    st_alt = NaturalState(sysq, edited_after(pastq, gq.index_of(0.0),
                                             cfg.rng(138)), 0.0)
    sf_alt = state_frechet(st_alt, fpq)
    nerode_gap = float(np.max(np.abs(
        (sf.L(vv, ww) - sf_alt.L(vv, ww)).samples)))
    res.metric("nerode_gap", nerode_gap, "==", 0.0)


def exp_shift_derivative(cfg: RunConfig, res: ExperimentResult) -> None:
    """piecewise-linear inputs are shift differentiable with the advertised
    cubic residual; smooth inputs decay at first order with the curvature
    constant; jumps are refused"""
    dt = 1e-3  # pinned: the residual numbers are quoted at this resolution
    fam = catalog.family("uniform-l2")
    g = Grid.spanning(dt, -2.0, 12.0)
    trap = SmoothInput.trapezoid()
    sd = shift_derivative(trap, g, fam)
    # One residual per step of the decaying sweep; the first three are quoted.
    hs = [0.25 * 0.5 ** k for k in range(DECAY_STEPS)]
    norms = [sd.residual_norm(h) for h in hs]
    rows = []
    for h, norm in zip(hs[:3], norms):
        got = norm ** 2
        want = 4.0 * h ** 3 / 3.0
        rel = abs(got - want) / want
        rows.append({"h": h, "norm_sq": got, "expected": want, "rel_err": rel})
        res.check(f"residual_sq_rel_err[h={h}]", rel, "<=", 0.02)
    res.metrics["residual_sq_rows"] = rows
    res.tables["trapezoid"] = rows

    ratio = sd.residual_norm(0.01) / 0.01
    expected = 2.0 / math.sqrt(3.0) * math.sqrt(0.01)
    res.metrics["ratio_at_0p01"] = ratio
    res.metrics["ratio_expected"] = expected
    res.check("ratio_at_0p01_rel_err", abs(ratio - expected) / expected,
              "<=", 0.05)

    rr = [norm / h for h, norm in zip(hs, norms)]
    res.metrics["sweep_final_over_initial"] = rr[-1] / rr[0]
    res.check("sweep_decay", rr, "decays to", 0.1)

    # Uniform-in-s variant along descending h.
    ts = [-1.0, 0.0, 5.0, 11.5]
    uni = [sd.uniform_ratio(h, ts) for h in (0.2, 0.1, 0.05)]
    res.metrics["uniform_ratios"] = uni
    res.check("uniform_ratio[h=0.05]", uni[2], "<=", uni[0])

    # Constants are their own shifts.
    const = shift_derivative(SmoothInput.constant(3.0), g, fam)
    res.metric("constant_residual", const.residual_norm(0.1), "==", 0.0)

    # Smooth input: second-order residual with the curvature constant.
    g2 = Grid.spanning(dt, 0.0, 2.0)
    sine = SmoothInput.sine(freq=0.5)
    sd2 = shift_derivative(sine, g2, fam)
    w = 2.0 * math.pi * 0.5
    span = g2.t_end - g2.t_start
    for h in (0.05, 0.025):
        bound = 0.5 * h * (w ** 2) * math.sqrt(span)
        res.check(f"sine_ratio[h={h}]", sd2.residual_norm(h, t=g2.t_end) / h,
                  "<=", bound * (1.0 + 1e-6))
    res.metrics["sine_ratio_at_0p025"] = sd2.residual_norm(0.025) / 0.025

    # Jumps are refused.
    try:
        shift_derivative(SmoothInput.boxcar(), g, fam)
        refused = False
    except ValueError as e:
        refused = "jump_discontinuity" in str(e)
    res.metric("jump_refused", refused, "==", True)


def exp_trajectory_derivative(cfg: RunConfig, res: ExperimentResult) -> None:
    """state trajectories of the time-invariant operator differentiate with
    first-order finite-difference convergence; constants freeze the
    trajectory, the integrator recovers its input level, and time-varying
    trajectories are refused"""
    dt = cfg.dt
    qb = cfg.get_system(cfg.system or "quadratic-volterra")
    sysq = qb.system
    gq = qb.grid(dt)
    src = SmoothInput.sine(freq=0.25, amp=0.8)
    td = trajectory_derivative(sysq, src, 0.0, gq)
    if isinstance(td, dict) and td.get("refused"):
        # A correctly refused target (time varying, or jumps) is reported
        # as such; the convergence claims then do not apply.
        res.claim = ("the selected system does not admit the derivative "
                     "route and is refused with a machine-readable reason")
        res.metrics["refusal"] = td
        return
    v = _random_probes(Grid.spanning(dt, 0.0, qb.horizon), [cfg.seed, 151], 1)[0]
    sweep = td.fd_check(v, h0=32 * dt)
    res.metric("fd_order", sweep["order"], "within", (0.8, 1.2))
    res.tables["fd_sweep"] = sweep["rows"]

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
        res.metrics["closed_form_tol"] = tol
        res.metric("closed_form_gap", gap, "<=", tol)

    # Constant past: the trajectory is frozen.
    const = SmoothInput.constant(0.4)
    td0 = trajectory_derivative(sysq, const, 0.0, gq)
    d0 = td0(v)
    res.metric("constant_derivative_max", float(np.max(np.abs(d0.samples))),
               "==", 0.0)
    st_a = NaturalState(sysq, const.sample(gq), 0.0)
    st_b = NaturalState(sysq, const.sample(gq, shift=0.37), 0.0)
    frozen_gap = float(np.max(np.abs(
        (st_a.evaluate(v) - st_b.evaluate(v)).samples)))
    res.metric("frozen_trajectory_gap", frozen_gap, "==", 0.0)

    # Integrator with a ramp past: the derivative is the current input level.
    ib = catalog.system("integrator", dt)
    gi = ib.grid(dt)
    ramp = SmoothInput.ramp(0.0)
    t_eval = 1.5
    tdi = trajectory_derivative(ib.system, ramp, t_eval, gi)
    di = tdi(v)
    expect = t_eval  # ramp level at the evaluation instant
    gap_i = float(np.max(np.abs(di.samples - expect)))
    res.metric("integrator_ramp_gap", gap_i, "<=", 1e-9)

    # Time-varying refusal.
    tvb = catalog.system("quadratic-volterra-tv", dt)
    ref = trajectory_derivative(tvb.system, src, 0.0, tvb.grid(dt))
    res.metrics["tv_refusal"] = (ref.get("reason_code")
                                 if isinstance(ref, dict) else None)
    res.check("tv_refused", isinstance(ref, dict) and ref["refused"],
              "==", True)

    # Equivalent pasts: a source altered strictly after the state instant
    # yields identical derivative evaluations.
    def altered_u(t_arr):
        t_arr = np.asarray(t_arr, dtype=float)
        return np.where(t_arr > 0.0, src.u(t_arr) + 2.0, src.u(t_arr))

    src_alt = SmoothInput(altered_u, src.d)
    td_alt = trajectory_derivative(sysq, src_alt, 0.0, gq)
    gap_nerode = float(np.max(np.abs((td_alt(v) - td(v)).samples)))
    res.metric("nerode_gap", gap_nerode, "==", 0.0)


def exp_taper(cfg: RunConfig, res: ExperimentResult) -> None:
    """closed-form taper windows match their defining inequality on bounded
    probes; finite memory tapers at its own length; the sup family never
    tapers, witnessed by an arbitrarily old spike"""
    dt = cfg.dt
    fam = catalog.family("exp-l2")
    d = taper_delta(fam, 0.1, 1.0)
    expected = math.log(1.0 / (0.1 ** 2))
    res.metrics["exp_delta"] = d
    res.metrics["exp_delta_expected"] = expected
    res.check("exp_delta_error", abs(d - expected), "<=", 1e-9)
    g = Grid.spanning(dt, -8.0, 0.0)
    probes = probe_set(g, cfg.seed + 161, count=12, tails=True)
    cert = taper_certificate(fam, d, 0.1, 1.0, probes, 0.0)
    res.metrics["certificate"] = cert
    res.check("certified", cert["certified"], "==", True)

    box_fam = catalog.family("box-l2")
    res.metric("box_delta", taper_delta(box_fam, 0.01, 5.0),
               "==", box_fam.weight.support)

    sup_fam = catalog.family("sup-linf")
    res.metric("sup_delta", taper_delta(sup_fam, 0.1, 1.0), "==", None)
    # Far-past spike: the gap never falls below the spike height.
    spike_vals = np.zeros((g.n, 1))
    spike_vals[2] = 1.0
    spike = TimeFunction(g, spike_vals, np.zeros(1))
    gaps = []
    for delta in (1.0, 3.0, 6.0):
        gaps.append(sup_fam.past_norm(spike, 0.0)
                    - sup_fam.seminorm(spike, Interval(-delta, 0.0)))
    res.metrics["spike_gaps"] = gaps
    res.check("min_spike_gap", min(gaps), ">=", 1.0)
    res.metric("classes", {n: classify(catalog.family(n))["class"]
                           for n in ("sup-linf", "uniform-l2", "exp-l2",
                                     "box-l2")},
               "==", {"sup-linf": "neither", "uniform-l2": "neither",
                      "exp-l2": "tapered", "box-l2": "finite_memory"})


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


def claim(name: str) -> str:
    """The claim of experiment ``name``: its docstring on one line."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}") from None
    return " ".join((fn.__doc__ or "").split())


def run_experiment(name: str, cfg: RunConfig) -> ExperimentResult:
    """Run experiment ``name`` on ``cfg``; it passes when every check does."""
    res = ExperimentResult(name, claim(name))
    EXPERIMENTS[name](cfg, res)
    return res

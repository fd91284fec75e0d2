"""Derivatives: of operators, of states, and along state trajectories.

Every derivative here is analytic per operator variant (linear operators are
their own derivative; polynomial ones differentiate term by term, each term
being the operator's own multilinear contraction with distinct inputs in its
slots, at every degree and for time-varying kernels too), and every claim is
validated against an independent finite-difference oracle.  Limit
statements become decaying-ratio sweeps along geometric step sequences.

Shifts by amounts smaller than the grid step arise throughout (the step
sequences deliberately descend below ``dt``), so inputs whose shifts are
taken analytically are described by callables (:class:`SmoothInput`), and
sub-grid residuals are sampled on a fixed refinement of the base lattice.
The quadrature rule itself is unchanged: right-endpoint rectangle sums at
the finer spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .seminorm import FittedFamily
from .states import NaturalState
from .sysop import LimsupConvolution, LTISystem, PolyIntegralOperator, SystemOp
from .timegrid import Grid, TimeFunction, recenter, shift_right, splice

__all__ = ["SmoothInput", "ShiftDerivative", "shift_derivative", "FrechetPair",
           "frechet_of", "remainder_decay", "fd_directional_order",
           "state_frechet", "input_to_state_frechet", "TrajectoryDerivative",
           "trajectory_derivative"]

RESIDUAL_REFINE = 16  # sub-grid sampling factor for residual norms
DECAY_STEPS = 8  # halvings in every decaying-ratio sweep


class SmoothInput:
    """Scalar input described by callables, so shifts are exact for any step.

    ``u`` is the value, ``d`` its classical derivative with the right-limit
    convention at breakpoints.  ``has_jumps`` marks genuine discontinuities,
    whose shift derivatives would involve point masses and are refused.
    """

    def __init__(self, u: Callable, d: Callable, has_jumps: bool = False):
        self.u = u
        self.d = d
        self.has_jumps = has_jumps

    def sample(self, grid: Grid, shift: float = 0.0) -> TimeFunction:
        """Grid samples of ``t -> u(t + shift)``; tail from the window start."""
        t = grid.times() + shift
        vals = np.asarray(self.u(t), dtype=float)
        tail = float(np.asarray(self.u(np.array([grid.t_start + shift]))).ravel()[0])
        return TimeFunction(grid, vals, np.array([tail]))

    def derivative_sample(self, grid: Grid) -> TimeFunction:
        """Grid samples of ``d``, as :meth:`sample` takes them of ``u``."""
        return SmoothInput(self.d, self.d).sample(grid)

    @staticmethod
    def trapezoid() -> "SmoothInput":
        """Ramp up over ``(-1, 0]``, hold one, ramp down over ``(10, 11]``."""
        r0, r1, f0, f1, level = -1.0, 0.0, 10.0, 11.0, 1.0
        slope_up = level / (r1 - r0)
        slope_dn = level / (f1 - f0)

        def u(t):
            # At unit slopes the ramps round as ``t - r0`` and ``f1 - t``.
            return np.interp(t, [r0, r1, f0, f1], [0.0, level, level, 0.0])

        def d(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros_like(t)
            out[(t > r0) & (t <= r1)] = slope_up
            out[(t > f0) & (t <= f1)] = -slope_dn
            return out

        return SmoothInput(u, d)

    @staticmethod
    def ramp(start: float = 0.0) -> "SmoothInput":
        """``max(t - start, 0)``: zero past, unit slope after ``start``."""
        return SmoothInput(
            lambda t: np.maximum(np.asarray(t, dtype=float) - start, 0.0),
            lambda t: np.where(np.asarray(t, dtype=float) > start, 1.0, 0.0))

    @staticmethod
    def sine(freq: float = 1.0, amp: float = 1.0) -> "SmoothInput":
        w = 2.0 * math.pi * freq
        return SmoothInput(lambda t: amp * np.sin(w * np.asarray(t, dtype=float)),
                           lambda t: amp * w * np.cos(w * np.asarray(t, dtype=float)))

    @staticmethod
    def constant(level: float) -> "SmoothInput":
        return SmoothInput(
            lambda t: np.full_like(np.asarray(t, dtype=float), level),
            lambda t: np.zeros_like(np.asarray(t, dtype=float)))

    @staticmethod
    def boxcar() -> "SmoothInput":
        """Unit step on ``(0, 10]``; kept only to exercise the refusal path."""
        return SmoothInput(
            lambda t: np.where((np.asarray(t) > 0.0) & (np.asarray(t) <= 10.0),
                               1.0, 0.0),
            lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            has_jumps=True)


@dataclass
class ShiftDerivative:
    """Shift derivative ``d`` with its residual evaluator.

    ``residual_norm(h, t)`` returns the norm over ``(-inf, t]`` of
    ``u(. + h) - u - h d``; the defining property is that this over ``h``
    vanishes in the limit.  Each call samples its residual afresh.
    """

    source: SmoothInput
    grid: Grid
    fam: FittedFamily
    d: TimeFunction

    def residual(self, h: float) -> TimeFunction:
        g = self.grid
        fine = Grid(g.dt / RESIDUAL_REFINE, g.i0 * RESIDUAL_REFINE,
                    g.i1 * RESIDUAL_REFINE)
        t = fine.times()
        e = (np.asarray(self.source.u(t + h)) - np.asarray(self.source.u(t))
             - h * np.asarray(self.source.d(t)))
        return TimeFunction(fine, e, np.zeros(1))

    def residual_norm(self, h: float, t: Optional[float] = None) -> float:
        e = self.residual(h)
        if t is None:
            return self.fam.bounding_norm(e)
        return self.fam.past_norm(e, t)

    def uniform_ratio(self, h: float, ts) -> float:
        """``max_{s in ts}`` of the residual ratio: the uniform-in-s variant."""
        e = self.residual(h)  # one window call per end holds the least memory
        return max(self.fam.past_norm(e, s) for s in ts) / h


def shift_derivative(source: SmoothInput, grid: Grid,
                     fam: FittedFamily) -> ShiftDerivative:
    """Classical-derivative samples plus the residual checker.

    Refuses inputs with jump discontinuities: their shift derivatives are
    point masses, outside this toolkit's function spaces.
    """
    if source.has_jumps:
        raise ValueError(
            "jump_discontinuity: shift derivative would need point masses")
    return ShiftDerivative(source, grid, fam, source.derivative_sample(grid))


# -- operator derivatives ----------------------------------------------------


@dataclass
class FrechetPair:
    """First-order expansion ``F(u + v) = F(u) + L(u, v) + W(u, v)``."""

    L: Callable[[TimeFunction, TimeFunction], TimeFunction]
    W: Callable[[TimeFunction, TimeFunction], TimeFunction]


def frechet_of(system: SystemOp) -> FrechetPair:
    """Analytic derivative pair for the shipped operator variants.

    Linear operators are their own differential with zero remainder; for
    polynomial integral operators the binomial expansion of each symmetric
    multilinear term puts the single-direction terms into ``L`` and
    everything of higher order in the direction into ``W``.
    """
    if isinstance(system, (LimsupConvolution, LTISystem)):
        def L(u, v):
            return system.apply(v)

        def W(u, v):
            return 0.0 * system.apply(v)

        return FrechetPair(L, W)
    if isinstance(system, PolyIntegralOperator):
        if system.input_dim != 1:
            raise ValueError("analytic derivative implemented for scalar inputs")
        # The term-by-term expansion below needs interchangeable slots.
        kers = sorted(system.symmetric_kernels.items())

        def expand(u, v, parts, out):
            """``out`` plus ``c`` times each term ``(c, ker, slots)`` of
            ``parts``, with ``u`` in slot 0 and ``v`` in slot 1; zero if both
            are empty.  Row ``i0`` of a term reads only the constant tails,
            so it is the output tail."""
            g = u.grid
            ys = system._terms((u, v), [p[1:] for p in parts],
                               np.arange(g.i0, g.i1 + 1))
            for (c, _, _), y in zip(parts, ys):
                term = TimeFunction(g, y[1:], y[:1]) * c
                out = term if out is None else out + term
            return 0.0 * v if out is None else out

        def L(u, v):
            return expand(u, v, [(float(n), k, [0] * (n - 1) + [1])
                                 for n, k in kers], None)

        def W(u, v):
            return expand(u, v, [(float(math.comb(n, j)), k,
                                  [0] * (n - j) + [1] * j)
                                 for n, k in kers for j in range(2, n + 1)],
                          0.0 * v)

        return FrechetPair(L, W)
    raise ValueError(f"no analytic derivative for {type(system).__name__}")


def remainder_decay(W: Callable, u: TimeFunction, v: TimeFunction,
                    out_norm: Callable[[TimeFunction], float],
                    in_norm: Callable[[TimeFunction], float]) -> list:
    """Ratios ``|W(u, c v)| / |c v|`` for ``c = 2^-k``, ``k < DECAY_STEPS``."""
    rows = []
    for k in range(DECAY_STEPS):
        c = 0.5 ** k
        w = W(u, c * v)
        rows.append({"scale": c, "ratio": out_norm(w) / in_norm(c * v)})
    return rows


def fd_directional_order(system: SystemOp, fp: FrechetPair, u: TimeFunction,
                         v: TimeFunction, out_norm: Callable,
                         hs: Sequence[float]) -> dict:
    """Log-log slope of ``|(F(u+hv) - F(u))/h - L(u,v)|`` against ``h``."""
    base = system.apply(u)
    Lv = fp.L(u, v)
    errs = []
    for h in hs:
        fd = (system.apply(u + h * v) - base) * (1.0 / h)
        errs.append(out_norm(fd - Lv))
    hs = np.asarray(hs, dtype=float)
    order, exact = _loglog_order(hs, errs)
    return {"h": hs.tolist(), "error": errs, "order": order, "exact": exact}


def _loglog_order(hs, errs) -> tuple[float, bool]:
    """Least-squares slope of log error against log step over the nonzero
    errors, and whether fewer than two are nonzero (an exact differential,
    errors at rounding level; the slope is then nan)."""
    hs, errs = np.asarray(hs, dtype=float), np.asarray(errs)
    ok = errs > 0
    if ok.sum() < 2:
        return float("nan"), True
    return float(np.polyfit(np.log(hs[ok]), np.log(errs[ok]), 1)[0]), False


# -- state-level derivatives -----------------------------------------------------


def _at_splice(D: Callable, past: TimeFunction, dpast: TimeFunction,
               future: TimeFunction, dfuture: TimeFunction,
               t: float) -> TimeFunction:
    """``D(a, b)`` recentred at ``t``: ``a`` is ``past`` spliced with the
    centered ``future`` at ``t``, the direction ``b`` is ``dpast`` spliced
    with the centered ``dfuture``."""
    a = splice(past, shift_right(future, t), t)
    b = splice(dpast, shift_right(dfuture, t), t)
    return recenter(D(a, b), t)


def state_frechet(state: NaturalState, fp: FrechetPair) -> FrechetPair:
    """Derivative of the state operator at a future input, from the system's.

    The expansion point is the spliced full input; directions are futures
    spliced onto a zero past.  The derived operator norm can never exceed
    the system differential's on matched directions, since recentering only
    shrinks the norm window.
    """
    past, t = state.past, state.t
    zero_past = 0.0 * past

    def L1(v, w):
        return _at_splice(fp.L, past, zero_past, v, w, t)

    def W1(v, w):
        return _at_splice(fp.W, past, zero_past, v, w, t)

    return FrechetPair(L1, W1)


def input_to_state_frechet(system: SystemOp, t: float, fp: FrechetPair) -> dict:
    """Derivative of the past-input-to-state map, with its two evaluators.

    Requires a uniform-weight input family (window-comparison constant 1 at
    unbounded span); otherwise small truncated-past changes do not control
    the global norm of their zero-extended splice and the construction is
    refused with a machine-readable reason.
    """
    if system.input_fam.alpha != float("inf"):
        return {"refused": True, "reason_code": "alpha_not_infinite",
                "detail": "input family must have unbounded comparison span"}

    def Lam(u, v, w):
        return _at_splice(fp.L, u, v, w, 0.0 * w, t)

    def Om(u, v, w):
        return _at_splice(fp.W, u, v, w, 0.0 * w, t)

    return {"refused": False, "Lambda": Lam, "Omega": Om}


# -- trajectory derivative ----------------------------------------------------------


@dataclass
class TrajectoryDerivative:
    """Evaluator for the time derivative of ``t -> state at t``.

    For the shipped route the system is time invariant, so the
    trajectory-shift term vanishes and the derivative is the system
    differential at the spliced input, in the direction of the past's shift
    derivative spliced with a zero future.
    """

    system: SystemOp
    source: SmoothInput
    t: float
    grid: Grid
    fp: FrechetPair

    def __call__(self, v: TimeFunction) -> TimeFunction:
        return _at_splice(self.fp.L, self.source.sample(self.grid),
                          self.source.derivative_sample(self.grid),
                          v, 0.0 * v, self.t)

    def fd_check(self, v: TimeFunction, h0: float) -> dict:
        """Compare against the trajectory finite difference.

        Steps run over ``h0 * 2^-k`` for ``k = 3 .. 10`` (skipping the
        largest shifts, which sit outside the first-order regime).  Time
        invariance turns the state at ``t + h`` into the state at ``t`` with
        the analytically shifted past, so sub-grid ``h`` is exact.
        """
        past = self.source.sample(self.grid)
        state = NaturalState(self.system, past, self.t)
        base = state.evaluate(v)
        analytic = self(v)
        out_fam = self.system.output_fam
        rows = []
        for k in range(3, 11):
            h = h0 * 0.5 ** k
            shifted = NaturalState(
                self.system, self.source.sample(self.grid, shift=h), self.t)
            fd = (shifted.evaluate(v) - base) * (1.0 / h)
            err = out_fam.future_norm(fd - analytic, 0.0)
            prev = rows[-1]["error"] if rows else None
            rows.append({"h": h, "error": err,
                         "ratio": err / prev if prev else float("nan")})
        order, exact = _loglog_order([r["h"] for r in rows],
                                     [r["error"] for r in rows])
        return {"rows": rows, "order": order, "exact": exact}


def trajectory_derivative(system: SystemOp, source: SmoothInput, t: float,
                          grid: Grid):
    """Build the trajectory-derivative evaluator, or refuse.

    Time-varying systems would need the trajectory-shift generator term,
    which no shipped system supplies.
    """
    if not system.time_invariant:
        return {"refused": True, "reason_code": "time_varying_needs_trajectory_generator",
                "detail": "only time-invariant trajectories ship a derivative"}
    if source.has_jumps:
        return {"refused": True, "reason_code": "jump_discontinuity",
                "detail": "past input is not shift differentiable"}
    return TrajectoryDerivative(system, source, t, grid, frechet_of(system))

"""Causal input-output operators and their windowed truncations.

Three concrete operators are shipped:

* :class:`LimsupConvolution` -- finite-support convolution plus a gain on the
  input's eventual level (the limit superior of ``u(t)`` as ``t -> -inf``,
  exact here because inputs carry constant tails);
* :class:`LTISystem` -- ``x' = Ax + Bu`` with full-state output, stepped by
  the exact matrix exponential of each cell (zero-order hold), computed in
  numpy by one Pade(13) approximant with scaling and squaring (``_expm``;
  Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005);
* :class:`PolyIntegralOperator` -- sums of multilinear convolution-type
  integral operators of degree up to three, with dense-grid or closed-form
  kernels, optionally time varying.  Every term is one ``np.vecdot`` per slot
  of the inputs' strided lag windows against the kernel's slot factors
  (:meth:`PolyKernel.grid_factors`): a time-invariant kernel's, cached, for
  all rows at once, a time-varying kernel's, factored at each instant, for
  that instant's row.  So every output row reads only its own window and
  rounds alike in ``apply``, ``apply_at`` and ``apply_all``.
  One evaluator (``_terms``) serves ``apply_all`` and the Frechet pair,
  reading each input's lag windows in every slot and degree.

Every operator also answers for natural states (``past_summary`` and
``future_responses``): by default a summary is the past itself and each
future response splices, applies and recenters; the convolution and the
state equation keep only what the future reads of the past, and their
future outputs equal the definitional ones bit for bit.  A batch of
futures and its responses are each one ``TimeBatch`` on one grid, as are
the inputs and outputs of ``apply_all``, whose one-element call is ``apply``.

Operator sizes are measured in the weighted supremum norm
``sup |F(u)| / (1 + |u|^N)``; estimates are maximizations over probe inputs
and the outputs the caller computed for them, and therefore lower bounds,
monotone under probe-set growth.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial
from typing import Sequence

import numpy as np

from .kernel import PolyKernel, symmetrize
from .seminorm import FittedFamily
from .timegrid import (Grid, TimeBatch, TimeFunction, _values_after,
                       shift_left, shift_right, splice, to_cells)

__all__ = [
    "SystemOp",
    "LimsupConvolution",
    "LTISystem",
    "PolyIntegralOperator",
    "TimeAdvance",
    "centered_truncation",
    "centered_truncations",
    "truncation",
    "check_causality",
    "estimate_npower",
    "hypothesis_uniformity_check",
    "steer_to_state",
]


class SystemOp:
    """A causal mapping between input and output function spaces."""

    def __init__(self, input_fam: FittedFamily, output_fam: FittedFamily,
                 input_dim: int = 1, output_dim: int = 1,
                 time_invariant: bool = True):
        self.input_fam = input_fam
        self.output_fam = output_fam
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.time_invariant = time_invariant

    def _check_input(self, u: TimeFunction | TimeBatch) -> None:
        if u.dim != self.input_dim:
            raise ValueError("input dimension mismatch")

    def apply(self, u: TimeFunction) -> TimeFunction:
        """The one-element call of ``apply_all(us)``, the one method every
        operator defines: the outputs for ``us`` (functions on one grid) as
        one ``TimeBatch``."""
        return self.apply_all([u])[0]

    def apply_at(self, u: TimeFunction, t_indices: np.ndarray) -> np.ndarray:
        """Output values at selected instants only (default: full apply)."""
        y = self.apply(u)
        return y.values_at_indices(np.asarray(t_indices, dtype=int))

    def past_summary(self, u: TimeFunction, t_idx: int):
        """What ``u`` up to the instant ``t_idx * dt`` contributes to every
        future output, in the form :meth:`future_responses` reads.

        By default the summary is the past itself with the instant.
        """
        return u, t_idx

    def future_responses(self, summary, vs: TimeBatch) -> TimeBatch:
        """Centered outputs on ``(0, H]`` after the past ``summary``
        describes, one per centered future input ``v`` on ``(0, H]`` of the
        batch ``vs``.  By default each is the definition of a natural state:
        splice ``v`` onto the past at ``t``, apply the system and recenter
        the output.
        """
        u, t_idx = summary
        t = t_idx * u.grid.dt
        ys = self.apply_all([splice(u, shift_right(v, t), t) for v in vs])
        return TimeBatch.stack([_recenter(y, t) for y in ys])


class LimsupConvolution(SystemOp):
    """``y(s) = int h(s - tau) u(tau) dtau + tail_gain * (eventual level of u)``.

    ``h`` is scalar with support ``(0, T]``; its total absolute mass must be
    nonzero.  The eventual-level term makes the operator depend on the
    arbitrarily distant past, which is the whole point of this system pair.
    """

    def __init__(self, h: TimeFunction, tail_gain: float,
                 input_fam: FittedFamily, output_fam: FittedFamily):
        if h.dim != 1:
            raise ValueError("impulse response must be scalar")
        if h.grid.i0 != 0:
            raise ValueError("impulse response support must start at 0")
        if np.any(h.tail_value):
            raise ValueError("impulse response must have zero tail")
        self.h = h
        if self.l1_mass == 0.0:
            raise ValueError("impulse response must have nonzero absolute mass")
        self.tail_gain = float(tail_gain)
        super().__init__(input_fam, output_fam)

    @property
    def l1_mass(self) -> float:
        return float(np.sum(np.abs(self.h.samples))) * self.h.grid.dt

    def _check_input(self, u: TimeFunction | TimeBatch) -> None:
        super()._check_input(u)
        if not u.grid.compatible(self.h.grid):
            raise ValueError("input grid step differs from impulse-response step")

    def _output(self, upad: np.ndarray, ubar: np.ndarray, dt: float):
        """Output samples ``(B, n, 1)`` and tails from the rows of ``upad``,
        each the ``m`` inputs up to a grid's start followed by its ``n``
        samples, and the eventual levels ``ubar`` (``(B, 1)``, or ``(1,)``
        for all).  Output ``j`` of a row reads ``upad[j .. j + m - 1]``.
        """
        m = self.h.grid.n
        hv = self.h.samples[:, 0]
        vals = np.empty((upad.shape[0], upad.shape[1] - m, 1))
        for row, out in zip(upad, vals):
            out[:, 0] = np.convolve(row, hv, "valid")[:out.shape[0]]
        vals *= dt
        vals += self.tail_gain * ubar[..., None, :]
        return vals, ubar * (float(np.sum(hv)) * dt + self.tail_gain)

    apply = SystemOp.apply  # in each class, for tracers of its own methods

    def apply_all(self, us) -> TimeBatch:
        """One :meth:`_output` call for the batch."""
        us = TimeBatch.stack(us)
        self._check_input(us)
        g = us.grid
        upad = _values_after(g, us.samples, us.tails, g.i0 - self.h.grid.n)
        return TimeBatch(g, *self._output(upad[..., 0], us.tails, g.dt))

    def past_summary(self, u: TimeFunction, t_idx: int):
        """The last ``m`` inputs up to ``t`` (tail-filled), the eventual
        level and ``dt``: every past value a future output reads."""
        self._check_input(u)
        m = self.h.grid.n
        window = u.values_at_indices(np.arange(t_idx + 1 - m, t_idx + 1))
        return window, u.tail_value, u.grid.dt

    def future_responses(self, summary, vs: TimeBatch) -> TimeBatch:
        """One convolution per future, the call :meth:`apply` makes, on rows
        that each start with the past window."""
        window, ubar, dt = summary
        self._check_input(vs)
        upad = np.hstack([np.broadcast_to(window[:, 0], (len(vs), len(window))),
                          _values_after(vs.grid, vs.samples, vs.tails, 0)[..., 0]])
        vals, tail = self._output(upad, ubar, dt)
        return TimeBatch(Grid(dt, 0, vs.grid.i1), vals, np.broadcast_to(tail, (len(vs), 1)))


# Higham (2005): the [13/13] Pade numerator coefficients
# b_j = (26 - j)! 13! / (26! j! (13 - j)!), normalized to b_0 = 1 so that a
# zero matrix gives the identity exactly, and theta_13, the largest 1-norm
# for which the approximant's backward error stays below double-precision
# round-off.
_PADE13 = tuple(factorial(26 - j) * factorial(13)
                / (factorial(26) * factorial(j) * factorial(13 - j))
                for j in range(14))
_THETA13 = 5.371920351148152


def _expm(M: np.ndarray) -> np.ndarray:
    """``exp(M)`` by one Pade(13) approximant with scaling and squaring.

    Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005: scale ``M`` by
    ``2**-s`` until its 1-norm is at most ``theta_13``, evaluate
    ``r_13 = (V - U)^-1 (V + U)`` and square ``s`` times.  A non-finite
    1-norm or an exponential that overflows is refused (``ValueError``).
    """
    norm = np.linalg.norm(M, 1)
    if not np.isfinite(norm):
        raise ValueError(
            f"matrix exponential needs finite entries (1-norm {norm})")
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    A = M / 2.0 ** s
    b = _PADE13
    eye = np.eye(M.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            R = R @ R
    if not np.all(np.isfinite(R)):
        raise ValueError(f"matrix exponential overflows (1-norm {norm})")
    return R


class LTISystem(SystemOp):
    """State equation ``x' = Ax + Bu`` with output ``y = x``.

    Stepping is by the exact exponential of each cell under a zero-order
    hold, so constant-input responses carry no integration drift: the
    exponential of ``[[A, B], [0, 0]] * dt`` holds both the state and the
    input map of one step, and ``_expm`` evaluates it by Higham's (2005)
    Pade(13) scaling and squaring.  ``A`` and ``B`` must be finite.  The state
    at the left edge of the window comes from the constant input tail: zero
    tail gives zero state; a nonzero tail needs a Hurwitz ``A`` and starts at
    the corresponding equilibrium.
    """

    def __init__(self, A, B, input_fam: FittedFamily, output_fam: FittedFamily):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        if self.B.shape[0] != self.A.shape[0]:
            raise ValueError("B row count must match A")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.B))):
            raise ValueError("A and B must be finite")
        super().__init__(input_fam, output_fam, self.B.shape[1],
                         self.A.shape[0])
        self._step_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def _stepper(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        if dt not in self._step_cache:
            n, m = self.A.shape[0], self.B.shape[1]
            blk = np.zeros((n + m, n + m))
            blk[:n, :n] = self.A
            blk[:n, n:] = self.B
            M = _expm(blk * dt)
            self._step_cache[dt] = (M[:n, :n], M[:n, n:])
        return self._step_cache[dt]

    def initial_state(self, u: TimeFunction) -> np.ndarray:
        ubar = u.tail_value
        if not np.any(ubar):
            return np.zeros(self.A.shape[0])
        eig = np.linalg.eigvals(self.A)
        if np.max(eig.real) >= 0.0:
            raise ValueError(
                "divergent tail: nonzero constant past input needs a Hurwitz A")
        return -np.linalg.solve(self.A, self.B @ ubar)

    def _steps(self, x: np.ndarray, samples: np.ndarray, dt: float) -> np.ndarray:
        """The states after each input sample in turn, starting from ``x``.

        ``samples`` is ``(..., H, m)``, a trajectory per leading index, from
        ``x`` of shape ``(n,)`` or ``(..., n)``.  The input terms of every
        step are one matmul up front; for a scalar input each entry is a
        single product, as in ``Bd @ u_k``.  Each step adds ``Ad @ x`` by
        one stacked matmul, one matrix-vector product per trajectory, so a
        batch equals its trajectories stepped one at a time, bit for bit.
        """
        Ad, Bd = self._stepper(dt)
        out = samples @ Bd.T
        x = x[..., None]
        rows = np.moveaxis(out, -2, 0)[..., None]
        tmp = np.empty(rows.shape[1:])
        for row in rows:  # out= by position: a keyword costs more per step
            np.matmul(Ad, x, tmp)
            np.add(row, tmp, row)
            x = row
        return out

    apply = SystemOp.apply

    def apply_all(self, us) -> TimeBatch:
        """One stacked :meth:`_steps` call, each from its tail's state."""
        us = TimeBatch.stack(us)
        self._check_input(us)
        x0 = np.array([self.initial_state(u) for u in us])
        return TimeBatch(us.grid, self._steps(x0, us.samples, us.grid.dt), x0)

    def past_summary(self, u: TimeFunction, t_idx: int):
        """The state ``x(t)``, the window's starting state ``x0`` (the output
        tail) and ``dt``."""
        self._check_input(u)
        x0 = self.initial_state(u)
        xs = self._steps(x0, u.samples[:max(0, t_idx - u.grid.i0)], u.grid.dt)
        return (xs[-1] if len(xs) else x0), x0, u.grid.dt

    def future_responses(self, summary, vs: TimeBatch) -> TimeBatch:
        """One :meth:`_steps` call for the batch, from ``x(t)``."""
        x, x0, dt = summary
        self._check_input(vs)
        g = Grid(dt, 0, vs.grid.i1)
        if not g.compatible(vs.grid):
            raise ValueError("future input grid step differs from the past's")
        us = _values_after(vs.grid, vs.samples, vs.tails, 0)
        return TimeBatch(g, self._steps(x, us, dt),
                         np.broadcast_to(x0, (len(vs), x0.shape[0])))


class PolyIntegralOperator(SystemOp):
    """Finite sum of multilinear convolution integrals plus a constant.

    ``y(t) = c0 + sum_n sum_{i_1..i_n} int k_n^{i...}(s_1..s_n)
    u_{i_1}(t-s_1) ... u_{i_n}(t-s_n) ds`` with kernels supported in
    ``[0, S]^n``.  Output is scalar (vector outputs are componentwise copies
    of this).  Time-varying kernels take the absolute output instant as
    their leading argument and require zero input tails, since then the
    pre-window output is the constant ``c0`` exactly.
    """

    MAX_DEGREE = 3

    def __init__(self, kernels: Sequence[PolyKernel], constant: float,
                 input_fam: FittedFamily, output_fam: FittedFamily,
                 input_dim: int = 1):
        degrees = [k.degree for k in kernels]
        if len(set(degrees)) != len(degrees):
            raise ValueError("one kernel per degree")
        if degrees and max(degrees) > self.MAX_DEGREE:
            raise ValueError(f"degree above {self.MAX_DEGREE} not supported")
        for k in kernels:
            if k.input_dim != input_dim:
                raise ValueError("kernel input dimension mismatch")
        self.kernels = {k.degree: k for k in kernels}
        self.constant = float(constant)
        super().__init__(input_fam, output_fam, input_dim, 1,
                         not any(k.time_varying for k in kernels))

    @cached_property
    def symmetric_kernels(self) -> dict[int, PolyKernel]:
        """The kernels with interchangeable slots, each symmetrized once, on
        first use.  Symmetrizing never changes the operator."""
        return {n: symmetrize(k) for n, k in self.kernels.items()}

    def _past_matrix(self, u, t_idx: np.ndarray, Q: int) -> np.ndarray:
        """``P[..., i, j, a] = u_a(t_i - j dt)`` for ``j = 1..Q``, of a
        function, or of each function of a batch (the leading axis).

        Row ``i`` is one window over the samples in latest-first order
        followed by ``Q + 1`` tail rows, so an instant at or below ``i0``
        reads only the tail.  A run of instants is a view, others a gather.
        """
        g = u.grid
        if np.any(t_idx > g.i1 + 1):
            raise IndexError("instant index beyond the represented horizon")
        tail = _tails(u)[..., None, :]
        latest_first = np.concatenate([u.samples[..., ::-1, :], np.broadcast_to(
            tail, tail.shape[:-2] + (Q + 1, u.dim))], axis=-2)
        windows = np.lib.stride_tricks.sliding_window_view(
            latest_first, (Q, u.dim), axis=(-2, -1))[..., 0, :, :]
        pos = np.minimum(g.i1 + 1 - t_idx, g.n + 1)
        if pos.size and (np.diff(pos) == -1).all():
            return windows[..., pos[-1]:pos[0] + 1, :, :][..., ::-1, :, :]
        return windows[..., pos, :, :]

    def _term(self, ker: PolyKernel, mats: Sequence[np.ndarray],
              t_idx: np.ndarray, dt: float) -> np.ndarray:
        """One multilinear term ``(..., I)`` at the instants ``t_idx``, one
        lag matrix (:meth:`_past_matrix` at ``ker``'s grid size) per slot.

        ``dt^n sum K(t; j_1..j_n) slot_1(t - j_1 dt) ... slot_n(t - j_n dt)``
        over the kernel grid.  Slots that read one input take one matrix,
        the same object repeated.  Each group of rows that shares the slot
        factors ``F_s`` of :meth:`PolyKernel.grid_factors` (every row for a
        time-invariant kernel, one row per instant for a time-varying one)
        is contracted as ``sum_t prod_s (X_s . F_s[:, t])``, one
        ``np.vecdot`` per slot: a dot product per row and factor column.
        """
        if ker.time_varying:
            groups = ((slice(i, i + 1), ker.grid_factors(dt, float(t * dt)))
                      for i, t in enumerate(t_idx))
        else:
            groups = [(slice(None), ker.grid_factors(dt))]
        out = np.empty(mats[0].shape[:-2])
        for rows, factors in groups:
            prod = 1.0
            for m, f in zip(mats, factors):
                x = m[..., rows, :, :]
                prod = prod * np.vecdot(x.reshape(x.shape[:-2] + (1, -1)), f.T)
            out[..., rows] = prod.sum(axis=-1)
        return out * dt ** ker.degree

    def _terms(self, inputs: Sequence[TimeFunction], terms,
               t_idx: np.ndarray) -> list[np.ndarray]:
        """Multilinear terms ``(ker, slots)`` at the instants ``t_idx``, with
        ``inputs[k]`` in each slot ``k`` of ``slots``: one array per term.

        The inputs (functions, or batches of one length) share one grid;
        each one's lag matrix is built once per grid size and read by every
        slot and term.  A time-varying kernel refuses a nonzero input tail.
        """
        g = inputs[0].grid
        if any(u.grid != g for u in inputs):
            raise ValueError("grids differ; align windows first")
        for u in inputs:
            self._check_input(u)
        lags: dict[tuple[int, int], np.ndarray] = {}
        out = []
        for ker, slots in terms:
            if ker.time_varying and any(np.any(_tails(inputs[k]))
                                        for k in slots):
                raise ValueError(
                    "time-varying operator requires zero input tail")
            Q = ker.grid_size(g.dt)
            for k in slots:
                if (k, Q) not in lags:
                    lags[k, Q] = self._past_matrix(inputs[k], t_idx, Q)
            out.append(self._term(ker, [lags[k, Q] for k in slots], t_idx,
                                  g.dt))
        return out

    def apply_at(self, u, t_indices) -> np.ndarray:
        """Output values ``(..., I, 1)`` at the instants ``t_indices`` of a
        function, or of each function of a batch: the constant plus each
        degree's term in turn, bit for bit the same rows of :meth:`apply`."""
        t_idx = np.asarray(t_indices, dtype=int)
        y = np.full(u.samples.shape[:-2] + t_idx.shape, self.constant)
        kers = sorted(self.kernels.items())
        for term in self._terms([u], [(k, [0] * n) for n, k in kers], t_idx):
            y += term
        return y[..., None]

    apply = SystemOp.apply

    def apply_all(self, us) -> TimeBatch:
        """One :meth:`_terms` call for the batch.  At ``i0`` every lag reads
        the constant input tail, so the first row is the output tail."""
        us = TimeBatch.stack(us)
        y = self.apply_at(us, np.arange(us.grid.i0, us.grid.i1 + 1))
        return TimeBatch(us.grid, y[:, 1:], y[:, 0])


class TimeAdvance(SystemOp):
    """Deliberately anti-causal control operator: ``y(s) = u(s + k dt)``."""

    def __init__(self, k: int, input_fam: FittedFamily, output_fam: FittedFamily):
        if k <= 0:
            raise ValueError("advance must be positive")
        self.k = k
        super().__init__(input_fam, output_fam)

    apply = SystemOp.apply

    def apply_all(self, us) -> TimeBatch:
        """The batch's samples and tails on its grid shifted ``k`` cells
        earlier."""
        us = TimeBatch.stack(us)
        g = us.grid
        return TimeBatch(Grid(g.dt, g.i0 - self.k, g.i1 - self.k), us.samples,
                         us.tails)


def _tails(u: TimeFunction | TimeBatch) -> np.ndarray:
    """The tail of a function, or the tails of a batch."""
    return u.tails if isinstance(u, TimeBatch) else u.tail_value


def _recenter(y: TimeFunction, t: float) -> TimeFunction:
    """The part of ``y`` after ``t``, shifted back to start at 0."""
    t_idx = y.grid.index_of(t)
    future = TimeFunction(Grid(y.grid.dt, t_idx, y.grid.i1),
                          y.samples[t_idx - y.grid.i0:], y.tail_value)
    return shift_left(future, t)


# -- truncations -------------------------------------------------------------


def centered_truncation(system: SystemOp, t: float):
    """Window view at ``t`` recentred to zero; meaningful for causal systems
    (all shipped variants are, and :func:`check_causality` probes it).

    Maps a past input ending at 0 to the past output ending at 0 by shifting
    to ``t``, applying the system, truncating, and shifting back.
    """
    return lambda u0: centered_truncations(system, t, [u0])[0]


def centered_truncations(system: SystemOp, t: float, u0s) -> list:
    """:func:`centered_truncation` at ``t`` of every past input of ``u0s``
    (functions on one grid), in order: one ``apply_all`` call."""
    g = u0s[0].grid
    i1 = g.index_of(t) + g.i1
    ys = system.apply_all([shift_right(u0, t) for u0 in u0s])
    return [shift_left(y.with_window(y.grid.i0, i1), t) for y in ys]


def truncation(system: SystemOp, t: float):
    """Uncentred truncation: apply and re-window the output to ``(-inf, t]``."""

    def run(u: TimeFunction) -> TimeFunction:
        t_idx = u.grid.index_of(t)
        y = system.apply(u)
        return y.with_window(y.grid.i0, t_idx)

    return run


# -- causality ----------------------------------------------------------------


def _edited_after(u: TimeFunction, t_idx: int, rng) -> TimeFunction:
    """``u`` with ``1 + rng.random()`` added to every sample strictly after
    the instant ``t_idx * dt``, one draw per sample and component; the
    samples up to it and the tail are kept."""
    g = u.grid
    edited = np.array(u.samples)
    sel = np.arange(g.i0 + 1, g.i1 + 1) > t_idx
    edited[sel] += 1.0 + rng.random(size=(int(sel.sum()), u.dim))
    return TimeFunction(g, edited, u.tail_value)


def check_causality(system: SystemOp, probes, ts, rng=None) -> dict:
    """Probe the defining causality property of the system.

    For each probe ``u`` and window end ``t``, edits ``u`` strictly after
    ``t`` and requires the outputs to agree up to ``t`` in the output norm,
    exactly, applying a probe and its edits in one call.  Violations are
    returned with witnesses rather than raised.
    """
    rng = np.random.default_rng(rng)
    violations = []
    checks = 0
    for pi, u in enumerate(probes):
        g = u.grid
        edits = []
        for t in ts:
            t_idx = g.index_of(t)
            if t_idx >= g.i1 or t_idx < g.i0:
                continue
            edits.append((t, t_idx, _edited_after(u, t_idx, rng)))
        y_u, *y_vs = system.apply_all([u] + [v for _, _, v in edits])
        for (t, t_idx, _), y_v in zip(edits, y_vs):
            lo = min(y_u.grid.i0, y_v.grid.i0)
            d = y_u.with_window(lo, t_idx) - y_v.with_window(lo, t_idx)
            gap = system.output_fam.past_norm(d, t)
            checks += 1
            if gap != 0.0:
                violations.append({"probe": pi, "t": t, "gap": gap})
    return {"causal": not violations, "checks": checks, "violations": violations}


# -- weighted operator norms ---------------------------------------------------


def estimate_npower(in_norms: Sequence[float], out_norms: Sequence[float],
                    N: int) -> float:
    """``max |y| / (1 + |x|^N)`` over the pairs of input norms ``|x|`` and
    norms ``|y|`` of the outputs the caller computed; ``0.0`` for none."""
    return max((y / (1.0 + x ** N)
                for x, y in zip(in_norms, out_norms, strict=True)), default=0.0)


def hypothesis_uniformity_check(system: SystemOp, ts, probes0, N: int) -> dict:
    """Sampled uniformity of the windowed operators over a span of instants.

    Reports a common bound for the per-instant operator norms and a common
    continuity modulus over probe pairs; for a time-invariant system the
    per-instant estimates must agree exactly.
    """
    in_fam, out_fam = system.input_fam, system.output_fam
    ins = in_fam.past_norms(probes0, 0.0)
    # The probe pairs' input gaps do not depend on the instant.
    pairs = [(i, j) for i in range(len(ins)) for j in range(i + 1, len(ins))]
    gaps = in_fam.past_norms([probes0[i] - probes0[j] for i, j in pairs], 0.0)
    pairs = [(i, j, du) for (i, j), du in zip(pairs, gaps) if du > 0.0]
    per_t, moduli = [], []
    for t in ts:
        outs = centered_truncations(system, t, probes0)
        per_t.append(estimate_npower(ins, out_fam.past_norms(outs, 0.0), N))
        dys = out_fam.past_norms([outs[i] - outs[j] for i, j, _ in pairs], 0.0)
        moduli += [dy / du for (_, _, du), dy in zip(pairs, dys)]
    spread = max(per_t) - min(per_t)
    return {
        "uniform_bound": max(per_t),
        "modulus_bound": max(moduli) if moduli else 0.0,
        "time_invariant_consistent": (not system.time_invariant) or spread == 0.0,
    }


# -- controllability steering ---------------------------------------------------


def steer_to_state(system: LTISystem, x_target, t_end: float, duration: float,
                   grid: Grid) -> TimeFunction:
    """Past input reaching ``x_target`` at ``t_end``, supported on the last
    ``duration`` seconds, least-norm in the lifted discrete system.

    Exact at grid scale because the stepping and the lifted controllability
    map use the same zero-order hold.  The window ``(t_end - duration,
    t_end]`` must lie inside ``grid``'s, or no input on it reaches the target,
    and ``duration`` must be a whole number of steps (``AlignmentError``).
    """
    dt = grid.dt
    K = to_cells(duration, dt)
    te = grid.index_of(t_end)
    if K < 1 or te - K < grid.i0 or te > grid.i1:
        raise ValueError(
            f"steering window ({t_end - duration}, {t_end}] does not fit in "
            f"the grid window ({grid.t_start}, {grid.t_end}]")
    Ad, Bd = system._stepper(dt)
    nx = system.A.shape[0]
    cols = []
    acc = np.eye(nx)
    for _ in range(K):
        cols.append(acc @ Bd)
        acc = acc @ Ad
    # x(t_end) = sum_{k} Ad^k Bd u_{K-k}; columns ordered latest-input-first.
    C = np.hstack(cols)
    useq = np.linalg.pinv(C) @ np.asarray(x_target, dtype=float)
    useq = useq.reshape(K, system.input_dim)[::-1]
    vals = np.zeros((grid.n, system.input_dim))
    vals[te - K - grid.i0: te - grid.i0] = useq
    return TimeFunction(grid, vals, np.zeros(system.input_dim))

"""Fitted families of seminorms over time windows.

A fitted family assigns to every half-open window ``(s, t]`` a seminorm of a
time function, consistently under shifts.  The shipped families are weighted
``L_p`` norms with a nonnegative nonincreasing weight ``w(t - tau)`` that can
de-emphasize the distant past, their running-sup variant, and windowed
ess-sup norms for outputs.  Left expansion to ``s = -inf`` is exact for
functions with a constant tail: the pre-grid mass is a closed-form integral
of the weight against the tail level.

Quadrature is the right-endpoint rectangle rule, matching the sampling
convention (each sample sits at the right endpoint of its cell), so window
membership of samples is exact and shift invariance holds bit for bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .timegrid import (Interval, TimeBatch, TimeFunction, NEG_INF, POS_INF,
                       _positive, ceil_cells, to_cells)

__all__ = [
    "Weight",
    "FittedFamily",
    "NormReport",
    "check_ff_axioms",
    "taper_delta",
    "taper_certificate",
    "classify",
]


_ONE = np.ones(1)
_ONE.flags.writeable = False


class Weight:
    """Closed-form weight ``w`` on ``[0, inf)`` with exact partial integrals.

    ``support`` is the supremum of ``{x : w(x) > 0}`` (``inf`` when the
    weight never dies); ``integrable`` says whether the total mass is
    finite.  ``alpha``/``K`` are the declared window-comparison constants of
    the family built on this weight.  On a grid, ``alpha`` and a finite
    ``support`` (a box memory) must be whole cells (:func:`to_cells`).
    """

    def __init__(self, form: str, params: dict, alpha: float, K: float,
                 nonincreasing: bool = True):
        self.form = form
        self.params = dict(params)
        self.alpha = alpha
        self.K = K
        self.nonincreasing = nonincreasing

    @staticmethod
    def uniform() -> "Weight":
        return Weight("uniform", {}, alpha=POS_INF, K=1.0)

    @staticmethod
    def exponential(rate: float, alpha: float = 1.0) -> "Weight":
        """``exp(-rate x)`` with ``K = exp(rate * alpha)``, which must not
        overflow."""
        try:
            K = math.exp(_positive(rate, "rate") * _positive(alpha, "alpha"))
        except OverflowError:
            raise ValueError(f"rate {rate!r} with alpha {alpha!r} overflows "
                             "K = exp(rate * alpha)") from None
        return Weight("exp", {"rate": rate}, alpha=alpha, K=K)

    @staticmethod
    def box(memory: float) -> "Weight":
        _positive(memory, "memory length")
        return Weight("box", {"memory": memory}, alpha=memory, K=1.0)

    @staticmethod
    def table(edges, values) -> "Weight":
        """Piecewise-constant weight, mainly for counterexample families.

        ``values[k]`` holds on ``[edges[k], edges[k+1])``; zero beyond the
        last edge.  Edges are finite, start at 0 and rise strictly; values
        are finite and nonnegative.
        """
        edges = np.asarray(edges, dtype=float)
        values = np.asarray(values, dtype=float)
        if edges.ndim != 1 or values.shape != (edges.shape[0] - 1,):
            raise ValueError("need len(values) == len(edges) - 1")
        for ok, rule in ((np.all(np.isfinite(edges)), "edges must be finite"),
                         (edges[0] == 0.0, "edges must start at 0"),
                         (np.all(np.diff(edges) > 0), "edges must rise strictly"),
                         (np.all(np.isfinite(values)), "values must be finite"),
                         (np.all(values >= 0), "values must be >= 0")):
            if not ok:
                raise ValueError(f"table {rule}, got edges {edges.tolist()}, "
                                 f"values {values.tolist()}")
        noninc = bool(np.all(np.diff(values) <= 0))
        return Weight("table", {"edges": edges, "values": values},
                      alpha=POS_INF, K=POS_INF, nonincreasing=noninc)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.form == "uniform":
            return np.ones_like(x)
        if self.form == "exp":
            return np.exp(-self.params["rate"] * x)
        if self.form == "box":
            return np.where(x < self.params["memory"], 1.0, 0.0)
        edges, values = self.params["edges"], self.params["values"]
        idx = np.searchsorted(edges, x, side="right") - 1
        out = np.zeros_like(x)
        ok = (idx >= 0) & (idx < values.shape[0])
        out[ok] = values[idx[ok]]
        return out

    def _at_lags(self, n: int, dt: float) -> np.ndarray:
        """``w(j dt)`` for the lags ``j < n``, a box's memory counted in whole
        cells (:func:`to_cells`); a uniform weight gives one read-only 1.0
        that broadcasts."""
        if self.form == "uniform":
            return _ONE
        if self.form == "box":
            win = to_cells(self.params["memory"], dt)
            return np.where(np.arange(n) < win, 1.0, 0.0)
        return self(np.arange(n) * dt)

    def integral(self, a, b):
        """Exact ``int_a^b w(x) dx`` for ``0 <= a <= b <= inf``.

        Elementwise on arrays; scalars give a float.
        """
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if np.any(b < a):
            raise ValueError("need a <= b")
        if self.form == "uniform":
            out = b - a
        elif self.form == "exp":
            r = self.params["rate"]
            out = (np.exp(-r * a) - np.exp(-r * b)) / r
        elif self.form == "box":
            m = self.params["memory"]
            out = np.maximum(0.0, np.minimum(b, m) - np.minimum(a, m))
        else:
            edges, values = self.params["edges"], self.params["values"]
            b = np.minimum(b, edges[-1])
            out = np.zeros(np.broadcast(a, b).shape)
            for k in range(values.shape[0]):
                lo, hi = np.maximum(a, edges[k]), np.minimum(b, edges[k + 1])
                out = out + np.where(hi > lo, values[k] * (hi - lo), 0.0)
        return float(out) if out.ndim == 0 else out

    def _accumulate(self, x: np.ndarray, dt: float, op) -> np.ndarray:
        """``op``-accumulation of ``x[..., j] w((c - j) dt)`` over ``j <= c``
        for every ``c`` (last axis); ``op`` is ``np.add`` (weighted running
        sums) or ``np.maximum`` (weighted running maxima).

        A uniform weight takes the O(n) running ``op``, an exponential weight
        the O(n log n) scan of :func:`_exp_running`, a box maximum the O(n)
        blocks of van Herk / Gil-Werman, and a box sum and a table weight the
        sequential ``op`` of each position's terms in lag order, one pass per
        lag of nonzero weight (:meth:`_at_lags`).  Every form's value at
        ``c`` reads only the samples up to ``c``, and zeros before a row's
        first sample leave it as it is, so a running row may be cut at both
        ends.  Uniform and exponential weights accumulate in place and
        return ``x``; the other forms leave it as it is.
        """
        n = x.shape[-1]
        if self.form == "uniform":
            return op.accumulate(x, axis=-1, out=x)
        if self.form == "exp":
            return _exp_running(x, self.params["rate"], dt, op)
        if self.form == "box" and op is np.maximum:
            win = to_cells(self.params["memory"], dt)
            # Sliding maximum over the zero-padded row by van Herk /
            # Gil-Werman: cut the row into blocks of ``win``; the window of
            # ``win`` samples from ``c`` is the suffix of one block joined
            # to the prefix of the next, so O(n) whatever ``win`` is.
            m = n + win - 1
            padded = np.zeros(x.shape[:-1] + (-(-m // win) * win,))
            padded[..., win - 1:m] = x
            blocks = padded.reshape(x.shape[:-1] + (-1, win))
            pre = np.maximum.accumulate(blocks, axis=-1)
            suf = np.maximum.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1]
            return np.maximum(suf.reshape(padded.shape)[..., :n],
                              pre.reshape(padded.shape)[..., win - 1:m])
        # Lag by lag, so each position takes its terms in lag order from
        # itself back; a lag of zero weight adds nothing and is skipped.
        wker = self._at_lags(n, dt)
        out = x * wker[0]
        for j in np.flatnonzero(wker[1:]) + 1:
            op(out[..., j:], x[..., :-j] * wker[j], out=out[..., j:])
        return out

    @property
    def support(self) -> float:
        if self.form == "box":
            return self.params["memory"]
        if self.form == "table":
            edges, values = self.params["edges"], self.params["values"]
            nz = np.nonzero(values)[0]
            return float(edges[nz[-1] + 1]) if nz.size else 0.0
        return POS_INF

    @property
    def integrable(self) -> bool:
        return self.integral(0.0, POS_INF) < POS_INF

    def __repr__(self) -> str:
        return f"Weight({self.form}, {self.params})"


class FittedFamily:
    """A family of window seminorms, either weighted ``L_p`` or its running sup.

    ``vector_norm`` picks the pointwise norm on vector values: ``"euclidean"``
    or ``"max"`` (the componentwise sup used for polynomial-operator spaces).
    """

    def __init__(self, kind: str, p: float, weight: Weight,
                 vector_norm: str = "euclidean",
                 base: Optional["FittedFamily"] = None,
                 name: str = "", allow_nonmonotone: bool = False):
        if kind not in ("weighted_lp", "sup"):
            raise ValueError(f"unknown family kind {kind!r}")
        if kind == "weighted_lp":
            if not (p >= 1.0):
                raise ValueError("p must be in [1, inf]")
            if not weight.nonincreasing and not allow_nonmonotone:
                raise ValueError("weight must be nonincreasing")
        if vector_norm not in ("euclidean", "max"):
            raise ValueError("vector_norm must be 'euclidean' or 'max', "
                             f"got {vector_norm!r}")
        self.kind = kind
        self.p = p
        self.weight = weight
        self.vector_norm = vector_norm
        self.base = base
        self.name = name or kind

    @staticmethod
    def weighted_lp(p: float, weight: Weight, vector_norm: str = "euclidean",
                    name: str = "", allow_nonmonotone: bool = False) -> "FittedFamily":
        return FittedFamily("weighted_lp", p, weight, vector_norm,
                            name=name, allow_nonmonotone=allow_nonmonotone)

    @staticmethod
    def sup_family(base: "FittedFamily", name: str = "") -> "FittedFamily":
        return FittedFamily("sup", base.p, base.weight, base.vector_norm,
                            base=base, name=name or f"sup({base.name})")

    @staticmethod
    def unweighted_sup(name: str = "sup-linf") -> "FittedFamily":
        """Pointwise sup over the window; the classic bounded-input norm."""
        return FittedFamily("weighted_lp", POS_INF, Weight.uniform(), "max",
                            name=name)

    @staticmethod
    def output_window(b: float, name: str = "") -> "FittedFamily":
        """Ess-sup over the trailing observation window of length ``b``.

        Realized as a box-weighted sup: only samples within ``b`` of the
        window end count, so the window identity ``|y|_t = |y|_{t-b,t}``
        holds exactly.
        """
        w = (Weight.uniform() if b == POS_INF
             else Weight.box(_positive(b, "window length b")))
        return FittedFamily("weighted_lp", POS_INF, w, "max",
                            name=name or f"esssup-window-{b}")

    # -- metadata -------------------------------------------------------------

    @property
    def alpha(self) -> float:
        return self.weight.alpha

    @property
    def K(self) -> float:
        return self.weight.K

    def _rownorm(self, samples: np.ndarray) -> np.ndarray:
        """Pointwise norm of each value along the last axis of ``samples``."""
        if samples.shape[-1] == 1:  # a one-term sum or maximum is that term
            x = samples[..., 0]
            return np.abs(x) if self.vector_norm == "max" else np.sqrt(x * x)
        if self.vector_norm == "max":
            return np.abs(samples).max(axis=-1)
        # np.linalg.norm(samples, axis=-1), without its dispatch overhead.
        return np.sqrt((samples * samples).sum(axis=-1))

    def _magnitudes(self, samples: np.ndarray, tails: np.ndarray):
        """Sample magnitudes ``(B, n)`` of ``samples`` ``(B, n, dim)``, and
        the factor ``(B,)`` of each of ``tails`` in every tail term (see
        :meth:`_tail`): ``|tail| ** p``, ``|tail|`` for ``p = inf``, 0.0
        for a zero tail."""
        coef = self._rownorm(tails)
        if self.p < POS_INF:
            coef **= self.p
        # A nonzero tail whose factor underflows keeps the least positive
        # one, so its unbounded past still diverges and is still refused.
        coef[(coef == 0.0) & tails.any(axis=-1)] = math.ulp(0.0)
        return self._rownorm(samples), coef

    # -- batched windows ---------------------------------------------------------

    def seminorms(self, f: TimeFunction, s_idx, t_idx) -> np.ndarray:
        """``|f|_{s,t}`` for every window ``(s_idx[k], t_idx[k]]`` in one pass.

        Window ends are grid indices; ``s_idx`` may hold ``-inf`` for the
        left-expanded norm.  The part of a window at or before the grid
        start is the closed-form tail term, and a finite-support weight clips
        each window to its support, so ``|f|_t = |f|_{t-M,t}`` holds bit for
        bit.  Weighted sums run sequentially over lags from the window end,
        and a sup family takes one running row per window, from its left end
        to its end, each value reading only the samples up to it.  So a
        window's value depends only on the samples inside it and the tail:
        not on the grid's extent, nor on the other windows.
        """
        g = f.grid
        s = np.asarray(s_idx, dtype=float).ravel()
        t = np.asarray(t_idx, dtype=np.int64).ravel()
        if s.shape != t.shape:
            raise ValueError("need one left end per window end")
        # Norm samples up to the latest window end: no window reads a later
        # one, whatever the kind.
        hi = int(t.max(initial=g.i0)) - g.i0
        if hi > g.n:
            raise ValueError("window end beyond represented horizon")
        if not (s < t).all():
            raise ValueError("empty window")
        mags, tail = self._magnitudes(f.samples[None, :hi], f.tail_value[None])
        return self._seminorms(g.i0, g.dt, tail, mags, 0, s, t)

    def _seminorms(self, i0, dt: float, tail, mags: np.ndarray, rows,
                   s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """:meth:`seminorms` from a stack of sample-magnitude rows on grids
        of step ``dt``.  Window ``k`` reads row ``rows[k]``, whose first
        sample sits at instant ``i0[k] + 1`` (a row may be zero-padded past
        its grid's end), with tail coefficient ``tail[k]`` from
        :meth:`_magnitudes`; ``rows``, ``i0`` and ``tail`` may each be one
        value for every window.

        A window read on origin ``i0 - h`` with ends ``s - h``, ``t - h``
        gets the arithmetic of ``(s - h, t - h]`` on ``shift_left(f, h dt)``,
        which moves only the origin.  The rows up to the latest window end
        are raised to the power ``p`` once and laid back to back reversed,
        so a window's lags, counted back from its end, are one contiguous
        run of a strided view.  The windows go in buckets of similar span
        (:func:`_buckets`); a bucket gathers each window's run cut at the
        bucket's longest span and weights it, and for ``p < inf`` one
        ``np.add.accumulate`` sums every run in lag order, read at the
        window's own span.  So every window gets the sequential sum of its
        own span, whatever the other windows in the call; one without
        samples sums to 0.0.  The sup kind reads :meth:`_sup_windows`.
        """
        if not t.size:
            return np.zeros(0)
        if self.kind == "sup":
            return self._sup_windows(i0, dt, tail, mags, rows, s, t)
        s, t, end, span = self._spans(i0, dt, s, t)
        tail = self._tail(dt, tail, s, t)
        buckets = _buckets(span, _PIECE)
        n_lags = buckets[0][1] if buckets else 0
        hi = int(end.max())  # no window reads a later sample
        # Lag j of window k is runs[start[k], j].  A run past its window's
        # span reads the pad or the next row, which the window's sum or
        # maximum never takes in.
        runs = _runs(mags[:, :hi][:, ::-1], n_lags,
                     self.p if self.p < POS_INF else 1.0)
        start = rows * hi + (hi - end)
        wts = self.weight._at_lags(n_lags, dt)
        vals = np.zeros(span.shape)
        for idx, n in buckets:
            terms = runs[start[idx], :n]
            terms *= wts[:n]
            if self.p == POS_INF:
                np.copyto(terms, 0.0, where=np.arange(n) >= span[idx, None])
                vals[idx] = terms.max(axis=1)
            else:
                np.add.accumulate(terms, axis=1, out=terms)
                vals[idx] = terms[np.arange(terms.shape[0]), span[idx] - 1]
        if self.p == POS_INF:
            return self._finite(np.maximum(vals, tail))
        return self._finite((vals * dt + tail) ** (1.0 / self.p))

    def _spans(self, i0, dt: float, s: np.ndarray, t: np.ndarray):
        """Window ends counted from the origin, the left end clipped to a
        finite support, with each window's sample end ``max(t, 0)`` and
        span: it holds samples ``end - span .. end - 1`` of its row."""
        w = self.weight
        if w.support < POS_INF:
            s = np.maximum(s, t - to_cells(w.support, dt))
        s, t = s - i0, t - i0
        end = np.maximum(t, 0)
        return s, t, end, end - np.maximum(s, 0).astype(np.int64)

    def _sup_windows(self, i0, dt: float, tail, mags: np.ndarray, rows,
                     s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """:meth:`_seminorms` of the sup kind: each window is the value at its
        end of one :meth:`_running` row of its own, run from its left end to
        its end.  A running value reads only the samples up to it
        (:meth:`Weight._accumulate`), and a row cut at its left end starts
        from a zero tail term, as the whole row has there.  The running rows
        go in buckets of similar length (:func:`_buckets`), each holding its
        samples and running cells, gathered from the rows laid back to back
        with one pad."""
        left = s - i0
        lo = np.maximum(left, 0).astype(np.int64)  # -inf: column 0
        col = np.maximum(t - i0, 0) - lo
        start = rows * mags.shape[1] + lo
        tail = np.broadcast_to(tail, t.shape)
        buckets = _buckets(2 * np.maximum(col, 1) + 1, 2 * _PIECE)
        runs = _runs(mags, buckets[0][1] // 2)  # the longest row's samples
        vals = np.empty(t.shape)
        for idx, c in buckets:
            run = self._running(0, dt, tail[idx], runs[start[idx], :c // 2],
                                left[idx] - lo[idx])
            vals[idx] = run[np.arange(idx.shape[0]), col[idx]]
        return vals

    def _tail(self, dt: float, tail, s: np.ndarray,
              t: np.ndarray) -> np.ndarray | float:
        """Tail term of each window ``(s, t]``, its ends counted in steps
        from the grid origin and ``tail`` its coefficient (:meth:`_magnitudes`;
        arrays that broadcast): the closed-form weight mass of the part of the
        window at or before the origin (its weight there for ``p = inf``),
        times ``tail``.  It is zero where the window starts at or after the
        origin or the tail is zero, and the scalar 0.0 when no window with a
        nonzero tail starts before the origin."""
        if not (np.count_nonzero(tail) and (s < 0).any()):
            return 0.0
        cut = np.minimum(t, 0)
        need = (s < cut) & (tail != 0.0)
        if not need.any():
            return 0.0
        out = np.zeros(need.shape)
        a = np.broadcast_to((t - cut) * dt, need.shape)[need]
        coef = np.broadcast_to(tail, need.shape)[need]
        if self.p == POS_INF:
            out[need] = coef * self.weight(a)
            return out
        mass = self.weight.integral(
            a, np.broadcast_to((t - s) * dt, need.shape)[need])
        if np.any(mass == POS_INF):
            raise ValueError("divergent tail: non-integrable weight with "
                             "nonzero tail over an unbounded past")
        out[need] = coef * mass
        return out

    def _running(self, i0, dt: float, tail, mags: np.ndarray,
                 s: np.ndarray) -> np.ndarray:
        """``|f|_{s_k, u}`` at every instant ``u`` from the origin, one row
        per left end ``s_k`` (``-inf`` allowed), as :meth:`_seminorms` with
        one row of ``mags`` and ``tail`` per left end, or one for all of them.

        Column ``c`` is ``u = i0 + c`` up to the end of the grid; column 0
        is the tail alone.  Samples at or before ``s_k`` are zeroed and the
        weight accumulates the rest.  A sup family returns the running
        maximum of its base's rows.  A finite left end before the origin
        is refused when the tail is nonzero: the columns start at the
        origin, so they miss the right ends between it and the left end.
        """
        if self.kind == "sup":
            run = self.base._running(i0, dt, tail, mags, s)
            return np.maximum.accumulate(run, axis=1, out=run)
        n = mags.shape[1]
        s0 = (s - i0)[:, None]  # left ends counted from the origin
        tail = tail[:, None]
        if np.count_nonzero(tail) and (
                (s0 < 0) & np.isfinite(s0) & (tail != 0.0)).any():
            raise ValueError(
                "window starts before the represented past of a nonzero-tail "
                "function; extend the window first")
        tail = self._tail(dt, tail, s0, np.arange(n + 1))
        run = np.zeros((s.shape[0], n + 1))
        x = run[:, 1:]
        if (s0 > 0).any():  # else no sample is at or before a left end
            np.copyto(x, mags, where=np.arange(n) >= s0)
        else:
            x[...] = mags
        # Without a tail term the rows, all >= +0, are already final.
        if self.p == POS_INF:
            run[:, 1:] = self.weight._accumulate(x, dt, np.maximum)
            if isinstance(tail, np.ndarray):
                np.maximum(run, tail, out=run)
            return self._finite(run)
        x **= self.p
        x *= dt
        run[:, 1:] = self.weight._accumulate(x, dt, np.add)
        if isinstance(tail, np.ndarray):
            run += tail
        return self._finite(np.power(run, 1.0 / self.p, out=run))

    def _finite(self, out: np.ndarray) -> np.ndarray:
        """``out``, refused (``ValueError``) where a norm overflowed float64:
        samples are finite, so any ``inf`` or ``nan`` is an overflow."""
        if np.isfinite(out).all():
            return out
        raise ValueError(f"{self.name}: a norm overflows float64")

    # -- public norms ------------------------------------------------------------

    def seminorm(self, f: TimeFunction, iv: Interval) -> float:
        """The family seminorm of ``f`` over ``(iv.s, iv.t]``."""
        if iv.t == POS_INF:
            return self.future_norm(f, iv.s)
        g = f.grid
        si = NEG_INF if iv.s == NEG_INF else g.index_of(iv.s)
        ti = g.index_of(iv.t)
        if si >= ti:
            raise ValueError("empty window")
        return float(self.seminorms(f, [si], [ti])[0])

    def past_norm(self, f: TimeFunction, t: float) -> float:
        """Left-expanded norm over ``(-inf, t]``."""
        return self.past_norms([f], t)[0]

    def past_norms(self, fs, t: float) -> list[float]:
        """:meth:`past_norm` of every function of ``fs`` (a batch, or
        functions on one grid): one :meth:`_seminorms` call on their rows."""
        if not len(fs):
            return []
        fs = TimeBatch.stack(fs)
        g, B, ti = fs.grid, len(fs), fs.grid.index_of(t)
        if ti - g.i0 > g.n:
            raise ValueError("window end beyond represented horizon")
        mags, tails = self._magnitudes(fs.samples[:, :max(ti - g.i0, 0)],
                                       fs.tails)
        return self._seminorms(g.i0, g.dt, tails, mags, np.arange(B),
                               np.full(B, NEG_INF), np.full(B, ti)).tolist()

    def past_norms_all_t(self, f: TimeFunction) -> np.ndarray:
        """``past_norm`` at every grid instant ``i0 .. i1`` (length n + 1)."""
        g = f.grid
        mags, tail = self._magnitudes(f.samples[None], f.tail_value[None])
        return self._running(g.i0, g.dt, tail, mags, np.array([NEG_INF]))[0]

    def future_norm(self, f: TimeFunction, s: float) -> float:
        """``sup_{t > s} |f|_{s,t}`` with ``t`` running to the horizon."""
        return self.future_norms(TimeBatch.stack([f]), s)[0]

    def future_norms(self, fs: TimeBatch, s: float) -> list[float]:
        """:meth:`future_norm` of every function of the batch ``fs``, in
        order: one :meth:`_running` call on the rows of the stack, each
        with its own tail coefficient."""
        g = fs.grid
        si = NEG_INF if s == NEG_INF else float(g.index_of(s))
        if si >= g.i1:
            raise ValueError("window start at or beyond the horizon")
        if not len(fs):
            return []
        mags, tails = self._magnitudes(fs.samples, fs.tails)
        run = self._running(g.i0, g.dt, tails, mags, np.full(len(fs), si))
        return run.max(axis=1).tolist()

    def bounding_norm(self, f: TimeFunction) -> float:
        """``sup_t |f|_t``: the norm of the bounding space."""
        return self.bounding_norms([f])[0]

    def bounding_norms(self, fs) -> list[float]:
        """:meth:`bounding_norm` of every function of ``fs`` (a batch, or
        functions on one grid): its :meth:`future_norms` from ``-inf``."""
        return self.future_norms(TimeBatch.stack(fs), NEG_INF) if len(fs) else []

    def __repr__(self) -> str:
        return f"FittedFamily({self.name!r}, p={self.p}, weight={self.weight})"


def _exp_running(x: np.ndarray, rate: float, dt: float, op) -> np.ndarray:
    """``op``-accumulate of ``x[..., j] exp(-rate (c - j) dt)`` over ``j <= c``.

    ``op`` is ``np.add`` (weighted running sums) or ``np.maximum`` (weighted
    running maxima), along the last axis.  A prefix-doubling scan (Hillis &
    Steele, CACM 29(12), 1986): for ``k = 1, 2, 4, ...`` below the row's
    length, each value takes in the value ``k`` cells back decayed by
    ``exp(-rate k dt)``, until that decay is 0.0.  So each value is the
    ``op`` of its own lags in an order fixed by the lags alone, with no term
    rescaled: it reads only the samples up to it, and zeros before a row's
    first sample leave it as it is.  O(n log n); the result overwrites
    ``x``.
    """
    k = 1
    while k < x.shape[-1]:
        decay = math.exp(-rate * k * dt)
        if decay == 0.0:
            break
        op(x[..., k:], x[..., :-k] * decay, out=x[..., k:])
        k *= 2
    return x


def _runs(rows: np.ndarray, n: int, p: float = 1.0) -> np.ndarray:
    """Runs of ``n`` consecutive elements of ``rows`` raised to the power
    ``p``, laid back to back and followed by ``n`` zeros, one from each
    element: a strided view."""
    x = np.zeros(rows.size + n)
    x[:rows.size].reshape(rows.shape)[...] = rows
    if p != 1.0:
        x **= p
    return np.ndarray((rows.size + 1, n), x.dtype, x, 0,
                      (x.itemsize, x.itemsize))


# Bucket lengths of the window kernels: powers of two, at least
# _BUCKET_FLOOR.  A call whose items fit in one bucket of _ONE_BUCKET
# elements keeps one, since a bucket costs a few numpy calls; any other
# gathers at most _PIECE elements (64 KiB) at a time, which the allocator
# recycles instead of mapping fresh pages for each call.
_BUCKET_FLOOR = 32
_ONE_BUCKET = 1 << 14
_PIECE = 1 << 13


def _buckets(need: np.ndarray, piece: int) -> list:
    """The items of positive ``need`` in buckets ``(idx, n)``, the longest
    first, ``n`` the largest need in ``idx``.  Items whose needs round up
    to the same power of two, at least ``_BUCKET_FLOOR``, share a bucket,
    cut in pieces of at most ``piece`` elements (or one item), unless every
    item fits in one bucket of ``_ONE_BUCKET`` elements."""
    order = np.argsort(-need)[:np.count_nonzero(need)]
    srt = need[order]
    top = int(need.max())
    if order.shape[0] * top <= _ONE_BUCKET:
        return [(order, top)] if order.size else []
    cap = np.maximum(_BUCKET_FLOOR, np.left_shift(
        1, np.frexp(srt - 1)[1], dtype=np.int64))
    cut = [0, *(np.flatnonzero(cap[1:] != cap[:-1]) + 1).tolist(), srt.size]
    out = []
    for a, b in zip(cut, cut[1:]):
        step = max(1, piece // int(srt[a]))
        out += [(order[c:min(c + step, b)], int(srt[c]))
                for c in range(a, b, step)]
    return out


# -- axiom checking -----------------------------------------------------------


@dataclass
class ConditionResult:
    passed: bool
    checks: int
    witness: Optional[dict] = None


@dataclass
class NormReport:
    """Outcome of the five family axioms on a probe set."""

    family: str
    conditions: dict = field(default_factory=dict)
    alpha: float = POS_INF
    K_declared: float = 1.0
    K_observed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "passed": self.passed,
            "alpha": self.alpha,
            "K_declared": self.K_declared,
            "K_observed": self.K_observed,
            "conditions": {
                k: {"passed": c.passed, "checks": c.checks, "witness": c.witness}
                for k, c in self.conditions.items()
            },
        }


# Raw words one read of a draw stream fetches.
_WORDS = 512


@contextmanager
def _pcg64_draws(gen):
    """``(integers, random)`` on the raw words of the PCG64 generator ``gen``:
    bit for bit what ``gen.integers(lo, hi)`` and ``gen.random()`` give, and
    on exit ``gen`` is in the state those calls leave.  As in numpy,
    ``random()`` is a word's top 53 bits, and a range of ``n > 1`` values is
    Lemire's method on a 32-bit half, ``x * n >> 32``, drawn again while
    ``x * n mod 2**32 < (2**32 - n) mod n``; a word's high half waits
    (``has_uint32``/``uinteger``) for the next, and one value draws nothing."""
    bg = gen.bit_generator
    if type(bg) is not np.random.PCG64:
        raise ValueError("random windows are read from a PCG64 stream; "
                         f"this generator runs {type(bg).__name__}")
    start = bg.state
    has, u, used = start["has_uint32"], start["uinteger"], 0

    def fetch():
        while True:
            yield from bg.random_raw(_WORDS).tolist()

    words = fetch()

    def integers(lo, hi):
        nonlocal has, u, used
        n = hi - lo
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"ranges of 1 to 2**32 values only, got {n}")
        m, least = 0, ((1 << 32) - n) % n
        while n > 1:
            if has:
                x, has = u, 0
            else:
                v, used = next(words), used + 1
                x, u, has = v & 0xFFFFFFFF, v >> 32, 1
            m = x * n
            if m & 0xFFFFFFFF >= least:
                break
        return lo + (m >> 32)

    def random():
        nonlocal used
        used += 1
        return (next(words) >> 11) * 2.0 ** -53

    try:
        yield integers, random
    finally:
        # Rewind the read-ahead to the words drawn, then set the half.
        bg.state = start
        bg.advance(used)
        bg.state = {**bg.state, "has_uint32": has, "uinteger": u}


def _axiom_draws(rng, probes, m: int, alpha_idx: Optional[int]):
    """The draws of ``check_ff_axioms`` on ``probes``, probe by probe: ``m``
    triples ``r < s < t`` in its grid, ``m`` (bump, shift) edits and ``m``
    triples of span at most ``alpha_idx``, as arrays ``(tri, bump, shift,
    cmp_tri)``.  A triple draws its span in ``[2, cap]``, then ``r`` so
    that ``t = r + span`` stays in the grid, then ``s`` in ``(r, t)``."""
    tri, edits, cmp_tri = [], [], []
    with _pcg64_draws(rng) as (integers, random):
        def triples(out, g, cap):
            for _ in range(m):
                span = integers(2, max(3, cap + 1))
                r = integers(g.i0, g.i1 - span + 1)
                out += (r, integers(r + 1, r + span), r + span)

        for f in probes:
            g = f.grid
            triples(tri, g, g.n)
            for _ in range(m):
                edits += (random(), integers(-g.n, g.n))
            triples(cmp_tri, g, min(g.n, alpha_idx or g.n))
    shape = (len(probes), m)
    bump, shift = np.array(edits).reshape(*shape, 2).transpose(2, 0, 1)
    tri, cmp_tri = (np.array(x, np.int64).reshape(*shape, 3)
                    for x in (tri, cmp_tri))
    return tri, 1.0 + bump, shift.astype(np.int64), cmp_tri


# Relative slack of the monotonicity and split-triangle checks.
_AXIOM_RTOL = 1e-12

# Float64 elements of the magnitude rows one window call of
# ``check_ff_axioms`` stacks (256 KiB), which sets how many consecutive
# probes share a call (at least one): each probe stacks m + 1 rows of the
# widest grid.  The terms a call gathers are bounded apart, by _PIECE.
_AXIOM_BUDGET = 1 << 15


def check_ff_axioms(fam: FittedFamily, probes, rng=None,
                    n_triples: int = 50) -> NormReport:
    """Exercise the five defining conditions on probes and random windows.

    Locality and shift invariance are required to hold exactly; the
    monotonicity and split-triangle conditions get a relative slack of
    ``_AXIOM_RTOL`` for floating-point rounding.  Failures carry a witness
    with the probe index and window: the first failing window in probe
    order, then triple order.  The random windows and edits of the whole
    check are drawn first, as one numpy call per draw would give them
    (:func:`_axiom_draws`; a bit generator other than PCG64 is refused with
    a ``ValueError``).  Probes then go in chunks of consecutive probes, as
    many as stack at most ``_AXIOM_BUDGET`` row elements: a chunk stacks
    its probes' magnitude rows with a row per edit, zero inside the edit's
    window, and evaluates every window of every condition, each on its own
    row and origin, in one :meth:`FittedFamily._seminorms` call.  Every
    window starts at or after its origin, so none reads a tail.  None builds
    a shifted or edited :class:`TimeFunction`.
    """
    rng = np.random.default_rng(rng)
    res = {name: ConditionResult(True, 0) for name in
           ("locality", "shift_invariance", "monotone_in_s",
            "triangle_over_split", "window_comparison")}
    dt = probes[0].grid.dt
    alpha_idx = None if fam.alpha == POS_INF else max(2, to_cells(fam.alpha, dt))
    m = n_triples
    width = max(f.grid.n for f in probes)
    k_obs = 0.0
    draws = _axiom_draws(rng, probes, m, alpha_idx)

    def record(name, failed, witness):
        c = res[name]
        c.checks += failed.size
        if failed.any():
            c.passed = False
            k, j = np.unravel_index(np.argmax(failed), failed.shape)
            c.witness = c.witness or witness(int(k), int(j))

    per = max(1, _AXIOM_BUDGET // ((m + 1) * width))
    for c0 in range(0, len(probes), per):
        fs, tri, bump, h, cmp_tri = (x[c0:c0 + per] for x in (probes, *draws))
        stack = np.zeros((len(fs), m + 1, width))  # zero past each grid
        i0 = np.repeat([[f.grid.i0] for f in fs], 7 * m, axis=1)
        for k, f in enumerate(fs):
            g = f.grid
            stack[k, 0, :g.n] = fam._rownorm(f.samples)
            # Row 1 + j stands for f minus its edit j: the bump outside
            # (s, t], exactly 0 inside, which is all that locality reads.
            idx = np.arange(g.i0 + 1, g.i1 + 1)
            outside = (idx <= tri[k, :, 1:2]) | (idx > tri[k, :, 2:])
            np.multiply(outside, bump[k, :, None], out=stack[k, 1:, :g.n])
        # The 7 m windows of each probe k of the chunk, m at a time:
        # locality's (s, t] on the edited differences; (s, t], (r, t] and
        # (r, s]; (s, t] on shift_left(f, h dt) for the drawn shift h, which
        # is (s - h, t - h] read on the grid origin i0 - h; the comparison
        # triples' (r, s] and (r, t].  Probe c0 + k owns rows k (m + 1) ..
        # of the stack: its magnitudes, then the row of edit j in row
        # k (m + 1) + 1 + j.
        r, s, t = tri.transpose(2, 0, 1)
        rc, sc, tc = cmp_tri.transpose(2, 0, 1)
        i0[:, 4 * m:5 * m] -= h
        rows = np.zeros((len(fs), 7 * m), dtype=np.int64)
        rows[:, :m] = 1 + np.arange(m)
        rows += (m + 1) * np.arange(len(fs))[:, None]
        s, t = (np.concatenate([s, s, r, r, s - h, rc, rc], axis=1).ravel()
                .astype(float),
                np.concatenate([t, t, t, s, t - h, sc, tc], axis=1).ravel())
        v, nst, nrt, nrs, a, near, far = np.moveaxis(fam._seminorms(
            i0.ravel(), dt, 0.0, stack.reshape(-1, width),
            rows.ravel(), s, t).reshape(len(fs), 7, m), 1, 0)

        def window(k, j):
            return {"probe": c0 + k, "window": [x * dt for x in
                                                tri[k, j, 1:].tolist()]}

        def triple(k, j, tris=tri):
            return {"probe": c0 + k,
                    "triple": [x * dt for x in tris[k, j].tolist()]}

        # (1) locality: each edit is strictly outside its (s, t].
        record("locality", v != 0.0, lambda k, j: {
            **window(k, j), "value": float(v[k, j])})
        # (2)-(4) shift invariance, monotonicity and the split triangle.
        record("shift_invariance", a != nst, lambda k, j: {
            **window(k, j), "shift": int(h[k, j]) * dt,
            "lhs": float(a[k, j]), "rhs": float(nst[k, j])})
        record("monotone_in_s",
               nst > nrt + _AXIOM_RTOL * np.maximum(1.0, nrt),
               lambda k, j: {**triple(k, j), "lhs": float(nst[k, j]),
                             "rhs": float(nrt[k, j])})
        split = nrs + nst
        record("triangle_over_split",
               nrt > split + _AXIOM_RTOL * np.maximum(1.0, split),
               lambda k, j: {**triple(k, j), "lhs": float(nrt[k, j]),
                             "rhs": float(split[k, j])})
        # (5) window comparison within span alpha.
        record("window_comparison", (near > 0.0) & (far == 0.0),
               lambda k, j: {**triple(k, j, cmp_tri), "ratio": "inf"})
        pos = far > 0.0
        k_obs = max(k_obs, float(np.max(near[pos] / far[pos], initial=0.0)))
    if np.isfinite(fam.K) and k_obs > fam.K * (1.0 + 1e-9):
        res["window_comparison"].passed = False
        res["window_comparison"].witness = res["window_comparison"].witness or {
            "K_observed": k_obs, "K_declared": fam.K}
    return NormReport(family=fam.name, conditions=res, alpha=fam.alpha,
                      K_declared=fam.K, K_observed=k_obs)


# -- memory classification -------------------------------------------------


def classify(fam: FittedFamily) -> dict:
    """Memory class from the weight: finite memory, tapered, or neither."""
    w = fam.weight
    if w.support < POS_INF:
        return {"class": "finite_memory", "memory": w.support}
    if w.integrable:
        return {"class": "tapered", "memory": None}
    return {"class": "neither", "memory": None}


def taper_delta(fam: FittedFamily, eps: float, c: float) -> Optional[float]:
    """Window length beyond which the past contributes at most ``eps``.

    Returns the closed-form ``delta`` such that functions pointwise bounded
    by ``c`` satisfy ``|f|_t <= |f|_{t-delta,t} + eps``, or ``None`` when the
    weight is not integrable (no finite window works; a single far-past
    spike keeps a unit gap forever).  ``eps`` and ``c`` must be positive and
    finite.
    """
    _positive(eps, "eps")
    _positive(c, "c")
    w = fam.weight
    if w.support < POS_INF:
        return float(w.support)
    if not w.integrable:
        return None
    # Box and table weights have finite support, a uniform one is not
    # integrable: only an exponential weight is left.
    # delta = log(c / eps) / r at p = inf; else it solves
    # c * (int_delta^inf w)^(1/p) = eps, i.e. e^{-r delta} / r = (eps / c)^p.
    # Where that ratio or its power under- or overflows, the same closed
    # form is taken in logs.
    r, sup_p = w.params["rate"], fam.p == POS_INF
    try:
        x = c / eps if sup_p else r * (eps / c) ** fam.p
    except OverflowError:
        x = POS_INF
    if 0.0 < x < POS_INF:
        return max(0.0, (math.log(x) if sup_p else -math.log(x)) / r)
    logs = math.log(c) - math.log(eps)
    return max(0.0, (logs if sup_p else fam.p * logs - math.log(r)) / r)


def taper_certificate(fam: FittedFamily, delta: float, eps: float, c: float,
                      probes, t: float) -> dict:
    """Probe check that ``delta`` works: max gap over bounded probes <= eps.

    Probes are rescaled to pointwise bound ``c``; ``delta`` is snapped up to
    the grid (widening the window only strengthens the inequality).
    """
    dt = probes[0].grid.dt
    delta_g = ceil_cells(delta, dt) * dt
    worst = 0.0
    for f in probes:
        m = max(float(np.max(np.abs(f.samples))),
                float(np.max(np.abs(f.tail_value))))
        h = f if m == 0.0 else f * (c / m)
        gap = fam.past_norm(h, t) - fam.seminorm(h, Interval(t - delta_g, t))
        worst = max(worst, gap)
    return {"delta": delta, "delta_grid": delta_g, "eps": eps, "c": c,
            "max_gap": worst, "certified": bool(worst <= eps)}

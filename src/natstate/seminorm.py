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
        """``w(j dt)`` for the lags ``j < n``; a uniform weight gives one
        read-only 1.0 that broadcasts."""
        if self.form == "uniform":
            return _ONE
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

        Uniform, box and exponential weights take O(n) recurrences; a table
        weight takes one full convolution, or one maximum, per position.
        Uniform and exponential weights accumulate in place and return
        ``x``; the other forms leave it as it is.
        """
        n = x.shape[-1]
        if self.form == "uniform":
            return op.accumulate(x, axis=-1, out=x)
        if self.form == "exp":
            return _exp_running(x, self.params["rate"], dt, op)
        if self.form == "box":
            win = to_cells(self.params["memory"], dt)
            if op is np.add:
                c = np.cumsum(x, axis=-1)
                out = c.copy()
                if n > win:
                    out[..., win:] = c[..., win:] - c[..., :-win]
                return out
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
        wker = self(np.arange(n) * dt)
        if op is np.add:
            return np.stack([np.convolve(row, wker)[:n] for row in x])
        out = np.empty_like(x)
        for c in range(n):
            out[..., c] = np.max(x[..., :c + 1] * wker[c::-1], axis=-1)
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

    def _scalar_tail(self, tail: np.ndarray) -> float:
        return float(self._rownorm(tail[None, :])[0])

    def _tail_coef(self, tail_value: np.ndarray) -> float:
        """The factor of a constant tail in every tail term (see
        :meth:`_tail`): ``|tail| ** p``, or ``|tail|`` for ``p = inf``; 0.0
        for a zero tail."""
        if not tail_value.any():
            return 0.0
        mag = self._scalar_tail(tail_value)
        coef = mag if self.p == POS_INF else mag ** self.p
        # A nonzero tail whose factor underflows keeps the least positive
        # one, so its unbounded past still diverges and is still refused.
        return coef or math.ulp(0.0)

    # -- batched windows ---------------------------------------------------------

    def seminorms(self, f: TimeFunction, s_idx, t_idx) -> np.ndarray:
        """``|f|_{s,t}`` for every window ``(s_idx[k], t_idx[k]]`` in one pass.

        Window ends are grid indices; ``s_idx`` may hold ``-inf`` for the
        left-expanded norm.  The part of a window at or before the grid
        start is the closed-form tail term, and a finite-support weight clips
        each window to its support, so ``|f|_t = |f|_{t-M,t}`` holds bit for
        bit.  Weighted sums run sequentially over lags from the window end,
        so a window's value depends only on the samples inside it and the
        tail: not on the grid's extent, nor on the other windows.
        """
        g = f.grid
        s = np.asarray(s_idx, dtype=float).ravel()
        t = np.asarray(t_idx, dtype=np.int64).ravel()
        if s.shape != t.shape:
            raise ValueError("need one left end per window end")
        # Norm samples up to the latest window end; zeros after it keep a
        # sup family's rows grid-long, as _exp_running's scaling needs.
        hi = int(t.max(initial=g.i0)) - g.i0
        if hi > g.n:
            raise ValueError("window end beyond represented horizon")
        if not (s < t).all():
            raise ValueError("empty window")
        mags = np.zeros((1, g.n if self.kind == "sup" else hi))
        mags[0, :hi] = self._rownorm(f.samples[:hi])
        return self._seminorms(g.i0, g.dt, self._tail_coef(f.tail_value),
                               mags, 0, s, t)

    def _seminorms(self, i0, dt: float, tail, mags: np.ndarray, rows,
                   s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """:meth:`seminorms` from a stack of sample-magnitude rows on grids
        of step ``dt``.  Window ``k`` reads row ``rows[k]``, whose first
        sample sits at instant ``i0[k] + 1`` (a row may be zero-padded past
        its grid's end), with tail coefficient ``tail[k]`` from
        :meth:`_tail_coef`; ``rows``, ``i0`` and ``tail`` may each be one
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
            return np.maximum(vals, tail)
        return (vals * dt + tail) ** (1.0 / self.p)

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
        """:meth:`_seminorms` of the sup kind: windows that share a row, an
        origin-relative left end and a tail share one :meth:`_running` row
        (a window and its shifted copy; ``(r, t]`` and ``(r, s]``), read at
        each window's end.  On a uniform or box weight, whose recurrence
        only carries a prefix on, a running row runs from its left end to
        the last column its windows read; on any other the whole row, since
        an exponential one scales by the row's own end.  A row cut at its
        left end starts from a zero tail term, as the whole row has there.
        The running rows go in buckets of similar length (:func:`_buckets`),
        each holding its samples and running cells, gathered from the rows
        laid back to back with one pad."""
        keys = np.zeros((3, t.shape[0]))
        keys[0], keys[1], keys[2] = rows, s - i0, tail
        order = np.lexsort(keys[::-1])
        keys = keys[:, order]
        new = np.ones(t.shape, dtype=bool)
        new[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
        # Window k reads running row group[k].
        group = np.empty(t.shape, dtype=np.int64)
        group[order] = np.cumsum(new) - 1
        row, left, tail = keys[:, new]
        col = np.maximum(t - i0, 0)
        if self.weight.form in ("uniform", "box"):
            lo = np.maximum(left, 0).astype(np.int64)  # -inf: column 0
            hi = np.maximum(np.maximum.reduceat(
                col[order], np.flatnonzero(new)), lo + 1)
        else:
            lo, hi = np.zeros(row.shape[0], dtype=np.int64), mags.shape[1]
        start = row.astype(np.int64) * mags.shape[1] + lo
        col = col - lo[group]
        buckets = _buckets(2 * (hi - lo) + 1, 2 * _PIECE)
        runs = _runs(mags, buckets[0][1] // 2)  # the longest row's samples
        # Running row g is row pos[g] of bucket which[g].
        which, pos = np.full((2, row.shape[0]), -1)
        vals = np.empty(t.shape)
        for b, (idx, c) in enumerate(buckets):
            run = self._running(0, dt, tail[idx], runs[start[idx], :c // 2],
                                left[idx] - lo[idx])
            if isinstance(idx, slice):  # every row, in order
                return run[group, col]
            which[idx], pos[idx] = b, np.arange(idx.shape[0])
            sel = np.flatnonzero(which[group] == b)
            vals[sel] = run[pos[group[sel]], col[sel]]
        return vals

    def _tail(self, dt: float, tail, s: np.ndarray,
              t: np.ndarray) -> np.ndarray | float:
        """Tail term of each window ``(s, t]``, its ends counted in steps
        from the grid origin and ``tail`` its :meth:`_tail_coef` (arrays
        that broadcast): the closed-form weight mass of the part of the
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
        one row of ``mags`` for every left end or one per left end.

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
        if isinstance(tail, np.ndarray):
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
            return run
        x **= self.p
        x *= dt
        run[:, 1:] = self.weight._accumulate(x, dt, np.add)
        if isinstance(tail, np.ndarray):
            run += tail
        return np.power(run, 1.0 / self.p, out=run)

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
        return self.seminorm(f, Interval.upto(t))

    def past_norms_all_t(self, f: TimeFunction) -> np.ndarray:
        """``past_norm`` at every grid instant ``i0 .. i1`` (length n + 1)."""
        g = f.grid
        return self._running(g.i0, g.dt, self._tail_coef(f.tail_value),
                             self._rownorm(f.samples)[None],
                             np.array([NEG_INF]))[0]

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
        tails = np.array([self._tail_coef(tail) for tail in fs.tails])
        run = self._running(g.i0, g.dt, tails, self._rownorm(fs.samples),
                            np.full(len(fs), si))
        return run.max(axis=1).tolist()

    def bounding_norm(self, f: TimeFunction) -> float:
        """``sup_t |f|_t``: the norm of the bounding space."""
        return float(np.max(self.past_norms_all_t(f)))

    def __repr__(self) -> str:
        return f"FittedFamily({self.name!r}, p={self.p}, weight={self.weight})"


_EXP_BLOCK = 64.0


def _exp_running(x: np.ndarray, rate: float, dt: float, op) -> np.ndarray:
    """``op``-accumulate of ``x[..., j] exp(-rate (c - j) dt)`` over ``j <= c``.

    ``op`` is ``np.add`` (weighted running sums) or ``np.maximum`` (weighted
    running maxima), along the last axis.  Inside a block each term is scaled
    by ``exp(rate (j - end) dt) <= 1`` and the accumulation scaled back, and
    each block starts from the previous block's last value decayed across
    it.  A single block is one scaled accumulation.  Blocks span at most
    ``_EXP_BLOCK`` in ``rate * time``, so a term is scaled down by at most
    ``exp(-64)`` (about 1.6e-28): neither factor overflows, and only a term
    below ~1e-280 itself is pushed into the subnormal range.  The result
    overwrites ``x``: each block is read before it is written.
    """
    n = x.shape[-1]
    block = (n if rate * n * dt <= _EXP_BLOCK
             else max(1, int(_EXP_BLOCK / (rate * dt))))
    out = x
    for b0 in range(0, n, block):
        m = min(block, n - b0)
        j = np.arange(1, m + 1)
        scaled = x[..., b0:b0 + m] * np.exp(rate * (j - m) * dt)
        if b0:
            scaled[..., 0] = op(scaled[..., 0],
                                out[..., b0 - 1] * math.exp(-rate * m * dt))
        out[..., b0:b0 + m] = (op.accumulate(scaled, axis=-1)
                               * np.exp(rate * (m - j) * dt))
    return out


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
    item fits in one bucket of ``_ONE_BUCKET`` elements; one bucket of every
    item has the index ``slice(None)``."""
    top = int(need.max())
    if need.shape[0] * top <= _ONE_BUCKET and need.min() > 0:
        return [(slice(None), top)]
    order = np.argsort(-need)[:np.count_nonzero(need)]
    srt = need[order]
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


# Draws that one vectorized pass of ``_read_draws`` covers at most.
_DRAW_BLOCK = 1024
_LOW = np.uint64(0xFFFFFFFF)


def _read_draws(gen, double, lo, a, b, dep):
    """Run scalar draws on a PCG64 generator from its raw words read in bulk.

    Draw ``k`` is ``gen.random()`` where ``double[k]``, else
    ``gen.integers(lo[k], lo[k] + n)`` with ``n = a[k] + b[k] *
    ints[dep[k]]``: a range may read the result of one earlier draw whose
    own range is fixed (``b == 0``).  Returns ``(ints, floats)``, each value
    bit for bit what one numpy call per draw gives, and leaves ``gen`` in
    the state those calls leave.  As in numpy, ``random()`` is a word's top
    53 bits, and a range of ``n`` values is Lemire's method on 32-bit
    halves: ``x * n >> 32``, drawing ``x`` again while ``x * n mod 2**32 <
    (2**32 - n) mod n``.  A word's high half waits in the generator state
    (``has_uint32``/``uinteger``) for the next 32-bit draw, and ``n == 1``
    draws nothing.  A pass assumes every draw takes its nominal share of
    the stream and keeps the prefix before the first one that does not (a
    rejection, or one value through ``dep``), which takes a scalar step.
    """
    bg = gen.bit_generator
    if type(bg) is not np.random.PCG64:
        raise ValueError("random windows are read in bulk from a PCG64 "
                         f"stream; this generator runs {type(bg).__name__}")
    start = bg.state
    has, u = start["has_uint32"], start["uinteger"]
    N = len(double)
    ints, floats = np.zeros(N, np.int64), np.zeros(N)
    halves = ~double & ((b != 0) | (a != 1))  # nominally one 32-bit half
    words = np.zeros(0, np.uint64)
    p = k = 0  # words read, draws done

    def word(i):
        nonlocal words
        if i >= len(words):
            words = np.concatenate([words, bg.random_raw(N - k + 64)])
        return words[i]

    def bounded(n):
        # One scalar draw of n values from the stream, as numpy takes it.
        nonlocal p, has, u
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"ranges of 1 to 2**32 values only, got {n}")
        m, least = 0, ((1 << 32) - n) % n
        while n > 1:
            if has:
                x, has = u, 0
            else:
                v = int(word(p))
                p, x, u, has = p + 1, v & 0xFFFFFFFF, v >> 32, 1
            m = x * n
            if m & 0xFFFFFFFF >= least:
                break
        return m >> 32

    try:
        while k < N:
            e = min(N, k + _DRAW_BLOCK)
            word(p + e - k)
            sl, dbl, half = slice(k, e), double[k:e], halves[k:e]
            # The c-th half of the pass is the buffered one for c = -1,
            # else half c % 2 of the word fetched by the even c at or
            # before it.
            cc = np.cumsum(half) - 1 - has
            fetch = dbl | (half & (cc % 2 == 0))
            w = p + np.cumsum(fetch) - 1
            hi = np.flatnonzero(half)
            c = cc[hi]
            wh = w[hi[np.arange(len(hi)) - (c & 1)]]
            x = np.zeros(e - k, np.uint64)
            x[hi] = words[wh] >> (32 * (c & 1)).astype(np.uint64) & _LOW
            if has and len(hi):
                x[hi[0]] = u
            floats[sl][dbl] = (words[w[dbl]] >> np.uint64(11)) * 2.0 ** -53
            for _ in range(2):  # the fixed ranges, then those that read them
                n = a[sl] + b[sl] * ints[dep[sl]]
                nn = np.maximum(n, 1).astype(np.uint64)
                m = x * nn
                ints[sl] = lo[sl] + (m >> np.uint64(32)).astype(np.int64)
            bad = half & ((n < 2) | (n > 1 << 32)
                          | (m & _LOW < (np.uint64(1 << 32) - nn) % nn))
            q = int(np.argmax(bad)) if bad.any() else e - k
            p += int(np.count_nonzero(fetch[:q]))
            j = int(np.count_nonzero(half[:q])) - 1  # the last half read
            if j >= 0:
                has = int(c[j] % 2 == 0)
                u = int(words[wh[j]] >> np.uint64(32)) if c[j] >= 0 else u
            # The draw that broke the pass takes a scalar step, and so do
            # the next _DRAW_BLOCK // 16 when it broke that early.
            k += q
            end = min(N, k + (1 if q > _DRAW_BLOCK // 16 else _DRAW_BLOCK // 16))
            for i in range(k, end):
                if double[i]:
                    floats[i] = (int(word(p)) >> 11) * 2.0 ** -53
                    p += 1
                else:
                    ints[i] = lo[i] + bounded(int(a[i] + b[i] * ints[dep[i]]))
            k = end
    finally:
        # Rewind the read-ahead: the state after p words and the half
        # waiting in it.
        bg.state = start
        bg.advance(p)
        state = bg.state
        state["has_uint32"], state["uinteger"] = has, u
        bg.state = state
    return ints, floats


def _axiom_draws(rng, probes, m: int, alpha_idx: Optional[int]):
    """Every random draw of ``check_ff_axioms``, in the order of a loop over
    probes: for each probe ``m`` triples ``r < s < t`` in its grid, ``m``
    (bump, shift) edit pairs, and ``m`` triples of span at most
    ``alpha_idx``.  A triple draws its span in ``[2, cap]``, ``r`` so that
    ``t = r + span`` stays in the grid, then ``s`` in ``(r, t)``.  Probes
    are read in groups of about ``_DRAW_BLOCK`` draws, which bounds the
    memory the reader holds."""
    # Roles: span, r, s - r, random(), shift, span within alpha.
    role = np.concatenate([np.tile(x, m) for x in ([0, 1, 2], [3, 4],
                                                    [5, 1, 2])])
    b = np.array([0, -1, 1, 0, 0, 0])[role]
    back = np.arange(8 * m) + np.array([0, -1, -2, 0, 0, 0])[role]
    per = max(1, _DRAW_BLOCK // max(1, 8 * m))
    parts = []
    for c0 in range(0, len(probes), per):
        fs = probes[c0:c0 + per]
        n = np.array([[f.grid.n] for f in fs])
        i0 = np.array([[f.grid.i0] for f in fs])
        cap = n if alpha_idx is None else np.minimum(n, alpha_idx)
        one = np.ones_like(n)
        lo = np.hstack([2 * one, i0, one, 0 * one, -n, 2 * one])[:, role]
        a = np.hstack([np.maximum(3, n + 1) - 2, n + 1, -one, one, 2 * n,
                       np.maximum(3, cap + 1) - 2])[:, role]
        dep = back + 8 * m * np.arange(len(fs))[:, None]
        ints, floats = (x.reshape(len(fs), 8 * m) for x in _read_draws(
            rng, np.tile(role == 3, len(fs)), lo.ravel(), a.ravel(),
            np.tile(b, len(fs)), dep.ravel()))
        parts.append((ints[:, :3 * m], 1.0 + floats[:, 3 * m:5 * m:2],
                      ints[:, 3 * m + 1:5 * m:2], ints[:, 5 * m:]))
    tri, bump, shift, cmp_tri = (np.concatenate(x) for x in zip(*parts))

    def triples(x):
        span, r, ds = np.moveaxis(x.reshape(len(x), m, 3), 2, 0)
        return np.stack([r, r + ds, r + span], axis=2)

    return triples(tri), bump, shift, triples(cmp_tri)


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
    order, then triple order.  The random draws of the whole check are read
    first, in bulk from the generator's raw PCG64 words (``_read_draws``),
    and come out as the scalar ``integers``/``random`` calls of a per-probe
    loop would give them; any other bit generator is refused with a
    ``ValueError``.  Probes then go in chunks of consecutive probes, as
    many as stack at most ``_AXIOM_BUDGET`` row elements: a chunk stacks
    its probes' magnitude rows with the rows of their edited differences
    and evaluates every window of every condition, each on its own row,
    origin and tail, in one :meth:`FittedFamily._seminorms` call.  None
    builds a shifted or edited :class:`TimeFunction`.
    """
    rng = np.random.default_rng(rng)
    report = NormReport(family=fam.name, alpha=fam.alpha, K_declared=fam.K)
    res = {name: ConditionResult(True, 0) for name in
           ("locality", "shift_invariance", "monotone_in_s",
            "triangle_over_split", "window_comparison")}
    dt = probes[0].grid.dt
    alpha_idx = None if fam.alpha == POS_INF else max(2, to_cells(fam.alpha, dt))
    m = n_triples
    width = max(f.grid.n for f in probes)
    k_obs = 0.0
    tri, bump, shift, cmp_tri = _axiom_draws(rng, probes, m, alpha_idx)
    i0s = np.array([f.grid.i0 for f in probes])
    tails = np.array([[fam._tail_coef(f.tail_value),
                       fam._tail_coef(f.tail_value - (f.tail_value + 1.0))]
                      for f in probes])

    def record(name, failed, witness):
        c = res[name]
        c.checks += failed.size
        if failed.any():
            c.passed = False
            k, j = np.unravel_index(np.argmax(failed), failed.shape)
            c.witness = c.witness or witness(int(k), int(j))

    per = max(1, _AXIOM_BUDGET // ((m + 1) * width))
    # One stack for every chunk, zero past each probe's grid.
    whole = np.zeros((min(per, len(probes)), m + 1, width))
    for c0 in range(0, len(probes), per):
        fs = probes[c0:c0 + per]
        c1 = c0 + len(fs)
        stack = whole[:len(fs)]
        stack[...] = 0.0
        for k, f in enumerate(fs):
            g = f.grid
            stack[k, 0, :g.n] = fam._rownorm(f.samples)
            idx = np.arange(g.i0 + 1, g.i1 + 1)
            outside = ((idx <= tri[c0 + k, :, 1:2])
                       | (idx > tri[c0 + k, :, 2:]))
            diff = f.samples - np.where(outside[:, :, None],
                                        f.samples + bump[c0 + k, :, None, None],
                                        f.samples)
            stack[k, 1:, :g.n] = fam._rownorm(
                diff.reshape(-1, f.dim)).reshape(m, g.n)
        # The 7 m windows of each probe k of the chunk, m at a time:
        # locality's (s, t] on the edited differences; (s, t], (r, t] and
        # (r, s]; (s, t] on shift_left(f, h dt) for the drawn shift h, which
        # is (s - h, t - h] read on the grid origin i0 - h; the comparison
        # triples' (r, s] and (r, t].  Probe c0 + k owns rows k (m + 1) ..
        # of the stack: its magnitudes, then its difference with edit j in
        # row k (m + 1) + 1 + j.
        r, s, t = tri[c0:c1].transpose(2, 0, 1)
        rc, sc, tc = cmp_tri[c0:c1].transpose(2, 0, 1)
        h = shift[c0:c1]
        i0 = np.repeat(i0s[c0:c1, None], 7 * m, axis=1)
        i0[:, 4 * m:5 * m] -= h
        tail = np.repeat(tails[c0:c1, :1], 7 * m, axis=1)
        tail[:, :m] = tails[c0:c1, 1:]
        rows = np.zeros((len(fs), 7 * m), dtype=np.int64)
        rows[:, :m] = 1 + np.arange(m)
        rows += (m + 1) * np.arange(len(fs))[:, None]
        s, t = (np.concatenate([s, s, r, r, s - h, rc, rc], axis=1).ravel()
                .astype(float),
                np.concatenate([t, t, t, s, t - h, sc, tc], axis=1).ravel())
        v, nst, nrt, nrs, a, near, far = np.moveaxis(fam._seminorms(
            i0.ravel(), dt, tail.ravel(), stack.reshape(-1, width),
            rows.ravel(), s, t).reshape(len(fs), 7, m), 1, 0)

        def window(k, j):
            return {"probe": c0 + k, "window": [x * dt for x in
                                                tri[c0 + k, j, 1:].tolist()]}

        def triple(k, j, tris=tri):
            return {"probe": c0 + k,
                    "triple": [x * dt for x in tris[c0 + k, j].tolist()]}

        # (1) locality: each edit is strictly outside its (s, t].
        record("locality", v != 0.0, lambda k, j: {
            **window(k, j), "value": float(v[k, j])})
        # (2)-(4) shift invariance, monotonicity and the split triangle.
        record("shift_invariance", a != nst, lambda k, j: {
            **window(k, j), "shift": int(shift[c0 + k, j]) * dt,
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
        if np.any(pos):
            k_obs = max(k_obs, float(np.max(near[pos] / far[pos])))
    if np.isfinite(fam.K) and k_obs > fam.K * (1.0 + 1e-9):
        res["window_comparison"].passed = False
        res["window_comparison"].witness = res["window_comparison"].witness or {
            "K_observed": k_obs, "K_declared": fam.K}
    report.conditions = res
    report.K_observed = k_obs
    return report


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

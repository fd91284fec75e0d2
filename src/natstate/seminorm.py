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
from typing import Optional, Sequence

import numpy as np

from .timegrid import (Grid, Interval, TimeFunction, NEG_INF, POS_INF,
                       ceil_cells, to_cells)

__all__ = [
    "Weight",
    "FittedFamily",
    "NormReport",
    "check_ff_axioms",
    "taper_delta",
    "taper_certificate",
    "classify",
    "classify_input_set",
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
        self._lag_tables: dict = {}

    @staticmethod
    def uniform() -> "Weight":
        return Weight("uniform", {}, alpha=POS_INF, K=1.0)

    @staticmethod
    def exponential(rate: float, alpha: float = 1.0) -> "Weight":
        if rate <= 0:
            raise ValueError("rate must be positive")
        return Weight("exp", {"rate": rate}, alpha=alpha, K=math.exp(rate * alpha))

    @staticmethod
    def box(memory: float) -> "Weight":
        if memory <= 0:
            raise ValueError("memory length must be positive")
        return Weight("box", {"memory": memory}, alpha=memory, K=1.0)

    @staticmethod
    def table(edges, values) -> "Weight":
        """Piecewise-constant weight, mainly for counterexample families.

        ``values[k]`` holds on ``[edges[k], edges[k+1])``; zero beyond the
        last edge.
        """
        edges = np.asarray(edges, dtype=float)
        values = np.asarray(values, dtype=float)
        if edges.ndim != 1 or values.shape[0] != edges.shape[0] - 1:
            raise ValueError("need len(values) == len(edges) - 1")
        if np.any(values < 0):
            raise ValueError("weight must be nonnegative")
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
        """``w(j dt)`` for the lags ``j < n``, read-only: a prefix of one
        table per step ``dt``, computed again only for a longer span.  A
        uniform weight keeps no table and gives one 1.0 that broadcasts."""
        if self.form == "uniform":
            return _ONE
        table = self._lag_tables.get(dt)
        if table is None or table.shape[0] < n:
            table = self(np.arange(n) * dt)
            table.flags.writeable = False
            self._lag_tables[dt] = table
        return table[:n]

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
        w = Weight.uniform() if b == POS_INF else Weight.box(b)
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
        if self.vector_norm == "max":
            return np.abs(samples).max(axis=1)
        # np.linalg.norm(samples, axis=1), without its dispatch overhead.
        return np.sqrt((samples * samples).sum(axis=1))

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
        if (t > g.i1).any():
            raise ValueError("window end beyond represented horizon")
        if not (s < t).all():
            raise ValueError("empty window")
        # Norm samples up to the latest window end; zeros after it keep a
        # sup family's rows grid-long, as _exp_running's scaling needs.
        hi = int(t.max(initial=g.i0)) - g.i0
        mags = np.zeros((1, g.n))
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
        which moves only the origin.  The samples of every row up to the
        latest window end are raised to the power ``p`` once, reversed and
        zero-padded, so a window's lags, counted back from its end, are one
        contiguous run of a strided view.  For ``p < inf`` the runs are
        weighted in place and summed in lag order by one
        ``np.add.accumulate``, which gives every window the sequential sum
        of its own span whatever the other windows in the call.
        """
        if not t.size:
            return np.zeros(0)
        if self.kind == "sup":
            run = self._running(i0, dt, tail, mags if mags.shape[0] == 1
                                else mags[rows], s)
            return run[np.arange(t.shape[0]), np.maximum(t - i0, 0)]
        w = self.weight
        if w.support < POS_INF:
            s = np.maximum(s, t - to_cells(w.support, dt))
        s, t = s - i0, t - i0  # ends counted from the origin
        tail = self._tail(dt, tail, s, t)
        # Window k holds samples end[k] - span[k] .. end[k] - 1 of its row;
        # one that ends at or before the origin holds none.
        end = np.maximum(t, 0)
        span = end - np.maximum(s, 0).astype(np.int64)
        n_lags = max(int(span.max()), 1)
        hi = int(end.max())  # no window reads a later sample
        x = np.zeros((mags.shape[0], hi + n_lags))
        x[:, :hi] = mags[:, :hi][:, ::-1]
        if self.p < POS_INF:
            x[:, :hi] **= self.p
        runs = np.ndarray((x.size - n_lags + 1, n_lags), x.dtype, x, 0,
                          (x.itemsize, x.itemsize))
        # Lag j of window k is column hi - end[k] + j of its reversed row,
        # so a window without samples reads the zero padding.
        terms = runs[rows * x.shape[1] + (hi - end)]
        terms *= w._at_lags(n_lags, dt)
        if self.p == POS_INF:
            # Zero past each window's span; a maximum needs no order.
            np.copyto(terms, 0.0, where=np.arange(n_lags) >= span[:, None])
            return np.maximum(terms.max(axis=1), tail)
        np.add.accumulate(terms, axis=1, out=terms)
        # Column -1 of a window without samples sums the padding: 0.0.
        sums = terms[np.arange(span.shape[0]), span - 1]
        return (sums * dt + tail) ** (1.0 / self.p)

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
        np.copyto(x, mags, where=np.arange(n) >= s0)
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
        return self.future_norms([f], s)[0]

    def future_norms(self, fs: Sequence[TimeFunction], s: float) -> list[float]:
        """:meth:`future_norm` of every function of ``fs``, in order: one
        :meth:`_running` call per grid on the stacked rows, each with its
        own tail, never padded (``_exp_running``'s bits depend on length)."""
        groups: dict[Grid, list[int]] = {}
        for k, f in enumerate(fs):
            groups.setdefault(f.grid, []).append(k)
        out = [0.0] * len(fs)
        for g, ks in groups.items():
            si = NEG_INF if s == NEG_INF else float(g.index_of(s))
            if si >= g.i1:
                raise ValueError("window start at or beyond the horizon")
            tails = np.array([self._tail_coef(fs[k].tail_value) for k in ks])
            mags = np.stack([self._rownorm(fs[k].samples) for k in ks])
            run = self._running(g.i0, g.dt, tails, mags, np.full(len(ks), si))
            for k, m in zip(ks, run.max(axis=1).tolist()):
                out[k] = m
        return out

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


def _random_triples(rng, g, n_triples: int, max_span_idx: Optional[int]):
    """Index triples r < s < t inside the grid window, one row each."""
    triples = []
    span_cap = g.n if max_span_idx is None else min(g.n, max_span_idx)
    for _ in range(n_triples):
        span = int(rng.integers(2, max(3, span_cap + 1)))
        r = int(rng.integers(g.i0, g.i1 - span + 1))
        t = r + span
        s = int(rng.integers(r + 1, t))
        triples.append((r, s, t))
    return np.array(triples, dtype=np.int64).reshape(n_triples, 3)


# Relative slack of the monotonicity and split-triangle checks.
_AXIOM_RTOL = 1e-12

# Elements (windows x lags) one batched window call of ``check_ff_axioms``
# may hold, which sets how many consecutive probes share a call (at least
# one): 2**16 float64 elements are half a MiB per temporary.
_AXIOM_BUDGET = 1 << 16


def check_ff_axioms(fam: FittedFamily, probes, rng=None,
                    n_triples: int = 50) -> NormReport:
    """Exercise the five defining conditions on probes and random windows.

    Locality and shift invariance are required to hold exactly; the
    monotonicity and split-triangle conditions get a relative slack of
    ``_AXIOM_RTOL`` for floating-point rounding.  Failures carry a witness
    with the probe index and window: the first failing window in probe
    order, then triple order.  Probes go in chunks of consecutive probes,
    as many as keep a call within ``_AXIOM_BUDGET`` (one for a sup family,
    whose windows each span the whole row): a chunk makes its random draws
    in the order of a per-probe loop, then evaluates every window through
    :meth:`FittedFamily._seminorms` on its stacked magnitude rows in three
    calls (locality on the edited differences; the monotonicity, split and
    shifted windows; the window comparison).  None builds a shifted or
    edited :class:`TimeFunction`.
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
    # The largest call holds four windows per triple, each at most a grid.
    per = 1 if fam.kind == "sup" else max(
        1, _AXIOM_BUDGET // max(1, 4 * m * width))
    k_obs = 0.0

    def norms(i0, tail, mags, rows, s, t):
        # One call for windows of any shape that the arguments broadcast to.
        zero = np.zeros(np.broadcast_shapes(np.shape(s), np.shape(t)),
                        dtype=np.int64)
        return fam._seminorms((i0 + zero).ravel(), dt,
                              (tail + zero).ravel(), mags,
                              (rows + zero).ravel(),
                              (s + zero).ravel().astype(float),
                              (t + zero).ravel()).reshape(zero.shape)

    def record(name, failed, witness):
        c = res[name]
        c.checks += failed.size
        if failed.any():
            c.passed = False
            k, j = np.unravel_index(np.argmax(failed), failed.shape)
            c.witness = c.witness or witness(int(k), int(j))

    for c0 in range(0, len(probes), per):
        fs = probes[c0:c0 + per]
        # Probe k of the chunk: its draws, in the order of a per-probe
        # loop; row k of mags, zero past its grid; and in row k m + j of
        # diffs its difference with edit j.
        tri, cmp_tri = np.zeros((2, len(fs), m, 3), dtype=np.int64)
        shift = np.zeros((len(fs), m), dtype=np.int64)
        i0 = np.zeros((len(fs), 1), dtype=np.int64)
        tail, diff_tail = np.zeros((2, len(fs), 1))
        mags = np.zeros((len(fs), width))
        diffs = np.zeros((len(fs) * m, width))
        for k, f in enumerate(fs):
            g = f.grid
            tri[k] = _random_triples(rng, g, m, None)
            bump = np.zeros(m)
            for j in range(m):
                bump[j] = 1.0 + rng.random()
                shift[k, j] = rng.integers(-g.n, g.n)
            cmp_tri[k] = _random_triples(rng, g, m, alpha_idx)
            i0[k] = g.i0
            tail[k] = fam._tail_coef(f.tail_value)
            diff_tail[k] = fam._tail_coef(f.tail_value - (f.tail_value + 1.0))
            mags[k, :g.n] = fam._rownorm(f.samples)
            idx = np.arange(g.i0 + 1, g.i1 + 1)
            outside = (idx <= tri[k, :, 1:2]) | (idx > tri[k, :, 2:])
            diff = f.samples - np.where(outside[:, :, None],
                                        f.samples + bump[:, None, None],
                                        f.samples)
            diffs[k * m:(k + 1) * m, :g.n] = fam._rownorm(
                diff.reshape(-1, f.dim)).reshape(m, g.n)
        r, s, t = np.moveaxis(tri, 2, 0)
        row = np.arange(len(fs))[:, None]

        def window(k, j):
            return {"probe": c0 + k, "window": [x * dt for x in
                                                tri[k, j, 1:].tolist()]}

        def triple(k, j, tris=tri):
            return {"probe": c0 + k,
                    "triple": [x * dt for x in tris[k, j].tolist()]}

        # (1) locality: each edit is strictly outside its (s, t].
        v = norms(i0, diff_tail, diffs, row * m + np.arange(m), s, t)
        record("locality", v != 0.0, lambda k, j: {
            **window(k, j), "value": float(v[k, j])})
        # (2)-(4) on (s, t], (r, t], (r, s], and (s, t] on
        # shift_left(f, h dt) for the drawn shift h, which is (s - h, t - h]
        # read on the grid origin i0 - h.
        h = np.stack([np.zeros_like(shift)] * 3 + [shift])
        nst, nrt, nrs, a = norms(i0 - h, tail, mags, row,
                                 np.stack([s, r, r, s]) - h,
                                 np.stack([t, t, s, t]) - h)
        record("shift_invariance", a != nst, lambda k, j: {
            **window(k, j), "shift": int(shift[k, j]) * dt,
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
        r, s, t = np.moveaxis(cmp_tri, 2, 0)
        near, far = norms(i0, tail, mags, row, np.stack([r, r]),
                          np.stack([s, t]))
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


def classify_input_set(fns) -> dict:
    """Shifted-zero check for an input set: zero tails, supported to the right."""
    zero_tails = all(not np.any(f.tail_value) for f in fns)
    starts = []
    for f in fns:
        nz = np.nonzero(np.any(f.samples != 0.0, axis=1))[0]
        starts.append(None if nz.size == 0
                      else (f.grid.i0 + 1 + int(nz[0])) * f.grid.dt)
    return {"shifted_zero": zero_tails, "first_support": starts}


def taper_delta(fam: FittedFamily, eps: float, c: float) -> Optional[float]:
    """Window length beyond which the past contributes at most ``eps``.

    Returns the closed-form ``delta`` such that functions pointwise bounded
    by ``c`` satisfy ``|f|_t <= |f|_{t-delta,t} + eps``, or ``None`` when the
    weight is not integrable (no finite window works; a single far-past
    spike keeps a unit gap forever).
    """
    if eps <= 0 or c <= 0:
        raise ValueError("eps and c must be positive")
    w = fam.weight
    if w.support < POS_INF:
        return float(w.support)
    if not w.integrable:
        return None
    if fam.p == POS_INF:
        if w.form == "exp":
            r = w.params["rate"]
            return max(0.0, math.log(c / eps) / r)
        return None
    target = (eps / c) ** fam.p
    if w.form == "exp":
        r = w.params["rate"]
        # c * (int_delta^inf w)^(1/p) <= eps  <=>  e^{-r delta}/r <= (eps/c)^p
        return max(0.0, -math.log(r * target) / r)
    lo, hi = 0.0, 1.0
    while w.integral(hi, POS_INF) > target:
        hi *= 2.0
        if hi > 1e12:
            return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if w.integral(mid, POS_INF) > target:
            lo = mid
        else:
            hi = mid
    return hi


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

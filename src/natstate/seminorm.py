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

from .timegrid import Interval, TimeFunction, NEG_INF, POS_INF

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


class Weight:
    """Closed-form weight ``w`` on ``[0, inf)`` with exact partial integrals.

    ``support`` is the supremum of ``{x : w(x) > 0}`` (``inf`` when the
    weight never dies); ``integrable`` says whether the total mass is
    finite.  ``alpha``/``K`` are the declared window-comparison constants of
    the family built on this weight.
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
        return self._seminorms(g.i0, g.dt, f.tail_value,
                               self._rownorm(f.samples)[None], s, t)

    def _seminorms(self, i0, dt: float, tail_value: np.ndarray,
                   mags: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """:meth:`seminorms` from sample magnitudes on the grid of step
        ``dt`` whose first sample sits at instant ``i0 + 1``: one row of
        ``mags`` for every window, or one row per window (a stack of
        functions sharing ``tail_value``).

        ``i0`` is one grid origin or one per window.  A window read on
        origin ``i0 - h`` with ends ``s - h``, ``t - h`` gets the arithmetic
        of ``(s - h, t - h]`` on ``shift_left(f, h dt)``, which moves only
        the origin.
        """
        if not t.size:
            return np.zeros(0)
        if self.kind == "sup":
            return self.base._running_sup(i0, dt, tail_value, mags, s, t)
        w = self.weight
        if w.support < POS_INF:
            s = np.maximum(s, t - int(round(w.support / dt)))
        tail = 0.0
        if tail_value.any() and (s < i0).any():
            cut = np.minimum(t, i0)
            need = s < cut
            tail_mag = self._scalar_tail(tail_value)
            a = (t[need] - cut[need]) * dt
            tail = np.zeros(t.shape[0])
            if self.p < POS_INF:
                mass = w.integral(a, (t[need] - s[need]) * dt)
                if np.any(mass == POS_INF):
                    raise ValueError(
                        "divergent tail: non-integrable weight with nonzero "
                        "tail over an unbounded past")
                tail[need] = tail_mag ** self.p * mass
            else:
                tail[need] = tail_mag * w(a)
        # Lags run back from each window end, with zero weight past the
        # window's own span; for p < inf they are summed in that order.
        span = t - np.maximum(s, i0).astype(np.int64)
        lags = np.arange(max(span.max(), 1))
        wts = np.where(lags < span[:, None], w(lags * dt), 0.0)
        if self.p < POS_INF:
            mags = mags ** self.p
        row = np.arange(t.shape[0])[:, None] if mags.shape[0] > 1 else 0
        terms = mags[row, np.maximum((t - (i0 + 1))[:, None] - lags, 0)] * wts
        if self.p == POS_INF:
            return np.maximum(terms.max(axis=1), tail)
        return (terms.cumsum(axis=1)[:, -1] * dt + tail) ** (1.0 / self.p)

    def _running_sup(self, i0, dt: float, tail_value: np.ndarray,
                     mags: np.ndarray, s: np.ndarray,
                     t: np.ndarray) -> np.ndarray:
        """``max_{s < u <= t} |f|_{s,u}`` per window, as :meth:`_seminorms`.

        Row ``k`` holds the norm over ``(s_k, u]`` at every instant ``u``
        from its origin (the tail alone, for a left-expanded window) to the
        end of the grid.
        """
        i0 = np.broadcast_to(i0, t.shape)
        open_left = np.isneginf(s)
        rows = self._rows_from(i0, tail_value, mags,
                               np.where(open_left, i0, s).astype(np.int64))
        head = np.zeros((t.shape[0], 1))
        tail = None
        if open_left.any():
            o = i0[open_left]
            head[open_left, 0] = self._seminorms(
                o, dt, tail_value, mags[:1], np.full(o.shape, NEG_INF), o)
            tail = np.where(open_left[:, None],
                            self._tail_terms(mags.shape[1], dt, tail_value),
                            0.0)
        run = np.maximum.accumulate(
            np.concatenate([head, self._windowed(rows, dt, tail)], axis=1),
            axis=1)
        return run[np.arange(t.shape[0]), np.maximum(t - i0, 0)]

    # -- every right end at once -------------------------------------------------
    #
    # Positions 0..n-1 correspond to instants i0+1..i1.

    @staticmethod
    def _rows_from(i0, tail_value: np.ndarray, mags: np.ndarray,
                   lefts: np.ndarray) -> np.ndarray:
        """Magnitude rows zeroed at and before each left end in ``lefts``;
        ``i0`` is the grid origin, one or one per left end."""
        if (lefts < i0).any() and tail_value.any():
            raise ValueError(
                "window starts before the represented past of a nonzero-tail "
                "function; extend the window first")
        return np.where(np.arange(mags.shape[1]) >= (lefts - i0)[:, None],
                        mags, 0.0)

    def _tail_terms(self, n: int, dt: float,
                    tail_value: np.ndarray) -> np.ndarray:
        """Constant-tail contribution of |f|_{-inf, t} at every position."""
        tail_mag = self._scalar_tail(tail_value)
        if tail_mag == 0.0:
            return np.zeros(n)
        gaps = np.arange(1, n + 1) * dt
        if self.p < POS_INF:
            if not self.weight.integrable:
                raise ValueError(
                    "divergent tail: non-integrable weight with nonzero tail "
                    "over an unbounded past")
            return tail_mag ** self.p * self.weight.integral(gaps, POS_INF)
        return tail_mag * np.asarray(self.weight(gaps), dtype=float)

    def _windowed(self, mags: np.ndarray, dt: float,
                  tail: Optional[np.ndarray] = None) -> np.ndarray:
        """Window norm at every position of each row of sample magnitudes.

        A row reads from its first position on, so zeroing a row up to a
        left end ``s`` gives ``|f|_{s, t}`` at every ``t``; ``tail`` adds the
        tail terms of the left-expanded norm.
        """
        n, w = mags.shape[1], self.weight
        if self.p < POS_INF:
            acc = _weighted_running_sums(mags ** self.p * dt, w, dt)
            if tail is not None:
                acc = acc + tail
            return acc ** (1.0 / self.p)
        # p = inf: weighted trailing maxima.
        if w.form == "uniform":
            vals = np.maximum.accumulate(mags, axis=1)
        elif w.form == "box":
            win = max(int(round(w.params["memory"] / dt)), 1)
            padded = np.concatenate([np.zeros((mags.shape[0], win - 1)), mags],
                                    axis=1)
            vals = np.lib.stride_tricks.sliding_window_view(
                padded, win, axis=1).max(axis=2)
        elif w.form == "exp":
            vals = _exp_running(mags, w.params["rate"], dt, np.maximum)
        else:
            vals = np.empty_like(mags)
            for c in range(n):
                wv = np.asarray(w((c - np.arange(c + 1)) * dt), dtype=float)
                vals[:, c] = np.max(mags[:, :c + 1] * wv, axis=1)
        if tail is not None:
            vals = np.maximum(vals, tail)
        return vals

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
        fam = self.base if self.kind == "sup" else self
        head = fam.seminorms(f, [NEG_INF], [g.i0])
        rows = fam._windowed(fam._rownorm(f.samples)[None], g.dt,
                             fam._tail_terms(g.n, g.dt, f.tail_value))
        vals = np.concatenate([head, rows[0]])
        if self.kind == "sup":
            vals = np.maximum.accumulate(vals)
        return vals

    def future_norm(self, f: TimeFunction, s: float) -> float:
        """``sup_{t > s} |f|_{s,t}`` with ``t`` running to the horizon."""
        g = f.grid
        if s == NEG_INF:
            return self.bounding_norm(f)
        si = g.index_of(s)
        if si >= g.i1:
            raise ValueError("window start at or beyond the horizon")
        fam = self.base if self.kind == "sup" else self
        rows = fam._rows_from(g.i0, f.tail_value,
                              fam._rownorm(f.samples)[None], np.array([si]))
        return float(np.max(fam._windowed(rows, g.dt)))

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
    below ~1e-280 itself is pushed into the subnormal range.
    """
    n = x.shape[-1]
    block = (n if rate * n * dt <= _EXP_BLOCK
             else max(1, int(_EXP_BLOCK / (rate * dt))))
    out = np.empty_like(x)
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


def _weighted_running_sums(apw: np.ndarray, w: Weight, dt: float) -> np.ndarray:
    """``sum_{j<=c} apw[..., j] w((c-j) dt)`` for every ``c`` (last axis).

    Uniform, box and exponential weights admit O(n) cumulative-sum
    evaluations; anything else falls back to one full convolution per row.
    """
    n = apw.shape[-1]
    if w.form == "uniform":
        return np.cumsum(apw, axis=-1)
    if w.form == "box":
        win = max(int(round(w.params["memory"] / dt)), 1)
        c = np.cumsum(apw, axis=-1)
        out = c.copy()
        if n > win:
            out[..., win:] = c[..., win:] - c[..., :-win]
        return out
    if w.form == "exp":
        return _exp_running(apw, w.params["rate"], dt, np.add)
    wker = np.asarray(w(np.arange(0, n) * dt), dtype=float)
    return np.stack([np.convolve(row, wker)[:n] for row in apw])


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
    """Index triples r < s < t inside the grid window."""
    triples = []
    span_cap = g.n if max_span_idx is None else min(g.n, max_span_idx)
    for _ in range(n_triples):
        span = int(rng.integers(2, max(3, span_cap + 1)))
        r = int(rng.integers(g.i0, g.i1 - span + 1))
        t = r + span
        s = int(rng.integers(r + 1, t))
        triples.append((r, s, t))
    return triples


# Relative slack of the monotonicity and split-triangle checks.
_AXIOM_RTOL = 1e-12


def check_ff_axioms(fam: FittedFamily, probes, rng=None,
                    n_triples: int = 50) -> NormReport:
    """Exercise the five defining conditions on probes and random windows.

    Locality and shift invariance are required to hold exactly; the
    monotonicity and split-triangle conditions get a relative slack of
    ``_AXIOM_RTOL`` for floating-point rounding.  Failures carry a witness
    with the probe index and window: the first failing window in probe
    order, then triple order.  All five conditions are batched: each
    probe's windows go through :meth:`FittedFamily.seminorms` (or its
    private form on magnitudes) in four calls, one per group of windows,
    and none builds a shifted or edited :class:`TimeFunction`.
    """
    rng = np.random.default_rng(rng)
    report = NormReport(family=fam.name, alpha=fam.alpha, K_declared=fam.K)
    res = {name: ConditionResult(True, 0) for name in
           ("locality", "shift_invariance", "monotone_in_s",
            "triangle_over_split", "window_comparison")}
    dt = probes[0].grid.dt
    alpha_idx = None if fam.alpha == POS_INF else max(2, int(fam.alpha / dt))
    k_obs = 0.0

    def record(name, failed, witness):
        c = res[name]
        c.checks += len(failed)
        if np.any(failed):
            c.passed = False
            c.witness = c.witness or witness(int(np.argmax(failed)))

    for pi, f in enumerate(probes):
        g = f.grid
        tri = _random_triples(rng, g, n_triples, None)
        edits = [(1.0 + rng.random(), int(rng.integers(-g.n, g.n)))
                 for _ in tri]
        cmp_tri = _random_triples(rng, g, n_triples, alpha_idx)
        if not tri:
            continue
        m = len(tri)
        r, s, t = np.array(tri).T
        # (1) locality: each edit is strictly outside its (s, t]; the edited
        # differences go in as one stack, window k on difference k.
        idx = np.arange(g.i0 + 1, g.i1 + 1)
        outside = ((idx <= s[:, None]) | (idx > t[:, None]))[:, :, None]
        bump = np.array([e for e, _ in edits])[:, None, None]
        diff = f.samples - np.where(outside, f.samples + bump, f.samples)
        v = fam._seminorms(g.i0, g.dt, f.tail_value - (f.tail_value + 1.0),
                           fam._rownorm(diff.reshape(-1, f.dim)).reshape(m, -1),
                           s.astype(float), t)
        record("locality", v != 0.0, lambda k: {
            "probe": pi, "window": [tri[k][1] * dt, tri[k][2] * dt],
            "value": float(v[k])})
        nst, nrt, nrs = np.split(
            fam.seminorms(f, np.concatenate([s, r, r]),
                          np.concatenate([t, t, s])), 3)
        # (2) shift invariance, exact: window k of shift_left(f, sh_k dt) is
        # window k read on the grid origin i0 - sh_k.
        sh = np.array([e for _, e in edits])
        a = fam._seminorms(g.i0 - sh, g.dt, f.tail_value,
                           fam._rownorm(f.samples)[None],
                           (s - sh).astype(float), t - sh)
        record("shift_invariance", a != nst, lambda k: {
            "probe": pi, "window": [tri[k][1] * dt, tri[k][2] * dt],
            "shift": edits[k][1] * dt, "lhs": float(a[k]),
            "rhs": float(nst[k])})
        # (3) monotone in s.
        record("monotone_in_s",
               nst > nrt + _AXIOM_RTOL * np.maximum(1.0, nrt),
               lambda k: {"probe": pi, "triple": [x * dt for x in tri[k]],
                          "lhs": float(nst[k]), "rhs": float(nrt[k])})
        # (4) triangle over the split point.
        split = nrs + nst
        record("triangle_over_split",
               nrt > split + _AXIOM_RTOL * np.maximum(1.0, split),
               lambda k: {"probe": pi, "triple": [x * dt for x in tri[k]],
                          "lhs": float(nrt[k]), "rhs": float(split[k])})
        # (5) window comparison within span alpha.
        r, s, t = np.array(cmp_tri).T
        near, far = np.split(
            fam.seminorms(f, np.concatenate([r, r]), np.concatenate([s, t])),
            2)
        record("window_comparison", (near > 0.0) & (far == 0.0),
               lambda k: {"probe": pi,
                          "triple": [x * dt for x in cmp_tri[k]],
                          "ratio": "inf"})
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
    delta_g = math.ceil(delta / dt - 1e-12) * dt
    worst = 0.0
    for f in probes:
        m = max(float(np.max(np.abs(f.samples))),
                float(np.max(np.abs(f.tail_value))))
        h = f if m == 0.0 else f * (c / m)
        gap = fam.past_norm(h, t) - fam.seminorm(h, Interval(t - delta_g, t))
        worst = max(worst, gap)
    return {"delta": delta, "delta_grid": delta_g, "eps": eps, "c": c,
            "max_gap": worst, "certified": bool(worst <= eps)}

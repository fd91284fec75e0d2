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

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .timegrid import Interval, TimeFunction, NEG_INF, POS_INF, shift_left

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

    def integral(self, a: float, b: float) -> float:
        """Exact ``int_a^b w(x) dx`` for ``0 <= a <= b <= inf``."""
        if b < a:
            raise ValueError("need a <= b")
        if self.form == "uniform":
            return b - a
        if self.form == "exp":
            r = self.params["rate"]
            ea = math.exp(-r * a)
            eb = 0.0 if b == POS_INF else math.exp(-r * b)
            return (ea - eb) / r
        if self.form == "box":
            m = self.params["memory"]
            return max(0.0, min(b, m) - min(a, m))
        edges, values = self.params["edges"], self.params["values"]
        if b == POS_INF:
            b = float(edges[-1])
        total = 0.0
        for k in range(values.shape[0]):
            lo, hi = max(a, float(edges[k])), min(b, float(edges[k + 1]))
            if hi > lo:
                total += float(values[k]) * (hi - lo)
        return total

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
            return np.max(np.abs(samples), axis=1)
        return np.linalg.norm(samples, axis=1)

    def _scalar_tail(self, tail: np.ndarray) -> float:
        return float(self._rownorm(tail[None, :])[0])

    # -- vectorized window sums -------------------------------------------------
    #
    # Positions 0..n-1 correspond to instants i0+1..i1.  ``windowed_all_t``
    # returns, for a fixed left end, the window norm at every right end in
    # one pass; single-window queries slice out of the same machinery.

    def _tail_terms(self, f: TimeFunction, pos: np.ndarray) -> np.ndarray:
        """Constant-tail contribution of |f|_{-inf, t} at positions ``pos``."""
        tail_mag = self._scalar_tail(f.tail_value)
        gaps = (pos + 1) * f.grid.dt
        if tail_mag == 0.0:
            return np.zeros(pos.shape[0])
        if self.p < POS_INF:
            if not self.weight.integrable:
                raise ValueError(
                    "divergent tail: non-integrable weight with nonzero tail "
                    "over an unbounded past")
            return np.array([tail_mag ** self.p * self.weight.integral(g, POS_INF)
                             for g in gaps])
        return tail_mag * np.asarray(self.weight(gaps), dtype=float)

    @staticmethod
    def _weighted_running_sums(apw: np.ndarray, w: Weight, n: int,
                               dt: float) -> np.ndarray:
        """``sum_{j<=c} apw[j] w((c-j) dt)`` for every ``c``, fast per form.

        Uniform, box and exponential weights admit O(n) cumulative-sum
        evaluations; anything else falls back to one full convolution.
        """
        if w.form == "uniform":
            return np.cumsum(apw)
        if w.form == "box":
            win = max(int(round(w.params["memory"] / dt)), 1)
            c = np.cumsum(apw)
            out = c.copy()
            if n > win:
                out[win:] = c[win:] - c[:-win]
            return out
        if w.form == "exp":
            rate = w.params["rate"]
            span = rate * n * dt
            if span <= 600.0:
                scaled = apw * np.exp(rate * (np.arange(1, n + 1) - n) * dt)
                run = np.cumsum(scaled)
                return run * np.exp(rate * (n - np.arange(1, n + 1)) * dt)
        wker = np.asarray(w(np.arange(0, n) * dt), dtype=float)
        return np.convolve(apw, wker)[:n]

    def _windowed_all_t(self, f: TimeFunction, si: Optional[int]) -> np.ndarray:
        """``|f|_{si, t}`` for every grid instant ``t`` in ``(max(si,i0), i1]``.

        ``si=None`` means the left-expanded norm; the tail term is then a
        closed-form weight integral.  Entries are aligned with positions
        ``lo..n-1`` where ``lo = max(si - i0, 0)``.
        """
        g = f.grid
        n, dt = g.n, g.dt
        lo = 0 if si is None else max(si - g.i0, 0)
        if si is not None and si < g.i0 and np.any(f.tail_value):
            raise ValueError(
                "window starts before the represented past of a nonzero-tail "
                "function; extend the window first")
        mags = self._rownorm(f.samples)
        if lo > 0:
            mags = mags.copy()
            mags[:lo] = 0.0
        pos = np.arange(lo, n)
        w = self.weight
        if self.p < POS_INF:
            apw = mags ** self.p * dt
            acc = self._weighted_running_sums(apw, w, n, dt)[lo:]
            if si is None:
                acc = acc + self._tail_terms(f, pos)
            return acc ** (1.0 / self.p)
        # p = inf: weighted trailing maxima.
        if w.form == "uniform":
            vals = np.maximum.accumulate(mags)[lo:]
        elif w.form == "box":
            win = int(round(w.params["memory"] / dt))
            win = max(win, 1)
            padded = np.concatenate([np.zeros(win - 1), mags])
            vals = np.lib.stride_tricks.sliding_window_view(
                padded, win).max(axis=1)[lo:]
        elif w.form == "exp":
            rate = w.params["rate"]
            scaled = mags * np.exp(rate * (np.arange(1, n + 1) - n) * dt)
            run = np.maximum.accumulate(scaled)
            vals = run * np.exp(rate * (n - np.arange(1, n + 1)) * dt)
            vals = vals[lo:]
        else:
            vals = np.empty(n - lo)
            for c in range(lo, n):
                wv = np.asarray(w((c - np.arange(lo, c + 1)) * dt), dtype=float)
                vals[c - lo] = float(np.max(mags[lo:c + 1] * wv)) \
                    if c >= lo else 0.0
        if si is None:
            vals = np.maximum(vals, self._tail_terms(f, pos))
        return vals

    def _window_single(self, f: TimeFunction, si: Optional[int], ti: int) -> float:
        """One window norm ``|f|_{si, ti}`` (direct O(window) evaluation).

        A finite-support weight clips the window to its support, so the
        finite-memory identity ``|f|_t = |f|_{t-M,t}`` holds bit for bit.
        """
        g = f.grid
        if ti > g.i1:
            raise ValueError("window end beyond represented horizon")
        dt = g.dt
        lo = g.i0 if si is None else max(si, g.i0)
        if self.weight.support < POS_INF:
            supp_idx = int(round(self.weight.support / dt))
            lo = max(lo, ti - supp_idx)
            if si is None or si < ti - supp_idx:
                si = ti - supp_idx  # no mass beyond the support

        tail_mag = self._scalar_tail(f.tail_value)
        tail_term = 0.0
        cut = min(ti, g.i0)
        if (si is None or si < cut) and tail_mag > 0.0:
            a = (ti - cut) * dt
            if self.p < POS_INF:
                b = POS_INF if si is None else (ti - si) * dt
                mass = self.weight.integral(a, b)
                if mass == POS_INF:
                    raise ValueError(
                        "divergent tail: non-integrable weight with nonzero "
                        "tail over an unbounded past")
                tail_term = tail_mag ** self.p * mass
            else:
                tail_term = tail_mag * float(self.weight(np.array([a]))[0])
        if ti > lo:
            rows = f.samples[lo - g.i0: ti - g.i0]
            mags = self._rownorm(rows)
            x = (ti - np.arange(lo + 1, ti + 1)) * dt
            wv = np.asarray(self.weight(x), dtype=float)
            if self.p < POS_INF:
                return float((np.dot(mags ** self.p, wv) * dt + tail_term)
                             ** (1.0 / self.p))
            inwin = float(np.max(mags * wv)) if mags.size else 0.0
            return max(inwin, tail_term)
        return float(tail_term ** (1.0 / self.p)) if self.p < POS_INF \
            else tail_term

    # -- public norms ------------------------------------------------------------

    def seminorm(self, f: TimeFunction, iv: Interval) -> float:
        """The family seminorm of ``f`` over ``(iv.s, iv.t]``."""
        g = f.grid
        si = None if iv.s == NEG_INF else g.index_of(iv.s)
        if iv.t == POS_INF:
            return self.future_norm(f, iv.s)
        ti = g.index_of(iv.t)
        if si is not None and si >= ti:
            raise ValueError("empty window")
        if self.kind == "sup":
            lo = 0 if si is None else max(si - g.i0, 0)
            vals = self.base._windowed_all_t(f, si)[: ti - g.i0 - lo]
            best = float(np.max(vals)) if vals.size else 0.0
            if si is None:
                best = max(best, self.base._window_single(f, None, g.i0))
            return best
        return self._window_single(f, si, ti)

    def past_norm(self, f: TimeFunction, t: float) -> float:
        """Left-expanded norm over ``(-inf, t]``."""
        return self.seminorm(f, Interval.upto(t))

    def past_norms_all_t(self, f: TimeFunction) -> np.ndarray:
        """``past_norm`` at every grid instant ``i0 .. i1`` (length n + 1)."""
        g = f.grid
        fam = self.base if self.kind == "sup" else self
        head = fam._window_single(f, None, g.i0)
        vals = np.concatenate([[head], fam._windowed_all_t(f, None)])
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
        vals = fam._windowed_all_t(f, si)
        return float(np.max(vals)) if vals.size else 0.0

    def bounding_norm(self, f: TimeFunction) -> float:
        """``sup_t |f|_t``: the norm of the bounding space."""
        return float(np.max(self.past_norms_all_t(f)))

    def __repr__(self) -> str:
        return f"FittedFamily({self.name!r}, p={self.p}, weight={self.weight})"


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


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


def check_ff_axioms(fam: FittedFamily, probes, rng=None, n_triples: int = 50,
                    tol: float = 1e-12) -> NormReport:
    """Exercise the five defining conditions on probes and random windows.

    Locality and shift invariance are required to hold exactly; the
    monotonicity, split-triangle and window-comparison conditions get a
    relative ``tol`` for floating-point rounding.  Failures carry a witness
    with the probe index and window.
    """
    rng = np.random.default_rng(rng)
    report = NormReport(family=fam.name, alpha=fam.alpha, K_declared=fam.K)
    res = {name: ConditionResult(True, 0) for name in
           ("locality", "shift_invariance", "monotone_in_s",
            "triangle_over_split", "window_comparison")}
    dt = probes[0].grid.dt
    alpha_idx = None if fam.alpha == POS_INF else max(2, int(fam.alpha / dt))
    k_obs = 0.0
    for pi, f in enumerate(probes):
        g = f.grid
        for (r, s, t) in _random_triples(rng, g, n_triples, None):
            ivst = Interval(s * dt, t * dt)
            # (1) locality: edit strictly outside (s, t].
            other = np.array(f.samples)
            idx = np.arange(g.i0 + 1, g.i1 + 1)
            outside = (idx <= s) | (idx > t)
            other[outside] += 1.0 + rng.random()
            diff = TimeFunction(g, f.samples - other,
                                f.tail_value - (f.tail_value + 1.0))
            v = fam.seminorm(diff, ivst)
            res["locality"].checks += 1
            if v != 0.0:
                res["locality"].passed = False
                res["locality"].witness = res["locality"].witness or {
                    "probe": pi, "window": [s * dt, t * dt], "value": v}
            # (2) shift invariance, exact.
            k = int(rng.integers(-g.n, g.n))
            a = fam.seminorm(shift_left(f, k * dt),
                             Interval((s - k) * dt, (t - k) * dt))
            b = fam.seminorm(f, ivst)
            res["shift_invariance"].checks += 1
            if a != b:
                res["shift_invariance"].passed = False
                res["shift_invariance"].witness = res["shift_invariance"].witness or {
                    "probe": pi, "window": [s * dt, t * dt], "shift": k * dt,
                    "lhs": a, "rhs": b}
            # (3) monotone in s.
            nst = fam.seminorm(f, Interval(s * dt, t * dt))
            nrt = fam.seminorm(f, Interval(r * dt, t * dt))
            res["monotone_in_s"].checks += 1
            if nst > nrt + tol * max(1.0, nrt):
                res["monotone_in_s"].passed = False
                res["monotone_in_s"].witness = res["monotone_in_s"].witness or {
                    "probe": pi, "triple": [r * dt, s * dt, t * dt],
                    "lhs": nst, "rhs": nrt}
            # (4) triangle over the split point.
            nrs = fam.seminorm(f, Interval(r * dt, s * dt))
            res["triangle_over_split"].checks += 1
            if nrt > nrs + nst + tol * max(1.0, nrs + nst):
                res["triangle_over_split"].passed = False
                res["triangle_over_split"].witness = \
                    res["triangle_over_split"].witness or {
                        "probe": pi, "triple": [r * dt, s * dt, t * dt],
                        "lhs": nrt, "rhs": nrs + nst}
        # (5) window comparison within span alpha.
        for (r, s, t) in _random_triples(rng, f.grid, n_triples, alpha_idx):
            nrs = fam.seminorm(f, Interval(r * dt, s * dt))
            nrt = fam.seminorm(f, Interval(r * dt, t * dt))
            res["window_comparison"].checks += 1
            if nrs > 0.0 and nrt == 0.0:
                res["window_comparison"].passed = False
                res["window_comparison"].witness = \
                    res["window_comparison"].witness or {
                        "probe": pi, "triple": [r * dt, s * dt, t * dt],
                        "ratio": "inf"}
            elif nrt > 0.0:
                k_obs = max(k_obs, nrs / nrt)
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

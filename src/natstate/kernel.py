"""Polynomial-operator kernels: symmetrization, permutations, identification.

A degree-``n`` kernel assigns to every input-component tuple ``(i_1..i_n)`` a
function of ``n`` nonnegative lags.  Symmetrizing (averaging over simultaneous
permutations of lag arguments and component indices) never changes the
operator the kernel induces, and the symmetrized kernel is the canonical
representative: it is what the probing procedure below recovers.

Identification works against a black-box response oracle.  Scalings
``x -> x*v`` of a probe separate the response into homogeneous degrees
through a Vandermonde solve; per degree, indicator probes on disjoint lag
windows combined by inclusion-exclusion isolate the integral of the
symmetrized kernel over a product of windows, reported as a cell average.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .timegrid import CELL_CAP, Grid, TimeFunction, to_cells

__all__ = [
    "Permutation",
    "PolyKernel",
    "symmetrize",
    "check_symmetrization_properties",
    "permutation_change_of_variables",
    "identify_kernels",
    "kernel_from_cells",
]


@dataclass(frozen=True)
class Permutation:
    """Permutation of ``{1..n}`` in one-line notation: ``mapping[i-1] = pi(i)``."""

    mapping: tuple

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.mapping}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Left-to-right composition: ``(p.then(q))(i) = q(p(i))``."""
        return Permutation(tuple(other(self(i)) for i in range(1, self.n + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i in range(1, self.n + 1):
            inv[self(i) - 1] = i
        return Permutation(tuple(inv))

    @staticmethod
    def all(n: int):
        return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def permutation_change_of_variables(pi: Permutation, rho: Permutation) -> dict:
    """Rows of the reindexing identity behind symmetrized-kernel invariance.

    Substituting ``tau_{rho(i)} = sigma_i`` turns the argument tuple
    ``sigma_{pi rho^{-1}(k)}`` into ``tau_{pi(k)}`` for every position ``k``;
    the returned table lists both sides so they can be compared entry by
    entry.
    """
    n = pi.n
    pr = pi.then(rho.inverse())
    # sigma_i carries the symbol tau_{rho(i)}.
    sigma_symbol = {i: rho(i) for i in range(1, n + 1)}
    rows = []
    for k in range(1, n + 1):
        rows.append({
            "k": k,
            "pi_rho_inv": pr(k),
            "sigma_symbol": sigma_symbol[pr(k)],
            "tau_pi": pi(k),
        })
    return {
        "pi": pi.mapping,
        "rho": rho.mapping,
        "pi_inverse": pi.inverse().mapping,
        "rho_inverse": rho.inverse().mapping,
        "pi_rho_inverse": pr.mapping,
        "rows": rows,
        "identity_holds": all(r["sigma_symbol"] == r["tau_pi"] for r in rows),
    }


class PolyKernel:
    """Degree-``n`` kernel over lag space ``[0, S]^n``.

    Backed by a vectorized callable, by dense grid samples at the right
    endpoints ``j*dt`` of the lag cells, or, time varying, by parts
    ``(a_r, G_r)``: ``K(t; s) = sum_r a_r(t) G_r(s)``, each gain ``a_r`` a
    vectorized function of the output instant ``t`` and each ``G_r`` a
    time-invariant scalar kernel of the same degree and support.  Callable
    signatures::

        scalar:  f(s1, ..., sn)
        vector:  f(idx_tuple, s1, ..., sn)
    """

    MAX_SYM_DEGREE = 4

    def __init__(self, degree: int, support: float, input_dim: int = 1,
                 func: Optional[Callable] = None,
                 data: Optional[np.ndarray] = None, data_dt: Optional[float] = None,
                 parts: Sequence[tuple[Callable, "PolyKernel"]] = ()):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if (func is not None) + (data is not None) + bool(parts) != 1:
            raise ValueError("exactly one of func/data/parts must be given")
        if parts and (input_dim != 1 or any(
                g.time_varying or g.input_dim != 1 or g.degree != degree
                or g.support != float(support) for _, g in parts)):
            raise ValueError("the parts of a time-varying kernel must be "
                             "time-invariant scalar kernels of its degree "
                             "and support")
        self.degree = degree
        self.support = float(support)
        self.input_dim = input_dim
        self.func = func
        self.data = None
        self.data_dt = data_dt
        if data is not None:
            data = np.asarray(data, dtype=float)
            want = (input_dim,) * degree
            if data.shape[: degree] != want:
                raise ValueError(f"data must carry {want} index axes")
            if data_dt is None:
                raise ValueError("grid-backed kernels need data_dt")
            self.data = data
        self.parts = list(parts)
        self._cache: dict = {}

    @property
    def time_varying(self) -> bool:
        return bool(self.parts)

    # -- grid evaluation -----------------------------------------------------

    def grid_size(self, dt: float) -> int:
        return to_cells(self.support, dt)

    def grid_values(self, dt: float, *_) -> np.ndarray:
        """Dense samples, shape ``(M,)*n + (Q,)*n``, taken once per ``dt``
        and kept.  A time-varying kernel has no grid of its own: each of its
        parts has one.  (Extra arguments, such as the one
        ``bench/layers.py``'s call counter passes, are ignored.)"""
        if self.time_varying:
            raise ValueError("a time-varying kernel has no grid of its own; "
                             "sample its parts")
        key = ("grid", dt)
        if key not in self._cache:
            if self.data is not None:
                if abs(self.data_dt - dt) > 1e-12:
                    raise ValueError("grid-backed kernel sampled at a different dt")
                vals = self.data
            else:
                # An open mesh: the callable broadcasts its lag axes, so no
                # full (Q,)*n array is built per axis.
                Q = self.grid_size(dt)
                x = np.arange(1, Q + 1) * dt
                mesh = np.meshgrid(*([x] * self.degree), indexing="ij",
                                   sparse=True)
                n, M = self.degree, self.input_dim
                vals = np.empty((M,) * n + (Q,) * n)
                for idx in itertools.product(range(M), repeat=n):
                    lead = (tuple(i + 1 for i in idx),) if M > 1 else ()
                    vals[idx] = np.asarray(self.func(*lead, *mesh), dtype=float)
            self._cache[key] = vals
        return self._cache[key]

    def grid_factors(self, dt: float) -> list[np.ndarray]:
        """The grid (:meth:`grid_values`) as one ``(QM, T)`` factor per slot,
        ``K[d_1, .., d_n] = sum_t prod_s F_s[d_s, t]`` (:func:`_slot_major`
        indices), up to residual entries below the direct sum's rounding
        level ``max|K| * size * eps``; factored once per ``dt`` and kept."""
        key = ("factors", dt)
        if key not in self._cache:
            A = _slot_major(self.grid_values(dt))
            tol = np.max(np.abs(A)) * (A.size * np.finfo(float).eps)
            self._cache[key] = _cross_factors(A, self.degree, tol)
        return self._cache[key]

    def tail_abs_mass(self, dt: float, sigma: float) -> float:
        """Mass of ``|kernel|`` on cells with any lag beyond ``sigma``."""
        if self.time_varying:
            raise ValueError("the tail mass of a time-varying kernel needs "
                             "sup|a_r| of each gain, which a gain callable "
                             "does not give")
        absval = np.abs(self.grid_values(dt)).sum(axis=tuple(range(self.degree)))
        outside = np.ones(absval.shape, dtype=bool)
        outside[(slice(0, to_cells(sigma, dt)),) * self.degree] = False
        return float(np.sum(absval[outside]) * dt ** self.degree)


def _slot_major(K: np.ndarray) -> np.ndarray:
    """A grid ``(M,)*n + (Q,)*n`` as ``(QM, (QM)^(n-1))``, axes ``(j_1, a_1,
    .., j_n, a_n)``: each slot's pair in the order of a lag-matrix row."""
    n = K.ndim // 2
    axes = [ax for m in range(n) for ax in (n + m, m)]
    return K.transpose(axes).reshape(K.shape[0] * K.shape[-1], -1)


def _cross_factors(A: np.ndarray, n: int, tol: float) -> list[np.ndarray]:
    """Slot factors ``(D, T)``, ``T <= D^(n-1)``, of the ``n``-slot tensor
    ``A`` flattened to ``(D, D^(n-1))``: complete-pivoting cross
    approximation (Bebendorf, Numer. Math. 86, 2000) into a CP form (Kolda
    & Bader, SIAM Review 51(3), 2009).  Each step peels ``column (x) row /
    pivot`` off at the largest residual entry, zeroing its row and column,
    and factors the row over the other slots against ``tol / |pivot|``,
    until no entry exceeds ``tol``.  A non-finite pivot gives one nan term.
    """
    D = A.shape[0]
    if n == 1:
        return [A.reshape(D, 1)]
    R = A.reshape(D, -1).copy()
    step = max(1, 4096 // R.shape[1])  # rank-one updates in 32 KiB blocks
    F = [[np.zeros((D, 0))] for _ in range(n)]
    while True:
        hi, lo = R.argmax(), R.argmin()  # no residual-sized |R|
        i, j = divmod(hi if abs(R.flat[hi]) >= abs(R.flat[lo]) else lo,
                      R.shape[1])
        piv = R[i, j]
        if not np.isfinite(piv):
            return [np.full((D, 1), np.nan)] * n
        if abs(piv) <= tol:
            return [np.hstack(f) for f in F]
        col, row = R[:, j].copy(), R[i] / piv
        for k in range(0, D, step):
            R[k:k + step] -= col[k:k + step, None] * row
        R[i], R[:, j] = 0.0, 0.0
        sub = _cross_factors(row.reshape(D, -1), n - 1, tol / abs(piv))
        for f, g in zip(F, [np.repeat(col[:, None], sub[0].shape[1], 1),
                            *sub]):
            f.append(g)


def _symmetrized_array(K: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros_like(K)
    for pi in Permutation.all(n):
        axes = [pi(k) - 1 for k in range(1, n + 1)] + \
               [n + pi(k) - 1 for k in range(1, n + 1)]
        out += np.transpose(K, axes)
    return out / math.factorial(n)


def symmetrize(k: PolyKernel) -> PolyKernel:
    """Average over simultaneous permutations of lags and component indices.

    Idempotent and linear in the kernel.  Grid-backed kernels symmetrize
    their sample array, time-varying kernels each part; callables are
    wrapped, the index tuple of a vector kernel permuted with the lags.
    """
    n = k.degree
    if n > PolyKernel.MAX_SYM_DEGREE:
        raise ValueError(f"degree {n} too large to enumerate permutations")
    if k.time_varying:
        return PolyKernel(n, k.support,
                          parts=[(a, symmetrize(g)) for a, g in k.parts])
    if k.data is not None:
        return PolyKernel(n, k.support, k.input_dim,
                          data=_symmetrized_array(k.data, n), data_dt=k.data_dt)
    orders = [[pi(j) - 1 for j in range(1, n + 1)] for pi in Permutation.all(n)]

    def sym(*args):
        lead, sig = args[:-n], args[-n:]
        acc = 0.0
        for order in orders:
            if k.input_dim > 1:
                lead = (tuple(args[0][o] for o in order),)
            acc = acc + k.func(*lead, *[sig[o] for o in order])
        return acc / math.factorial(n)
    return PolyKernel(n, k.support, k.input_dim, func=sym)


def check_symmetrization_properties(k: PolyKernel, probes, dt: float,
                                    rng=None) -> dict:
    """The two defining facts about symmetrization, checked numerically.

    (i) the induced operator is unchanged: responses of the original and the
    symmetrized kernel agree on every probe to quadrature tolerance;
    (ii) permuting the component indices while renaming integration
    variables leaves each summed term unchanged (checked for random
    permutations on random index tuples).
    """
    from .seminorm import FittedFamily
    from .sysop import PolyIntegralOperator

    rng = np.random.default_rng(rng)
    fam_in = FittedFamily.unweighted_sup()
    fam_out = FittedFamily.output_window(float("inf"))
    ya, yb = (PolyIntegralOperator([ker], 0.0, fam_in, fam_out,
                                   input_dim=k.input_dim).apply_all(probes)
              for ker in (k, symmetrize(k)))
    max_diff = float(np.max(np.abs(ya.samples - yb.samples)))

    n = k.degree
    Ks = _symmetrized_array(k.grid_values(dt), n)
    Q = Ks.shape[-1]
    M = k.input_dim

    def term(ix, u):
        # The summed term of component tuple ``ix`` with component signals
        # u: sum over lags j_1..j_n of Ks[ix; j_1..j_n] prod_s u[ix_s, j_s].
        slots = [x for s, i in enumerate(ix) for x in (u[i - 1], [s])]
        return float(np.einsum(Ks[tuple(i - 1 for i in ix)], list(range(n)),
                               *slots, []))

    max_term_diff = 0.0
    for _ in range(6):
        rho = Permutation(tuple(int(v) for v in rng.permutation(n) + 1))
        idx = tuple(int(i) for i in rng.integers(1, M + 1, size=n))
        u = rng.standard_normal((M, Q))
        t1 = term(idx, u)
        idx_r = tuple(idx[rho(j) - 1] for j in range(1, n + 1))
        t2 = term(idx_r, u)
        scale = max(1.0, abs(t1))
        max_term_diff = max(max_term_diff, abs(t1 - t2) / scale)
    return {
        "operator_invariance_max_diff": max_diff,
        "reindexing_max_diff": max_term_diff,
        "reindexing_ok": max_term_diff <= 1e-10,
    }


# -- identification ------------------------------------------------------------


def _degree_coefficients(oracle, v: TimeFunction, max_degree: int,
                         scalings: np.ndarray) -> np.ndarray:
    """Split the response to ``x*v`` into homogeneous degrees 0..max_degree."""
    V = np.vander(scalings, N=max_degree + 1, increasing=True)
    r = np.array([oracle(float(x) * v) for x in scalings])
    return np.linalg.solve(V, r)


def identify_kernels(oracle: Callable[[TimeFunction], float], dt: float,
                     sigma: float, max_degree: int,
                     cells: dict, tail_bounds: Optional[dict] = None,
                     input_bound: float = 1.0) -> dict:
    """Recover symmetrized-kernel cell averages from a response oracle.

    ``oracle(v)`` must return the system (or state) response at instant
    ``sigma`` to the future input ``v`` supported on ``(0, sigma]``.
    ``cells[n]`` lists the degree-``n`` probing tuples, each a tuple of
    ``n`` lag windows ``(lo, hi)`` with grid-aligned, pairwise-disjoint (or
    identical) entries.

    Degrees are separated by probing at ``N+1`` distinct scalings of each
    indicator probe and solving the Vandermonde system; within a degree the
    inclusion-exclusion ladder over window subsets isolates the integral
    over the window product.  Values are cell averages of the symmetrized
    kernel.  Responses of degree ``m > n`` driven by the oracle's own past
    beyond ``sigma`` contaminate degree ``n``; when ``tail_bounds[m]`` (the
    absolute kernel mass beyond ``sigma``) is supplied, the reported
    ``residual_bound`` collects those terms.
    """
    N = max_degree
    scalings = np.arange(1, N + 2) / (N + 1.0)
    vander_cond = float(np.linalg.cond(
        np.vander(scalings, N=N + 1, increasing=True)))
    g = Grid.spanning(dt, 0.0, sigma)

    def window_indicator(windows) -> TimeFunction:
        # Activate the lag cells tau_j in [lo, hi): the probe value seen at
        # lag j dt is the sample at instant sigma - j dt.
        vals = np.zeros((g.n, 1))
        for (lo, hi) in windows:
            jlo, jhi = to_cells(lo, dt), to_cells(hi, dt)
            if jlo < 1 or jhi > g.n:
                raise ValueError("probe window must sit inside (0, sigma)")
            vals[g.n - jhi:g.n - jlo, 0] = 1.0
        return TimeFunction(g, vals, np.zeros(1))

    coeff_cache: dict = {}

    def degree_response(windows, n: int) -> float:
        key = tuple(sorted(windows))
        if key not in coeff_cache:
            coeff_cache[key] = _degree_coefficients(
                oracle, window_indicator(windows), N, scalings)
        return float(coeff_cache[key][n])

    result = {"vandermonde_cond": vander_cond, "sigma": sigma,
              "degrees": {}}
    zero_coeffs = _degree_coefficients(
        oracle, TimeFunction(g, np.zeros((g.n, 1)), np.zeros(1)), N, scalings)
    result["constant_term"] = float(zero_coeffs[0])

    for n in range(1, N + 1):
        if n not in cells:
            continue
        values, out_cells = [], []
        for tup in cells[n]:
            windows = [tuple(w) for w in tup]
            distinct = sorted(set(windows))
            widths = [hi - lo for (lo, hi) in windows]
            for (a, b) in itertools.combinations(distinct, 2):
                if not (a[1] <= b[0] or b[1] <= a[0]):
                    raise ValueError(f"overlapping probe windows {a}, {b}")
            if len(distinct) == len(windows):
                # All windows distinct: onto-part via inclusion-exclusion.
                total = 0.0
                for r in range(1, len(distinct) + 1):
                    for sub in itertools.combinations(distinct, r):
                        sgn = (-1.0) ** (len(distinct) - r)
                        total += sgn * degree_response(list(sub), n)
                vol = math.factorial(n) * math.prod(widths)
            elif len(distinct) == 1:
                if n > 2:
                    raise ValueError(
                        "repeated windows supported only up to degree 2")
                total = degree_response(distinct, n)
                vol = math.prod(widths)
            else:
                raise ValueError(
                    "cell tuples must be fully distinct or fully repeated")
            values.append(total / vol)
            out_cells.append(windows)
        residual = None
        if tail_bounds:
            residual = sum(math.comb(m, n) * (input_bound ** (m - n)) * mass
                           for m, mass in tail_bounds.items() if m > n)
        result["degrees"][n] = {"cells": out_cells, "values": values,
                                "residual_bound": residual}
    return result


def write_kernel_csv(ker: PolyKernel, dt: float, path: str) -> None:
    """Dense kernel samples as CSV: lag columns, index tuple, value."""
    K = ker.grid_values(dt)
    n, M = ker.degree, ker.input_dim
    Q = ker.grid_size(dt)
    lag_cols = ",".join(f"s{k+1}" for k in range(n))
    with open(path, "w") as fh:
        fh.write(f"# degree={n} input_dim={M} support={ker.support!r} "
                 f"dt={dt!r}\n")
        fh.write(f"{lag_cols},index,value\n")
        for idx in itertools.product(range(M), repeat=n):
            sub = K[idx]
            for jt in itertools.product(range(Q), repeat=n):
                lags = ",".join(repr((j + 1) * dt) for j in jt)
                tup = "".join(str(i + 1) for i in idx)
                fh.write(f"{lags},{tup},{float(sub[jt])!r}\n")


def read_kernel_csv(path: str) -> PolyKernel:
    """Rebuild a grid-backed kernel from :func:`write_kernel_csv` output.

    A malformed file is refused with a ``ValueError`` that names the file and
    line: a header without an integer ``degree`` and ``input_dim`` >= 1 and a
    positive ``support`` and ``dt``; more than ``CELL_CAP`` samples,
    ``(input_dim * Q) ** degree``, before they are allocated; a row without
    a field per lag, an index and a value; a field that is not a finite
    number; a lag that is not a cell in ``1..Q`` (an ``AlignmentError`` off
    the file's ``dt`` steps, as for the support); an index digit outside
    ``1..input_dim``.  Blank lines are skipped.
    """
    def field(text: str, what: str) -> float:
        x = float(text)
        if not math.isfinite(x):
            raise ValueError(f"{what} {text!r} is not a finite number")
        return x

    line = 1
    try:
        with open(path) as fh:
            meta = dict(kv.partition("=")[::2]
                        for kv in fh.readline().lstrip("# ").split())
            for key in ("degree", "input_dim", "support", "dt"):
                if key not in meta:
                    raise ValueError(f"header has no {key}")
            n, M = int(meta["degree"]), int(meta["input_dim"])
            support, dt = (field(meta[key], key) for key in ("support", "dt"))
            if min(n, M) < 1 or min(support, dt) <= 0.0:
                raise ValueError("need degree and input_dim >= 1 and a "
                                 f"positive support and dt, got {meta}")
            Q = to_cells(support, dt)
            size = float(M * Q) ** n
            if size > CELL_CAP:
                raise ValueError(f"a degree-{n} kernel of {M} inputs and {Q} "
                                 f"lag cells holds {size:.4g} samples, more "
                                 f"than the cap of {CELL_CAP:,}")
            fh.readline()  # column names
            data = np.zeros((M,) * n + (Q,) * n)
            for line, text in enumerate(fh, start=3):
                parts = text.strip().split(",")
                if parts == [""]:
                    continue
                if len(parts) != n + 2:
                    raise ValueError(f"{len(parts)} fields, need {n + 2}")
                jt = tuple(to_cells(field(x, "lag"), dt) - 1
                           for x in parts[:n])
                if not all(0 <= j < Q for j in jt):
                    raise ValueError(f"lags {parts[:n]} are not all cells in "
                                     f"1..{Q} of dt={dt}")
                idx = tuple(int(c) - 1 for c in parts[n])
                if len(idx) != n or not all(0 <= i < M for i in idx):
                    raise ValueError(f"index {parts[n]!r} is not {n} digits "
                                     f"in 1..{M}")
                data[idx][jt] = field(parts[n + 1], "value")
    except ValueError as e:
        raise type(e)(f"{path} line {line}: {e}") from None
    return PolyKernel(n, support, M, data=data, data_dt=dt)


def default_cell_lattice(dt: float, lo: float, hi: float,
                         width: Optional[float] = None) -> list:
    """Aligned probing windows tiling ``[lo, hi)``.

    The default window width is four grid cells (half-width two cells),
    the resolution floor for recovering continuous kernels; wider windows
    trade resolution for a tighter relative quadrature error ``2 dt / width``.
    ``lo``, ``hi`` and ``width`` are lengths (:func:`to_cells`).
    """
    k = 4 if width is None else to_cells(width, dt)
    if k < 1:
        raise ValueError("cell width must be a positive multiple of dt")
    j_lo, j_hi = to_cells(lo, dt), to_cells(hi, dt)
    return [(j * dt, (j + k) * dt) for j in range(j_lo, j_hi - k + 1, k)]


def kernel_from_cells(degree: int, cells, values, support: float,
                      dt: float) -> PolyKernel:
    """Piecewise-constant symmetric scalar kernel holding the recovered
    averages.

    Each cell tuple fills its window product (in every argument order, so
    the result is symmetric); unprobed regions stay zero.  Quadrature of
    such a kernel against aligned windows is exact, which is what makes
    re-identification a fixed point.
    """
    Q = to_cells(support, dt)
    data = np.zeros((1,) * degree + (Q,) * degree)
    for tup, val in zip(cells, values):
        # Sample j holds the lag (j + 1) dt.
        slices = [np.arange(max(to_cells(lo, dt), 1),
                            min(to_cells(hi, dt), Q + 1)) - 1
                  for (lo, hi) in tup]
        for order in itertools.permutations(range(degree)):
            ix = np.ix_(*[slices[o] for o in order])
            data[(0,) * degree][ix] = val
    return PolyKernel(degree, support, data=data, data_dt=dt)

"""Sampled time functions on a uniform grid approximating the whole real line.

All instants are integer multiples of a fixed step ``dt`` and are stored as
integer indices, so interval endpoints and shifts compare exactly.  A
:class:`TimeFunction` holds one vector sample per grid cell, the sample being
the value at the *right* endpoint of its cell ``(s, s + dt]``; everything at
or before the grid start takes a constant ``tail_value``.  The constant tail
stands in for the infinite past, which makes eventual levels (the limit
superior of the input as time runs to minus infinity) exact for
eventually-constant functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Interval",
    "TimeFunction",
    "AlignmentError",
    "to_cells",
    "ceil_cells",
    "shift_left",
    "shift_right",
    "splice",
    "restrict",
    "write_timefunction",
    "read_timefunction",
]

# Relative slack when snapping a float instant onto the integer lattice.
_ALIGN_RTOL = 1e-9


class AlignmentError(ValueError):
    """An instant or length that is not a whole number of grid steps."""


def _steps(x: float, dt: float, what: str) -> int:
    k = round(x / dt)
    if abs(x - k * dt) > _ALIGN_RTOL * max(1.0, abs(x)):
        raise AlignmentError(f"{what} {x} is not a multiple of dt={dt}")
    return int(k)


def to_cells(length: float, dt: float) -> int:
    """``length`` seconds as a whole number of ``dt`` steps; a length that
    is not one is refused (``AlignmentError``), never snapped."""
    return _steps(length, dt, "length")


def ceil_cells(length: float, dt: float) -> int:
    """A computed ``length`` in seconds rounded up to whole ``dt`` steps,
    ``ceil(length / dt)``, where a longer window is always safe."""
    return math.ceil(length / dt)


@dataclass(frozen=True)
class Grid:
    """Uniform lattice: instants ``i * dt`` for integer ``i`` in [i0, i1].

    The represented window holds ``i1 - i0`` samples, one per cell
    ``((i-1)*dt, i*dt]`` for ``i`` in ``(i0, i1]``.
    """

    dt: float
    i0: int
    i1: int

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.i1 <= self.i0:
            raise ValueError(f"empty grid: i0={self.i0}, i1={self.i1}")

    @staticmethod
    def spanning(dt: float, t_start: float, t_end: float) -> "Grid":
        """Step ``dt`` from ``t_start`` to ``t_end`` seconds, each end a
        length from the origin (:func:`to_cells`): refused, never snapped."""
        return Grid(dt, -to_cells(-t_start, dt), to_cells(t_end, dt))

    @property
    def t_start(self) -> float:
        return self.i0 * self.dt

    @property
    def t_end(self) -> float:
        return self.i1 * self.dt

    @property
    def n(self) -> int:
        return self.i1 - self.i0

    def times(self) -> np.ndarray:
        """Sample instants (right cell endpoints), shape (n,)."""
        return np.arange(self.i0 + 1, self.i1 + 1) * self.dt

    def index_of(self, t: float) -> int:
        """Snap instant ``t`` onto the lattice; reject misaligned instants."""
        return _steps(t, self.dt, "instant")

    def shifted(self, k: int) -> "Grid":
        return Grid(self.dt, self.i0 - k, self.i1 - k)

    def compatible(self, other: "Grid") -> bool:
        return abs(self.dt - other.dt) <= _ALIGN_RTOL * self.dt


# Sentinels accepted wherever an instant can be infinite.
NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """Half-open time interval ``(s, t]`` with ``s = -inf`` / ``t = +inf`` allowed."""

    s: float
    t: float

    def __post_init__(self):
        if not self.s < self.t:
            raise ValueError(f"need s < t, got ({self.s}, {self.t}]")

    @staticmethod
    def upto(t: float) -> "Interval":
        return Interval(NEG_INF, t)



class TimeFunction:
    """Vector-valued function of time, sampled on a :class:`Grid`.

    ``samples`` has shape ``(grid.n, dim)``; row ``j`` is the value at instant
    ``(grid.i0 + 1 + j) * dt``.  For any instant at or before the grid start
    the function equals ``tail_value``.  Instances are immutable; arithmetic
    returns new objects and requires identical grids.
    """

    __slots__ = ("grid", "samples", "tail_value")

    def __init__(self, grid: Grid, samples: np.ndarray, tail_value: np.ndarray):
        samples = np.atleast_1d(np.asarray(samples, dtype=float))
        if samples.ndim == 1:
            samples = samples[:, None]
        tail_value = np.atleast_1d(np.asarray(tail_value, dtype=float)).ravel()
        if samples.shape[0] != grid.n:
            raise ValueError(
                f"got {samples.shape[0]} samples for a grid of {grid.n} cells"
            )
        if samples.shape[1] != tail_value.shape[0]:
            raise ValueError("sample dimension does not match tail_value dimension")
        if not np.all(np.isfinite(samples)):
            raise ValueError("non-finite sample")
        if not np.all(np.isfinite(tail_value)):
            raise ValueError("non-finite tail value")
        samples = samples.copy()
        samples.setflags(write=False)
        tail_value = tail_value.copy()
        tail_value.setflags(write=False)
        self.grid = grid
        self.samples = samples
        self.tail_value = tail_value

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def value_at_index(self, i: int) -> np.ndarray:
        """Value at instant ``i * dt``.  Queries beyond the grid end fail."""
        if i <= self.grid.i0:
            return self.tail_value
        if i > self.grid.i1:
            raise IndexError(
                f"instant index {i} is beyond the represented horizon {self.grid.i1}"
            )
        return self.samples[i - self.grid.i0 - 1]

    def value(self, t: float) -> np.ndarray:
        return self.value_at_index(self.grid.index_of(t))

    def values_at_indices(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value_at_index`; tail used below the window."""
        idx = np.asarray(idx, dtype=int)
        if np.any(idx > self.grid.i1):
            raise IndexError("instant index beyond the represented horizon")
        out = np.empty((idx.shape[0], self.dim))
        past = idx <= self.grid.i0
        out[past] = self.tail_value
        out[~past] = self.samples[idx[~past] - self.grid.i0 - 1]
        return out

    def values_after(self, i: int) -> np.ndarray:
        """Values at the instants ``i + 1 .. grid.i1`` (none if ``i >=
        grid.i1``), the tail filling those at or below ``grid.i0``."""
        fill = np.broadcast_to(self.tail_value, (max(0, self.grid.i0 - i), self.dim))
        return np.concatenate([fill, self.samples[max(0, i - self.grid.i0):]])

    # -- arithmetic (identical grids required) ----------------------------

    def _check_same_grid(self, other: "TimeFunction"):
        if self.grid != other.grid:
            raise ValueError("grids differ; align windows first")

    def __add__(self, other: "TimeFunction") -> "TimeFunction":
        self._check_same_grid(other)
        return TimeFunction(
            self.grid, self.samples + other.samples, self.tail_value + other.tail_value
        )

    def __sub__(self, other: "TimeFunction") -> "TimeFunction":
        self._check_same_grid(other)
        return TimeFunction(
            self.grid, self.samples - other.samples, self.tail_value - other.tail_value
        )

    def __mul__(self, c: float) -> "TimeFunction":
        return TimeFunction(self.grid, self.samples * c, self.tail_value * c)

    __rmul__ = __mul__

    def with_window(self, i0: int, i1: int) -> "TimeFunction":
        """Re-window onto ``[i0, i1]``.

        Extending into the past materializes the tail; truncating drops
        samples.  Extension beyond the represented future is refused since
        those values are unknown.
        """
        if i1 > self.grid.i1:
            raise ValueError("cannot extend beyond the represented horizon")
        g = Grid(self.grid.dt, i0, i1)
        idx = np.arange(i0 + 1, i1 + 1)
        return TimeFunction(g, self.values_at_indices(idx), self.tail_value)

    def __repr__(self) -> str:
        g = self.grid
        return (
            f"TimeFunction(dim={self.dim}, dt={g.dt}, window=({g.t_start}, {g.t_end}],"
            f" tail={np.array2string(self.tail_value, precision=3)})"
        )


def shift_left(f: TimeFunction, tau: float) -> TimeFunction:
    """Left shift: ``(shift_left(f, tau))(t) = f(t + tau)``.

    ``tau`` must be grid-aligned.  The sample array is untouched; only the
    window moves, so shifted norms match unshifted ones bit for bit.
    """
    k = f.grid.index_of(tau)
    # ``f``'s arrays are already validated and frozen: share, not copy.
    out = object.__new__(TimeFunction)
    out.grid, out.samples, out.tail_value = (f.grid.shifted(k), f.samples,
                                             f.tail_value)
    return out


def shift_right(f: TimeFunction, tau: float) -> TimeFunction:
    """Right shift by ``tau``, i.e. ``shift_left`` by ``-tau``."""
    return shift_left(f, -tau)


def splice(h: TimeFunction, g: TimeFunction, s: float) -> TimeFunction:
    """Concatenate ``h``'s past with ``g``'s future at instant ``s``.

    The result equals ``h`` on ``(-inf, s]`` (including ``h``'s tail) and
    ``g`` on ``(s, +inf)``.  Both operands must share the step ``dt``; ``h``
    must be defined up to ``s`` and ``g`` beyond it.
    """
    if not h.grid.compatible(g.grid):
        raise ValueError("incompatible grids: different dt")
    if h.dim != g.dim:
        raise ValueError("incompatible value dimensions")
    si = h.grid.index_of(s)
    if si > h.grid.i1:
        raise ValueError("past operand is not defined up to the splice instant")
    if g.grid.i1 <= si:
        raise ValueError("future operand ends at or before the splice instant")
    # The result starts at ``h``'s window or at ``si``, whichever is earlier,
    # so its past part is the first ``si - i0`` samples of ``h``.
    i0 = min(h.grid.i0, si)
    vals = np.concatenate([h.samples[:si - i0], g.values_after(si)])
    return TimeFunction(Grid(h.grid.dt, i0, g.grid.i1), vals, h.tail_value)


def restrict(f: TimeFunction, iv: Interval, pad_with_tail: bool = False) -> TimeFunction:
    """Zero ``f`` outside ``(iv.s, iv.t]`` (or keep the tail on the left).

    With ``pad_with_tail`` the values at and before ``iv.s`` stay at
    ``f.tail_value`` instead of zero; this realizes representatives of
    equivalence classes that only constrain a window.
    """
    lo = f.grid.i0 if iv.s == NEG_INF else f.grid.index_of(iv.s)
    hi = f.grid.i1 if iv.t == POS_INF else f.grid.index_of(iv.t)
    idx = np.arange(f.grid.i0 + 1, f.grid.i1 + 1)
    inside = (idx > lo) & (idx <= hi)
    fill = f.tail_value if pad_with_tail and iv.s == NEG_INF else np.zeros(f.dim)
    vals = np.where(inside[:, None], f.samples, fill)
    tail = f.tail_value if (iv.s == NEG_INF) else np.zeros(f.dim)
    return TimeFunction(f.grid, vals, tail)


# -- serialization -------------------------------------------------------
#
# CSV carries a readable table (`t,x1..xM`) plus one metadata comment line;
# the sidecar JSON stores every 64-bit value as a hexadecimal float so a
# round trip is bit exact.


def write_timefunction(f: TimeFunction, path: str) -> None:
    g = f.grid
    with open(path, "w") as fh:
        fh.write(f"# dt={g.dt!r} i0={g.i0} i1={g.i1} tail={f.tail_value.tolist()!r}\n")
        fh.write("t," + ",".join(f"x{k+1}" for k in range(f.dim)) + "\n")
        for t, row in zip(g.times(), f.samples):
            fh.write(f"{float(t)!r},"
                     + ",".join(repr(float(v)) for v in row) + "\n")
    meta = {
        "dt": float(g.dt).hex(),
        "i0": g.i0,
        "i1": g.i1,
        "dim": f.dim,
        "tail_value": [float(v).hex() for v in f.tail_value],
        "samples": [[float(v).hex() for v in row] for row in f.samples],
    }
    with open(path + ".json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def read_timefunction(path: str) -> TimeFunction:
    with open(path + ".json") as fh:
        meta = json.load(fh)
    grid = Grid(float.fromhex(meta["dt"]), int(meta["i0"]), int(meta["i1"]))
    samples = np.array(
        [[float.fromhex(v) for v in row] for row in meta["samples"]], dtype=float
    ).reshape(grid.n, meta["dim"])
    tail = np.array([float.fromhex(v) for v in meta["tail_value"]])
    return TimeFunction(grid, samples, tail)

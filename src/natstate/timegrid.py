"""Sampled time functions on a uniform grid approximating the whole real line.

All instants are integer multiples of a fixed step ``dt`` and are stored as
integer indices, so interval endpoints and shifts compare exactly.  A
:class:`TimeFunction` holds one vector sample per grid cell, the sample being
the value at the *right* endpoint of its cell ``(s, s + dt]``; everything at
or before the grid start takes a constant ``tail_value``.  The constant tail
stands in for the infinite past, which makes eventual levels (the limit
superior of the input as time runs to minus infinity) exact for
eventually-constant functions.  Leading axes of the samples stack a
batch of functions on one grid, validated once as a whole.
"""

from __future__ import annotations

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
]

# Relative slack when snapping a float instant onto the integer lattice.
_ALIGN_RTOL = 1e-9

# The most cells one array built from outside input may take: a config
# length or kernel at the run's dt, or the samples of a kernel file.
CELL_CAP = 10 ** 6


class AlignmentError(ValueError):
    """An instant or length that is not a whole number of grid steps."""


def _steps(x: float, dt: float, what: str) -> int:
    k = round(x / dt)
    if abs(x - k * dt) > _ALIGN_RTOL * max(1.0, abs(x)):
        raise AlignmentError(f"{what} {x} is not a multiple of dt={dt}")
    return int(k)


def _positive(x: float, what: str) -> float:
    """``x`` if it is positive and finite; ``ValueError`` otherwise, NaN
    included."""
    if not 0.0 < x < POS_INF:
        raise ValueError(f"{what} must be positive and finite, got {x}")
    return x


def _is_int(v) -> bool:
    """Whether ``v`` is an integer and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


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
        _positive(self.dt, "dt")
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
        return np.arange(self.i0 + 1, self.i1 + 1, dtype=float) * self.dt

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


class TimeFunction:
    """Vector-valued function of time, sampled on a :class:`Grid`, or a
    batch of them on one grid.

    ``samples`` has shape ``(..., grid.n, dim)``; row ``j`` is the value at
    instant ``(grid.i0 + 1 + j) * dt``.  For any instant at or before the
    grid start the function equals ``tail_value`` (``(..., dim)``).
    Leading axes index a batch: ``f[k]`` is one function and a slice or an
    index array gives a batch, sharing the arrays.  Queries, arithmetic and
    re-windowing broadcast over the batch axes.  Arrays are copied, checked
    finite once as a whole and frozen; arithmetic returns new objects and
    requires identical grids.
    """

    __slots__ = ("grid", "samples", "tail_value")

    def __init__(self, grid: Grid, samples: np.ndarray, tail_value: np.ndarray):
        samples = np.array(samples, dtype=float, ndmin=1)
        if samples.ndim == 1:
            samples = samples[:, None]
        tail_value = np.array(tail_value, dtype=float)
        if samples.ndim == 2:
            tail_value = tail_value.ravel()
        if (samples.shape[-2] != grid.n or tail_value.shape
                != samples.shape[:-2] + samples.shape[-1:]):
            raise ValueError(f"need samples (..., {grid.n}, dim) and "
                             f"tail_value (..., dim), got {samples.shape} "
                             f"and {tail_value.shape}")
        if not (np.isfinite(samples).all() and np.isfinite(tail_value).all()):
            raise ValueError("non-finite sample or tail value")
        _shared(grid, samples, tail_value, self)

    @staticmethod
    def stack(fs) -> "TimeFunction":
        """``fs`` as one batch: a batch as it is, or a non-empty sequence of
        (already validated) functions on one grid, stacked (one, viewed)."""
        if isinstance(fs, TimeFunction):
            return fs
        if not fs or any(f.grid != fs[0].grid for f in fs):
            raise ValueError("need one or more functions on one grid")
        stack = (lambda xs: xs[0][None]) if len(fs) == 1 else np.stack
        return _shared(fs[0].grid, stack([f.samples for f in fs]),
                       stack([f.tail_value for f in fs]))

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.samples.shape[-1]

    def __len__(self) -> int:
        if self.samples.ndim < 3:
            raise TypeError("one function is not a batch")
        return self.samples.shape[0]

    def __getitem__(self, k) -> "TimeFunction":
        len(self)  # one function is not a batch
        return _shared(self.grid, self.samples[k], self.tail_value[k])

    def value(self, t: float) -> np.ndarray:
        """Value at instant ``t``; queries beyond the grid end fail."""
        return self.values_at_indices([self.grid.index_of(t)])[..., 0, :]

    def values_at_indices(self, idx: np.ndarray) -> np.ndarray:
        """Values ``(..., I, dim)`` at the instants ``idx * dt``, the tail at
        or below the window start; an instant beyond the grid end fails
        (``IndexError``)."""
        g = self.grid
        idx = np.asarray(idx, dtype=int)
        if np.any(idx > g.i1):
            raise IndexError("instant index beyond the represented horizon")
        past = idx <= g.i0
        rows = self.samples[..., np.where(past, 0, idx - g.i0 - 1), :]
        return np.where(past[:, None], self.tail_value[..., None, :], rows)

    def values_after(self, i: int) -> np.ndarray:
        """Values at the instants ``i + 1 .. grid.i1`` (none if ``i >=
        grid.i1``), the tail filling those at or below ``grid.i0``."""
        g, tail = self.grid, self.tail_value[..., None, :]
        fill = np.broadcast_to(tail, tail.shape[:-2]
                               + (max(0, g.i0 - i), self.dim))
        return np.concatenate([fill, self.samples[..., max(0, i - g.i0):, :]],
                              -2)

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


def _shared(grid: Grid, samples: np.ndarray, tail_value: np.ndarray,
            out: TimeFunction | None = None) -> TimeFunction:
    """A function (``out``, or a new one) on arrays already validated:
    frozen and shared, not copied or checked again."""
    samples.setflags(write=False)
    tail_value.setflags(write=False)
    out = object.__new__(TimeFunction) if out is None else out
    out.grid, out.samples, out.tail_value = grid, samples, tail_value
    return out


def shift_left(f: TimeFunction, tau: float) -> TimeFunction:
    """Left shift: ``(shift_left(f, tau))(t) = f(t + tau)``.

    ``tau`` must be grid-aligned.  The sample array is untouched; only the
    window moves, so shifted norms match unshifted ones bit for bit.
    """
    return _shared(f.grid.shifted(f.grid.index_of(tau)), f.samples,
                   f.tail_value)


def shift_right(f: TimeFunction, tau: float) -> TimeFunction:
    """Right shift by ``tau``, i.e. ``shift_left`` by ``-tau``."""
    return shift_left(f, -tau)


def splice(h: TimeFunction, g: TimeFunction, s: float) -> TimeFunction:
    """Concatenate ``h``'s past with ``g``'s future at instant ``s``.

    The result equals ``h`` on ``(-inf, s]`` (including ``h``'s tail) and
    ``g`` on ``(s, +inf)``.  Both operands must share the step ``dt``; ``h``
    must be defined up to ``s`` and ``g`` beyond it.  Batch axes broadcast,
    so one past splices onto each future of a batch.
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
    parts = [h.samples[..., :si - i0, :], g.values_after(si)]
    if parts[0].shape[:-2] != parts[1].shape[:-2]:
        batch = np.broadcast_shapes(*(x.shape[:-2] for x in parts))
        parts = [np.broadcast_to(x, batch + x.shape[-2:]) for x in parts]
    vals = np.concatenate(parts, -2)
    return TimeFunction(Grid(h.grid.dt, i0, g.grid.i1), vals, np.broadcast_to(
        h.tail_value, vals.shape[:-2] + (h.dim,)))

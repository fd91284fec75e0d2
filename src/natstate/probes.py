"""Seeded probe inputs for norm estimation and property sweeps.

Operator norms here are suprema estimated from below by maximizing over a
finite probe set, so every inequality asserted between two estimates is
computed on *matched* probes.  The generator is deterministic for a given
seed and emits the standard mix: constants, indicators, ramps, sinusoids,
and smoothed noise.
"""

from __future__ import annotations

import numpy as np
# numpy loads its random module lazily; import it with the package so that
# the first probe draw does not pay for it.
import numpy.random  # noqa: F401

from .timegrid import Grid, TimeFunction

__all__ = ["probe_set", "future_probes"]


def _smooth_noise(rng, n: int) -> np.ndarray:
    """``n`` samples of white noise under a nine-point Hann window."""
    raw = rng.standard_normal(n + 9)
    ker = np.hanning(9)
    ker /= ker.sum()
    return np.convolve(raw, ker, mode="same")[:n]


def probe_set(grid: Grid, seed: int, count: int = 20,
              tails: bool = True) -> list[TimeFunction]:
    """Deterministic list of scalar probes on ``grid``.

    With ``tails`` the constant probes carry matching nonzero tails;
    otherwise every probe has zero tail (needed e.g. for inputs into
    time-varying operators).
    """
    rng = np.random.default_rng(seed)
    n = grid.n
    t = grid.times()
    out: list[TimeFunction] = []

    def add(vals, tail=0.0):
        out.append(TimeFunction(grid, np.asarray(vals, dtype=float)[:, None],
                                np.array([tail])))

    add(np.zeros(n))
    add(np.ones(n), tail=1.0 if tails else 0.0)
    span = grid.t_end - grid.t_start
    add((t - grid.t_start) / span)  # ramp up from the window start
    add(np.sin(2.0 * np.pi * (t - grid.t_start) / span))
    while len(out) < count:
        k = len(out)
        kind = k % 4
        if kind == 0:
            a = grid.t_start + (0.1 + 0.6 * rng.random()) * span
            b = a + (0.05 + 0.3 * rng.random()) * span
            b = min(b, grid.t_end)
            # Random breakpoints, each rounded to its nearest cell.
            ia, ib = round(a / grid.dt), round(b / grid.dt)
            if ib <= ia:
                ib = ia + 1
            vals = np.zeros(n)
            idx = np.arange(grid.i0 + 1, grid.i1 + 1)
            vals[(idx > ia) & (idx <= ib)] = 2.0 * rng.random() - 1.0
            add(vals)
        elif kind == 1:
            add(_smooth_noise(rng, n))
        elif kind == 2:
            freq = 1.0 + 3.0 * rng.random()
            phase = 2.0 * np.pi * rng.random()
            add(np.cos(2.0 * np.pi * freq * (t - grid.t_start) / span + phase))
        else:
            level = 2.0 * rng.random() - 1.0
            add(level * np.ones(n), tail=level if tails else 0.0)
    return out[:count]


def future_probes(dt: float, horizon: float, seed: int,
                  count: int = 20) -> list[TimeFunction]:
    """Probes supported on ``(0, horizon]`` with zero tails: future inputs."""
    g = Grid.spanning(dt, 0.0, horizon)
    return probe_set(g, seed, count=count, tails=False)


def random_timefunction(grid: Grid, rng, tail: float = 0.0) -> TimeFunction:
    """One genuinely random scalar probe: smoothed noise plus a random bump,
    rescaled to the pointwise bound one and riding on a constant ``tail``.

    Unlike :func:`probe_set`, whose first entries are fixed canonical
    shapes, every draw here depends on the generator state.
    """
    rng = np.random.default_rng(rng)
    n = grid.n
    vals = _smooth_noise(rng, n)
    lo = int(rng.integers(0, max(n - 2, 1)))
    hi = int(rng.integers(lo + 1, n + 1))
    vals[lo:hi] += rng.uniform(-1.0, 1.0)
    m = float(np.max(np.abs(vals)))
    if m > 0:
        vals *= 1.0 / m
    return TimeFunction(grid, vals + tail, np.array([float(tail)]))

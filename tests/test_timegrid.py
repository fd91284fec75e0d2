import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natstate import (AlignmentError, Grid, TimeBatch, TimeFunction,
                      shift_left, shift_right, splice)
from natstate.calculus import SmoothInput
from natstate.timegrid import _values_after


def _same(a, b):
    """``a`` and ``b`` have one grid, equal samples and equal tails."""
    return (a.grid == b.grid and np.array_equal(a.samples, b.samples)
            and np.array_equal(a.tail_value, b.tail_value))


def test_zero_function_tail_lookup():
    g = Grid(0.5, -4, 4)
    f = TimeFunction(g, np.zeros(8), 0.0)
    assert np.all(f.value(-10.0) == 0.0)
    assert _same(f, 0.0 * f)


def test_constructor_validation():
    g = Grid(0.5, -4, 4)
    with pytest.raises(ValueError):
        TimeFunction(g, np.zeros(7), 0.0)
    with pytest.raises(ValueError):
        TimeFunction(g, np.full(8, np.nan), 0.0)
    with pytest.raises(ValueError):
        Grid(0.5, 3, 3)
    with pytest.raises(ValueError):
        g.index_of(0.26)


def test_spanning_refuses_ends_off_the_lattice():
    assert Grid.spanning(0.01, -8.0, 2.0) == Grid(0.01, -800, 200)
    assert Grid.spanning(0.03, 0.0, 0.3) == Grid(0.03, 0, 10)
    # 2.0 s is 66.7 cells of 0.03 s and -1.5 s is -37.5 cells of 0.04 s.
    with pytest.raises(AlignmentError, match="length 2.0 is not"):
        Grid.spanning(0.03, 0.0, 2.0)
    with pytest.raises(AlignmentError, match="length 1.5 is not"):
        Grid.spanning(0.04, -1.5, 2.0)


def test_trapezoid_branch_values():
    # Piecewise shape: 0, rising ramp, plateau at 1, falling ramp, 0.
    g = Grid(0.001, -2000, 12000)
    u = SmoothInput.trapezoid().sample(g)
    assert u.value(-1.5) == 0.0
    assert u.value(-0.5) == pytest.approx(0.5)
    assert u.value(5.0) == 1.0
    assert u.value(10.5) == pytest.approx(0.5)
    assert u.value(11.8) == 0.0
    assert u.tail_value[0] == 0.0


def test_constant_tail_member():
    g = Grid(0.5, -4, 4)
    one = TimeFunction(g, np.ones(8), 1.0)
    assert one.value(-99.0) == 1.0
    assert one.value(2.0) == 1.0


def test_shift_identity_and_group_law(rough):
    assert _same(shift_left(rough, 0.0), rough)
    a = shift_left(shift_left(rough, 0.3), 0.45)
    b = shift_left(rough, 0.75)
    assert _same(a, b)
    assert shift_right(rough, 0.3).grid.i0 == rough.grid.i0 + 6


def test_shift_of_constant_is_itself():
    g = Grid(0.5, -4, 4)
    c = TimeFunction(g, 3.0 * np.ones(8), 3.0)
    s = shift_left(c, 1.0)
    for t in (-1.0, 0.0, 1.0):
        assert s.value(t) == c.value(t) == 3.0


def test_shifted_trapezoid_breakpoints():
    # Left-shifting by h moves every breakpoint down by h.
    h = 0.5
    g = Grid(0.001, -3000, 12000)
    u = SmoothInput.trapezoid().sample(g)
    lu = shift_left(u, h)
    for t in (-1.0 - h, -h, 10.0 - h, 11.0 - h):
        assert lu.value(t) == pytest.approx(u.value(t + h))
    assert lu.value(-h) == pytest.approx(1.0)
    assert lu.value(11.0 - h) == 0.0


def test_splice_self_identity(rough):
    for s in (-1.0, 0.0, 0.85):
        sp = splice(rough, rough, s)
        assert _same(sp, rough)


def test_splice_values_and_tail(grid, rng):
    past = TimeFunction(grid, np.ones((grid.n, 1)), np.array([1.0]))
    fut = TimeFunction(grid, np.zeros((grid.n, 1)), np.array([0.0]))
    sp = splice(past, fut, 0.0)
    assert sp.value(-0.5) == 1.0 and sp.value(-50.0) == 1.0
    assert sp.value(0.0) == 1.0  # the splice instant belongs to the past
    assert sp.value(0.05) == 0.0
    assert sp.tail_value[0] == 1.0


def test_splice_associativity(grid, rng):
    f = TimeFunction(grid, rng.standard_normal((grid.n, 1)), np.array([0.3]))
    g2 = TimeFunction(grid, rng.standard_normal((grid.n, 1)), np.array([-1.0]))
    h = TimeFunction(grid, rng.standard_normal((grid.n, 1)), np.array([2.0]))
    r, s = -0.5, 0.5
    a = splice(splice(f, g2, r), h, s)
    b = splice(f, splice(g2, h, s), r)
    assert _same(a, b)


def test_splice_errors(grid):
    f = TimeFunction(grid, np.ones((grid.n, 1)), np.array([0.0]))
    other = TimeFunction(Grid(0.1, -10, 10), np.ones((20, 1)), np.array([0.0]))
    with pytest.raises(ValueError):
        splice(f, other, 0.0)


def test_with_window_extends_past_not_future(rough):
    g = rough.grid
    wide = rough.with_window(g.i0 - 10, g.i1)
    assert np.all(wide.samples[:10] == rough.tail_value)
    with pytest.raises(ValueError):
        rough.with_window(g.i0, g.i1 + 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=-20, max_value=20),
       st.integers(min_value=-20, max_value=20))
def test_shift_group_law_property(a, b):
    g = Grid(0.1, -25, 25)
    vals = np.sin(np.arange(g.n, dtype=float))[:, None]
    f = TimeFunction(g, vals, np.array([0.25]))
    lhs = shift_left(shift_left(f, a * g.dt), b * g.dt)
    rhs = shift_left(f, (a + b) * g.dt)
    assert lhs.grid == rhs.grid
    assert np.array_equal(lhs.samples, rhs.samples)


def _splice_by_masks(h, g, s):
    """Gather form of :func:`splice`: one instant index per sample, then a
    boolean mask for each side."""
    si = h.grid.index_of(s)
    i0 = min(h.grid.i0, si)
    idx = np.arange(i0 + 1, g.grid.i1 + 1)
    vals = np.empty((idx.shape[0], h.dim))
    past = idx <= si
    vals[past] = h.values_at_indices(idx[past])
    vals[~past] = g.values_at_indices(idx[~past])
    return TimeFunction(Grid(h.grid.dt, i0, g.grid.i1), vals, h.tail_value)


# h lives on (-20, 10]; (splice index, g's i0, g's i1).
@pytest.mark.parametrize("si, g0, g1", [
    (-25, -30, 5),   # si < h.i0, g.i0 < si
    (-25, -22, 5),   # si < h.i0, g.i0 > si: g's tail fills the gap
    (-20, -20, 3),   # si == h.i0 == g.i0
    (10, 0, 20),     # si == h.i1, g.i0 < si
    (10, 15, 30),    # si == h.i1, g.i0 > si
    (0, 3, 12),      # inside h, g.i0 > si
    (0, -40, 1),     # inside h, g.i0 < si, one future sample
])
def test_splice_matches_mask_gather(si, g0, g1):
    rng = np.random.default_rng([si + 50, g0 + 50])
    dt = 0.05
    h = TimeFunction(Grid(dt, -20, 10), rng.standard_normal((30, 2)),
                     np.array([0.7, -1.2]))
    g = TimeFunction(Grid(dt, g0, g1), rng.standard_normal((g1 - g0, 2)),
                     np.array([-3.0, 2.5]))
    got = splice(h, g, si * dt)
    assert _same(got, _splice_by_masks(h, g, si * dt))


@settings(max_examples=60, deadline=None)
@given(st.integers(-30, 10), st.integers(1, 40), st.integers(-30, 30),
       st.integers(1, 40), st.data())
def test_splice_matches_mask_gather_random(h0, hn, g0, gn, data):
    dt = 0.1
    h = TimeFunction(Grid(dt, h0, h0 + hn),
                     np.arange(hn, dtype=float) + 1.0, np.array([-1.0]))
    g = TimeFunction(Grid(dt, g0, g0 + gn),
                     -np.arange(gn, dtype=float) - 1.0, np.array([9.0]))
    hi = min(h.grid.i1, g.grid.i1 - 1)
    if hi < h0 - 15:
        return
    si = data.draw(st.integers(h0 - 15, hi))
    assert _same(splice(h, g, si * dt), _splice_by_masks(h, g, si * dt))


# -- batches -------------------------------------------------------------------


def _batch(grid, seed, B=3, dim=2):
    rng = np.random.default_rng(seed)
    return TimeBatch(grid, rng.standard_normal((B, grid.n, dim)),
                     rng.standard_normal((B, dim)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["samples", "tails"])
def test_batch_refuses_non_finite_values(bad, where):
    g = Grid(0.5, -4, 4)
    samples, tails = np.zeros((3, g.n, 2)), np.zeros((3, 2))
    (samples if where == "samples" else tails)[2, -1, ...] = bad
    with pytest.raises(ValueError, match="non-finite"):
        TimeBatch(g, samples, tails)


def test_batch_difference_that_overflows_is_refused():
    g = Grid(0.5, -4, 4)
    big = TimeBatch(g, np.full((1, g.n, 1), 1e308), np.zeros((1, 1)))
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="non-finite"):
        big - TimeBatch(g, np.full((1, g.n, 1), -1e308), np.zeros((1, 1)))


def test_batch_refuses_bad_shapes_and_mixed_grids():
    g = Grid(0.5, -4, 4)
    with pytest.raises(ValueError, match="need samples"):
        TimeBatch(g, np.zeros((3, g.n - 1, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="need samples"):
        TimeBatch(g, np.zeros((3, g.n, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="grids differ"):
        _batch(g, 1) - _batch(Grid(0.5, -3, 5), 2)
    with pytest.raises(ValueError, match="one grid"):
        TimeBatch.stack([TimeFunction(g, np.zeros(8), 0.0),
                         TimeFunction(g.shifted(1), np.zeros(8), 0.0)])
    with pytest.raises(ValueError, match="one grid"):
        TimeBatch.stack([])


def test_batch_arrays_are_read_only_and_shared():
    g = Grid(0.5, -4, 4)
    src = np.zeros((2, g.n, 1))
    a = TimeBatch(g, src, np.zeros((2, 1)))
    src[0, 0, 0] = 1.0  # the batch holds its own copy
    assert a.samples[0, 0, 0] == 0.0
    fs = [TimeFunction(g, np.arange(8.0), 1.0), TimeFunction(g, np.ones(8), 2.0)]
    for b in (a, TimeBatch.stack(fs), a - a, a[1:], a[[1, 0]]):
        for arr in (b.samples, b.tails):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 1.0
    stacked = TimeBatch.stack(fs)
    assert TimeBatch.stack(stacked) is stacked
    for k, f in enumerate(fs):
        row = stacked[k]
        assert _same(row, f)
        # A row shares the stack's arrays and stays frozen.
        assert np.shares_memory(row.samples, stacked.samples)
        with pytest.raises(ValueError, match="read-only"):
            row.samples[0, 0] = 5.0
    assert [_same(r, f) for r, f in zip(stacked, fs)] == [True, True]
    assert len(stacked[:0]) == 0 and stacked[:0].grid == g


@pytest.mark.parametrize("i", [-9, -4, -1, 0, 2, 4, 6])
def test_values_after_reads_each_function_and_its_tail(i):
    # For one function and for a stack: the value at every instant after
    # i up to the grid end, the tail before the grid.
    g = Grid(0.5, -4, 4)
    b = _batch(g, 3)
    idx = np.arange(i + 1, g.i1 + 1)
    got = _values_after(g, b.samples, b.tails, i)
    for k, f in enumerate(b):
        want = f.values_at_indices(idx)
        assert got[k].tobytes() == want.tobytes()
        assert _values_after(g, f.samples, f.tail_value, i).tobytes() == \
            want.tobytes()

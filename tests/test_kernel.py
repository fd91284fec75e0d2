import math

import numpy as np
import pytest

from natstate import (AlignmentError, Grid, NaturalState, Permutation,
                      PolyIntegralOperator, PolyKernel, TimeFunction,
                      check_symmetrization_properties, identify_kernels,
                      kernel_from_cells, permutation_change_of_variables,
                      symmetrize)
from natstate import catalog
from natstate import kernel as kernel_mod
from natstate.kernel import _symmetrized_array
from natstate.probes import probe_set

DT = 0.02


def test_permutation_basics():
    p = Permutation((2, 1, 3))
    q = Permutation((3, 1, 2))
    assert p(1) == 2 and p.inverse()(2) == 1
    # Left-to-right composition, and the inverse reversal rule.
    pq = p.then(q)
    assert pq.mapping == tuple(q(p(i)) for i in (1, 2, 3))
    assert pq.inverse().mapping == q.inverse().then(p.inverse()).mapping
    assert len(Permutation.all(4)) == 24
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_permutation_tables_six_symbols():
    rho = Permutation((3, 4, 6, 5, 2, 1))
    t1 = permutation_change_of_variables(Permutation((2, 1, 3, 5, 4, 6)), rho)
    assert t1["rho_inverse"] == (6, 5, 1, 2, 4, 3)
    assert t1["pi_inverse"] == (2, 1, 3, 5, 4, 6)
    assert t1["pi_rho_inverse"] == (5, 6, 1, 4, 2, 3)
    # sigma_{pi rho^-1(k)} carries the symbol tau_{pi(k)} for every k.
    assert t1["identity_holds"]
    assert [(r["pi_rho_inv"], r["sigma_symbol"]) for r in t1["rows"]] == \
        [(5, 2), (6, 1), (1, 3), (4, 5), (2, 4), (3, 6)]
    t2 = permutation_change_of_variables(Permutation((4, 2, 1, 5, 3, 6)), rho)
    assert t2["pi_inverse"] == (3, 2, 5, 1, 4, 6)
    assert t2["pi_rho_inverse"] == (2, 5, 6, 4, 1, 3)
    assert t2["identity_holds"]
    assert [(r["pi_rho_inv"], r["sigma_symbol"]) for r in t2["rows"]] == \
        [(2, 4), (5, 2), (6, 1), (4, 5), (1, 3), (3, 6)]


def test_symmetrize_fixed_point_and_two_term():
    sym = PolyKernel(2, 1.0, func=lambda a, b: np.exp(-(np.asarray(a)
                                                        + np.asarray(b))))
    K = sym.grid_values(DT)
    assert np.array_equal(K, _symmetrized_array(K, 2))
    lin = PolyKernel(2, 1.0, func=lambda a, b: np.asarray(a) + 0.0 * b)
    lin_s = symmetrize(lin)
    xs = np.array([0.2, 0.5])
    got = lin_s.func(xs[:, None], xs[None, :])
    assert np.array_equal(got, 0.5 * (xs[:, None] + xs[None, :]))


def test_symmetrize_idempotent_linear():
    rng = np.random.default_rng(0)
    K = rng.standard_normal((1, 1, 6, 6))
    L = rng.standard_normal((1, 1, 6, 6))
    S1 = _symmetrized_array(K, 2)
    assert np.allclose(_symmetrized_array(S1, 2), S1, atol=1e-15)
    assert np.allclose(_symmetrized_array(2.0 * K + L, 2),
                       2.0 * S1 + _symmetrized_array(L, 2), atol=1e-13)


def test_vector_six_term_expansion():
    # Degree 3, two components, repeated index (1,1,2): the symmetrized
    # entry is the six-term average with arguments permuted alongside.
    rng = np.random.default_rng(1)
    Q = 4
    data = rng.standard_normal((2, 2, 2, Q, Q, Q))
    Ks = _symmetrized_array(data, 3)
    for _ in range(10):
        a, b, c = rng.integers(0, Q, size=3)
        manual = (data[0, 0, 1][a, b, c] + data[0, 0, 1][b, a, c]
                  + data[0, 1, 0][a, c, b] + data[0, 1, 0][b, c, a]
                  + data[1, 0, 0][c, a, b] + data[1, 0, 0][c, b, a]) / 6.0
        assert Ks[0, 0, 1][a, b, c] == pytest.approx(manual, abs=1e-14)


def test_operator_invariance_asymmetric_degree2():
    asym = PolyKernel(2, 0.5, func=lambda a, b:
                      np.exp(-2.0 * np.asarray(a) - np.asarray(b)))
    g = Grid(DT, -20, 20)
    probes = probe_set(g, 2, count=5, tails=False)
    rep = check_symmetrization_properties(asym, probes, DT, rng=3)
    assert rep["operator_invariance_max_diff"] <= 1e-9
    assert rep["reindexing_ok"]


def test_operator_invariance_degree3():
    asym = PolyKernel(3, 0.2, func=lambda a, b, c: (1.0 + np.asarray(a)) *
                      np.exp(-np.asarray(b)) * (2.0 - np.asarray(c)))
    g = Grid(0.04, -10, 10)
    probes = probe_set(g, 3, count=4, tails=False)
    rep = check_symmetrization_properties(asym, probes, 0.04, rng=5)
    assert rep["operator_invariance_max_diff"] <= 1e-9
    assert rep["reindexing_ok"]


def test_separable_footnote_identity():
    # Separable asymmetric kernel: symmetrized and raw quadratures agree to
    # near round-off, the footnote identity behind symmetric replacement.
    sep = PolyKernel(2, 0.6, func=lambda a, b:
                     np.exp(-np.asarray(a)) * np.cos(np.asarray(b)))
    g = Grid(DT, -15, 15)
    probes = probe_set(g, 4, count=5, tails=False)
    rep = check_symmetrization_properties(sep, probes, DT, rng=7)
    assert rep["operator_invariance_max_diff"] <= 1e-12


def test_vector_kernel_operator_invariance():
    def vec(idx, a, b):
        i, j = idx
        return np.exp(-(i * np.asarray(a) + 0.5 * j * np.asarray(b)))
    ker = PolyKernel(2, 0.4, input_dim=2, func=vec)
    g = Grid(DT, -15, 15)
    # The scalar probes on both components: zeros, ones, ramp, sine.
    probes = [TimeFunction(g, np.repeat(p.samples, 2, axis=1), np.zeros(2))
              for p in probe_set(g, 5, count=4, tails=False)]
    rep = check_symmetrization_properties(ker, probes, DT, rng=9)
    assert rep["operator_invariance_max_diff"] <= 1e-10
    assert rep["reindexing_ok"]


# -- identification -----------------------------------------------------------


def _exp_cell_avg(c1, c2, width):
    f = lambda lo, hi: math.exp(-lo) - math.exp(-hi)
    return f(*c1) * f(*c2) / (width * width)


def test_identify_known_degree2_kernel():
    dt = 0.01
    b = catalog.system("quadratic-volterra", dt)
    sysq = b.system
    sigma = 2.25
    g = Grid(dt, -50, int(round(sigma / dt)))
    rng = np.random.default_rng(11)
    past = TimeFunction(g, rng.standard_normal((g.n, 1)) * 0.5, np.zeros(1))
    st = NaturalState(sysq, past, 0.0)
    sig_idx = [int(round(sigma / dt))]
    oracle = lambda v: float(st.evaluate_at(v, sig_idx)[0, 0])
    width = 0.25
    cells = [(0.25 + width * k, 0.5 + width * k) for k in range(3)]
    tuples2 = [(a, b2) for i, a in enumerate(cells) for b2 in cells[i:]]
    res = identify_kernels(oracle, dt, sigma, 2, {2: tuples2})
    got = np.array(res["degrees"][2]["values"])
    want = np.array([_exp_cell_avg(a, b2, width) for a, b2 in tuples2])
    rel = np.abs(got - want) / np.abs(want)
    assert np.max(rel) <= 2.0 * dt / width
    assert res["vandermonde_cond"] < 100.0
    assert res["constant_term"] == pytest.approx(0.0, abs=1e-12)


def test_identify_zero_system():
    res = identify_kernels(lambda v: 0.0, 0.05, 1.0, 2,
                           {1: [((0.25, 0.5),)], 2: [((0.25, 0.5), (0.6, 0.85))]})
    assert res["degrees"][1]["values"] == [0.0]
    assert res["degrees"][2]["values"] == [0.0]


def test_identify_overlapping_windows_rejected():
    with pytest.raises(ValueError, match="overlapping"):
        identify_kernels(lambda v: 0.0, 0.05, 1.0, 2,
                         {2: [((0.25, 0.55), (0.5, 0.8))]})


def test_reidentification_fixed_point():
    dt = 0.01
    width = 0.25
    cells = [(0.25, 0.5), (0.75, 1.0)]
    tuples2 = [(cells[0], cells[0]), (cells[0], cells[1]),
               (cells[1], cells[1])]
    vals = [1.3, -0.4, 0.9]
    ker = kernel_from_cells(2, tuples2, vals, 2.0, dt)
    fam_in = catalog.family("uniform-l2")
    fam_out = catalog.family("esssup")
    op = PolyIntegralOperator([ker], 0.0, fam_in, fam_out)
    sigma = 2.25
    g = Grid(dt, -10, int(round(sigma / dt)))
    st = NaturalState(op, TimeFunction(g, np.zeros((g.n, 1)), np.zeros(1)), 0.0)
    sig_idx = [int(round(sigma / dt))]
    res = identify_kernels(
        lambda v: float(st.evaluate_at(v, sig_idx)[0, 0]),
        dt, sigma, 2, {2: tuples2})
    assert np.allclose(res["degrees"][2]["values"], vals, atol=1e-9)


def test_uniqueness_across_descriptions():
    # An asymmetric kernel and its symmetrization define one operator, so
    # the probing procedure recovers one set of cell averages.
    dt = 0.01
    S = 1.5
    asym = PolyKernel(2, S, func=lambda a, b: np.where(
        (np.asarray(a) <= S) & (np.asarray(b) <= S),
        np.exp(-1.5 * np.asarray(a) - 0.5 * np.asarray(b)), 0.0))
    fam_in = catalog.family("uniform-l2")
    fam_out = catalog.family("esssup")
    sigma = S + 0.25
    g = Grid(dt, -10, int(round(sigma / dt)))
    zero_past = TimeFunction(g, np.zeros((g.n, 1)), np.zeros(1))
    tuples2 = [((0.25, 0.5), (0.6, 0.85))]
    results = []
    for ker in (asym, symmetrize(asym)):
        op = PolyIntegralOperator([ker], 0.0, fam_in, fam_out)
        st = NaturalState(op, zero_past, 0.0)
        sig_idx = [int(round(sigma / dt))]
        res = identify_kernels(
            lambda v: float(st.evaluate_at(v, sig_idx)[0, 0]),
            dt, sigma, 2, {2: tuples2})
        results.append(res["degrees"][2]["values"][0])
    assert results[0] == pytest.approx(results[1], abs=1e-10)
    # And the recovered value is the symmetrized average, not the raw one.
    K = symmetrize(asym).grid_values(dt)[0, 0]
    x = np.arange(1, int(S / dt) + 1) * dt
    mask1 = (x >= 0.25) & (x < 0.5)
    mask2 = (x >= 0.6) & (x < 0.85)
    want = K[np.ix_(mask1, mask2)].mean()
    assert results[0] == pytest.approx(want, rel=0.02)


def test_contamination_reported_within_bound():
    # A kernel with mass beyond the probe instant contaminates the lower
    # degrees; the reported residual bound covers the spurious response.
    dt = 0.01
    wide = PolyKernel(2, 3.0, func=lambda a, b: np.where(
        (np.asarray(a) <= 3.0) & (np.asarray(b) <= 3.0),
        np.exp(-(np.asarray(a) + np.asarray(b))), 0.0))
    fam_in = catalog.family("uniform-l2")
    fam_out = catalog.family("esssup")
    op = PolyIntegralOperator([wide], 0.0, fam_in, fam_out)
    sigma = 2.0
    g = Grid(dt, -int(round(2.0 / dt)), int(round(sigma / dt)))
    rng = np.random.default_rng(13)
    past = TimeFunction(g, np.clip(rng.standard_normal((g.n, 1)), -1, 1),
                        np.zeros(1))
    st = NaturalState(op, past, 0.0)
    sig_idx = [int(round(sigma / dt))]
    cells1 = [((0.25, 0.5),), ((0.75, 1.0),)]
    res = identify_kernels(
        lambda v: float(st.evaluate_at(v, sig_idx)[0, 0]),
        dt, sigma, 2, {1: cells1},
        tail_bounds={2: wide.tail_abs_mass(dt, sigma)}, input_bound=1.0)
    bound = res["degrees"][1]["residual_bound"]
    assert bound > 0.0
    for val in res["degrees"][1]["values"]:
        assert abs(val) * 0.25 <= bound * (1.0 + 1e-6)


def test_tail_abs_mass():
    ker = PolyKernel(2, 1.0, func=lambda a, b: np.ones_like(np.asarray(a)))
    total = ker.tail_abs_mass(0.1, 0.0)
    assert total == pytest.approx(1.0, rel=1e-9)
    assert ker.tail_abs_mass(0.1, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_default_cell_lattice():
    from natstate.kernel import default_cell_lattice
    cells = default_cell_lattice(0.01, 0.25, 0.5)
    assert cells[0] == (0.25, 0.29) and len(cells) == 6
    assert all(b == pytest.approx(a + 0.04) for a, b in cells)
    assert len(default_cell_lattice(0.01, 0.0, 2.0, width=0.25)) == 8
    with pytest.raises(ValueError):
        default_cell_lattice(0.01, 0.0, 1.0, width=0.015)
    # Misaligned ends are refused, not snapped to the nearest cell.
    with pytest.raises(AlignmentError, match="length 0.255"):
        default_cell_lattice(0.01, 0.255, 0.5)
    with pytest.raises(AlignmentError, match="length 0.505"):
        default_cell_lattice(0.01, 0.25, 0.505)


def test_kernel_csv_round_trip(tmp_path):
    from natstate.kernel import read_kernel_csv, write_kernel_csv
    dt = 0.1
    ker = PolyKernel(2, 0.4, func=lambda a, b:
                     np.exp(-(np.asarray(a) + 2.0 * np.asarray(b))))
    path = str(tmp_path / "kernel.csv")
    write_kernel_csv(ker, dt, path)
    back = read_kernel_csv(path)
    assert back.degree == 2 and back.support == 0.4
    assert np.array_equal(back.grid_values(dt), ker.grid_values(dt))
    lines = open(path).read().splitlines()
    assert lines[1] == "s1,s2,index,value"


@pytest.mark.parametrize("old, new", [
    ("support=0.4 ", "support=0.45 "), ("\n0.2,0.1,", "\n0.25,0.1,")],
    ids=["support", "lag"])
def test_kernel_csv_refuses_lengths_off_its_grid(tmp_path, old, new):
    from natstate.kernel import read_kernel_csv, write_kernel_csv
    ker = PolyKernel(2, 0.4, func=lambda a, b: np.ones_like(np.asarray(a)))
    path = tmp_path / "kernel.csv"
    write_kernel_csv(ker, 0.1, str(path))
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    with pytest.raises(AlignmentError, match="is not a multiple of dt=0.1"):
        read_kernel_csv(str(path))


def test_symmetrize_degree_guard():
    k5 = PolyKernel(5, 1.0, func=lambda *s: np.zeros_like(np.asarray(s[0])))
    with pytest.raises(ValueError, match="too large"):
        symmetrize(k5)


@pytest.mark.parametrize("name", ["quadratic-volterra", "cubic-volterra",
                                  "quadratic-volterra-tv"])
def test_each_fixed_kernel_factors_once_per_dt(name, monkeypatch):
    # Over two applies, each fixed kernel (a time-varying kernel's parts)
    # samples its grid and factors it once, and keeps both; no kernel keeps
    # its lag meshgrids, and a time-varying kernel keeps nothing itself.
    dt = 0.01
    calls, depth = [], [0]
    factor = kernel_mod._cross_factors

    def counted(A, n, tol):  # the recursion into each row is not a call
        if depth[0] == 0:
            calls.append(n)
        depth[0] += 1
        try:
            return factor(A, n, tol)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(kernel_mod, "_cross_factors", counted)
    b = catalog.system(name, dt)
    u = probe_set(b.grid(dt), 3, count=1)[0]
    b.system.apply(u)
    b.system.apply(u)
    kernels = list(b.system.kernels.values())
    fixed = [g for k in kernels for g in ([p[1] for p in k.parts] or [k])]
    assert sorted(calls) == sorted(g.degree for g in fixed)
    for g in fixed:
        assert set(g._cache) == {("grid", dt), ("factors", dt)}
    tv = [k for k in kernels if k.time_varying]
    assert len(tv) == (name == "quadratic-volterra-tv")
    assert not any(k._cache for k in tv)


def test_time_varying_kernel_parts_are_checked():
    # Each part is a time-invariant scalar kernel of the kernel's degree and
    # support, and parts exclude a callable or a grid of the kernel itself.
    g = PolyKernel(2, 1.0, func=lambda a, b: a * b)
    with pytest.raises(ValueError, match="exactly one of func/data/parts"):
        PolyKernel(2, 1.0, func=g.func, parts=[(np.cos, g)])
    tv = PolyKernel(2, 1.0, parts=[(np.cos, g)])
    vector = PolyKernel(2, 1.0, input_dim=2, func=lambda ix, a, b: a * b)
    for bad in (PolyKernel(1, 1.0, func=np.exp),
                PolyKernel(2, 2.0, func=g.func), tv, vector):
        with pytest.raises(ValueError, match="time-invariant scalar kernels"):
            PolyKernel(2, 1.0, parts=[(np.cos, bad)])


@pytest.mark.parametrize("bound", [
    lambda op: op.kernels[2].tail_abs_mass(0.01, 1.0),
    lambda op: catalog.hilbert_schmidt_bound(op, 0.01)],
    ids=["tail_abs_mass", "hilbert_schmidt_bound"])
def test_bounds_of_a_time_varying_kernel_are_refused(bound):
    # A gain callable gives no sup|a_r|, so neither bound is read off a grid
    # at some instant; each refuses instead of returning nan or a guess.
    op = catalog.system("quadratic-volterra-tv", 0.01).system
    with pytest.raises(ValueError, match=r"needs sup\|a_r\| of each gain"):
        bound(op)

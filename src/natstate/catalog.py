"""Named systems and norm families shipped with the toolkit.

Each system bundle fixes the grids, families, and parameters its experiments
use, and states the claim it demonstrates.  Closed-form evaluators for the
shipped systems live here too: they are the independent oracles the
splice-apply-shift machinery is checked against.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .kernel import PolyKernel
from .seminorm import FittedFamily, Weight
from .sysop import LimsupConvolution, LTISystem, PolyIntegralOperator, SystemOp
from .timegrid import Grid, TimeFunction, _positive

__all__ = [
    "SystemBundle",
    "family",
    "system",
    "FAMILIES",
    "SYSTEMS",
    "averager_pair",
    "hilbert_schmidt_bound",
    "quadratic_state_closed_form",
    "poly_state_derivative_closed_form",
    "integrator_state_closed_form",
]


# -- families -----------------------------------------------------------------


def _families() -> dict:
    return {
        "sup-linf": lambda: FittedFamily.unweighted_sup(name="sup-linf"),
        "uniform-l2": lambda: FittedFamily.weighted_lp(
            2.0, Weight.uniform(), name="uniform-l2"),
        "exp-l2": lambda: FittedFamily.weighted_lp(
            2.0, Weight.exponential(1.0), name="exp-l2"),
        "box-l2": lambda: FittedFamily.weighted_lp(
            2.0, Weight.box(1.5), name="box-l2"),
        "esssup": lambda: FittedFamily.output_window(float("inf"), name="esssup"),
        "esssup-window-2": lambda: FittedFamily.output_window(
            2.0, name="esssup-window-2"),
    }


FAMILIES = _families()


def family(name: str) -> FittedFamily:
    try:
        return FAMILIES[name]()
    except KeyError:
        raise KeyError(f"unknown family {name!r}; known: {sorted(FAMILIES)}") from None


# -- systems ------------------------------------------------------------------


@dataclass
class SystemBundle:
    """A shipped system with its working grids and printable parameters."""

    name: str
    system: SystemOp
    claim: str
    past_window: float  # seconds of represented past
    horizon: float      # seconds of represented future
    params: dict = field(default_factory=dict)

    def grid(self, dt: float) -> Grid:
        return Grid.spanning(dt, -self.past_window, self.horizon)


def _box_response(dt: float, T: float = 1.0) -> TimeFunction:
    g = Grid.spanning(dt, 0.0, T)
    return TimeFunction(g, np.ones((g.n, 1)), np.zeros(1))


def _decay_response(dt: float, T: float, rate: float) -> TimeFunction:
    g = Grid.spanning(dt, 0.0, T)
    return TimeFunction(g, np.exp(-rate * g.times()), np.zeros(1))


def averager_pair(dt: float) -> tuple[SystemBundle, SystemBundle]:
    """Two systems with the same state set but different eventual-level gains.

    Both average the last second of input; one adds the input's eventual
    level once, the other twice.  Their natural-state sets coincide (match
    the recent past and halve the level), yet the systems differ, so the
    state set cannot identify the system here: the input norm keeps the
    whole past in view and is not tapered.
    """
    h = _box_response(dt)
    fin = family("sup-linf")
    fout = family("esssup-window-2")

    def averager(name: str, gain: float, claim: str) -> SystemBundle:
        return SystemBundle(
            name, LimsupConvolution(h, gain, fin, fout),
            claim=claim, past_window=4.0, horizon=4.0,
            params={"response_support": 1.0, "tail_gain": gain,
                    "response_l1": 1.0, "input_family": "sup-linf",
                    "output_family": "esssup-window-2"})

    return (averager("averager-1x", 1.0, "moving average of the last "
                     "second plus the eventual level"),
            averager("averager-2x", 2.0, "same moving average with twice "
                     "the eventual level"))


def _quadratic_kernel_func(support: float):
    def f(s1, s2):
        s1 = np.asarray(s1, dtype=float)
        s2 = np.asarray(s2, dtype=float)
        mask = (s1 > 0) & (s1 <= support) & (s2 > 0) & (s2 <= support)
        return np.where(mask, np.exp(-(s1 + s2)), 0.0)
    return f


def _quadratic_kernel_func_tv(support: float):
    base = _quadratic_kernel_func(support)

    def f(t, s1, s2):
        return (1.0 + 0.5 * math.sin(t)) * base(s1, s2)
    return f


def _lti_bundle(name: str, A, B, claim: str,
                past_window: float) -> SystemBundle:
    """A state equation with a uniform-L2 input norm and ess-sup output."""
    return SystemBundle(
        name, LTISystem(A, B, family("uniform-l2"), family("esssup")),
        claim=claim, past_window=past_window, horizon=4.0,
        params={"A": A, "B": B})


def _systems() -> dict:
    reg: dict = {}

    def define(fn):
        reg[fn.__name__.replace("_", "-")] = fn
        return fn

    @define
    def averager_1x(dt):
        return averager_pair(dt)[0]

    @define
    def averager_2x(dt):
        return averager_pair(dt)[1]

    @define
    def integrator(dt):
        return _lti_bundle(
            "integrator", [[0.0]], [[1.0]],
            "pure integrator: the state is the accumulated past input", 4.0)

    @define
    def leaky_integrator(dt):
        return _lti_bundle(
            "leaky-integrator", [[-0.5]], [[1.0]],
            "first-order lag: distinct dynamics, distinct state set", 4.0)

    @define
    def oscillator(dt):
        return _lti_bundle(
            "oscillator", [[0.0, 1.0], [-1.0, -0.6]], [[0.0], [1.0]],
            "controllable two-state system; vector states match natural "
            "states one for one", 6.0)

    @define
    def oscillator_alt(dt):
        return _lti_bundle(
            "oscillator-alt", [[0.0, 1.0], [-2.0, -1.0]], [[0.0], [1.0]],
            "second controllable pair; same reachable vectors, different "
            "natural states", 6.0)

    @define
    def quadratic_volterra(dt):
        S = 2.0
        ker = PolyKernel(2, S, func=_quadratic_kernel_func(S))
        sys_ = PolyIntegralOperator([ker], 0.0, family("uniform-l2"),
                                    family("esssup"))
        return SystemBundle(
            "quadratic-volterra", sys_,
            claim="second-degree integral operator with a square-integrable "
                  "kernel; bounded and differentiable",
            past_window=4.0, horizon=2.0,
            params={"kernel": "exp(-(s1+s2)) on (0,2]^2", "degree": 2,
                    "support": S, "constant_term": 0.0})

    @define
    def quadratic_volterra_tv(dt):
        S = 2.0
        ker = PolyKernel(2, S, func=_quadratic_kernel_func_tv(S),
                         time_varying=True)
        sys_ = PolyIntegralOperator([ker], 0.0, family("uniform-l2"),
                                    family("esssup"))
        return SystemBundle(
            "quadratic-volterra-tv", sys_,
            claim="time-varying second-degree operator; windowed views "
                  "depend on the window instant",
            past_window=3.0, horizon=2.0,
            params={"kernel": "(1+0.5 sin t) exp(-(s1+s2)) on (0,2]^2",
                    "degree": 2, "support": S})

    @define
    def cubic_volterra(dt):
        S = 0.4
        k1 = PolyKernel(1, S, func=lambda s: np.exp(-np.asarray(s)))
        k2 = PolyKernel(2, S, func=_quadratic_kernel_func(S))
        k3 = PolyKernel(3, S, func=lambda a, b, c: np.exp(-(np.asarray(a)
                                                            + np.asarray(b)
                                                            + np.asarray(c))))
        sys_ = PolyIntegralOperator([k1, k2, k3], 0.1, family("uniform-l2"),
                                    family("esssup"))
        return SystemBundle(
            "cubic-volterra", sys_,
            claim="degrees 0..3 in one operator; exercises the full "
                  "term-by-term derivative expansion",
            past_window=2.0, horizon=1.0,
            params={"degrees": [0, 1, 2, 3], "support": S,
                    "constant_term": 0.1})

    @define
    def reachable_conv(dt):
        sys_ = LimsupConvolution(_box_response(dt, 1.0), 0.0,
                                 FittedFamily.weighted_lp(
                                     2.0, Weight.box(1.5), name="box-l2"),
                                 family("esssup"))
        return SystemBundle(
            "reachable-conv", sys_,
            claim="one-second convolution under a finite-memory input norm: "
                  "any state is reached exactly by replaying its window",
            past_window=4.0, horizon=3.0,
            params={"response_support": 1.0, "input_family": "box-l2 (M=1.5)"})

    @define
    def fading_conv(dt):
        sys_ = LimsupConvolution(_decay_response(dt, 10.0, 1.0), 0.0,
                                 family("exp-l2"), family("esssup"))
        return SystemBundle(
            "fading-conv", sys_,
            claim="decaying convolution under a tapered input norm: states "
                  "are reached to any tolerance with a closed-form drive time",
            past_window=12.0, horizon=3.0,
            params={"response": "exp(-s) on (0,10]", "input_family": "exp-l2"})

    return reg


SYSTEMS = _systems()


def system(name: str, dt: float) -> SystemBundle:
    try:
        return SYSTEMS[name](dt)
    except KeyError:
        raise KeyError(f"unknown system {name!r}; known: {sorted(SYSTEMS)}") from None


# -- config-defined families and systems -----------------------------------------


@contextlib.contextmanager
def _section(section: str):
    """Re-raise a bad value met while building ``[section]`` as a
    ``ValueError`` that names the section."""
    try:
        yield
    except (TypeError, ValueError) as e:
        raise ValueError(f"[{section}] {e}") from None


# The most cells that one config length (a convolution or kernel support,
# a past window, a horizon) or one polynomial kernel (``Q**degree`` lag
# cells) may take at the run's dt.  A section above it is refused before
# anything is built or sampled.
CELL_CAP = 10 ** 6


def _capped(cells: float, what: str, dt: float) -> None:
    if cells > CELL_CAP:
        raise ValueError(f"{what} takes {cells:.4g} cells at dt={dt}, more "
                         f"than the cap of {CELL_CAP:,}")


def _length(spec: dict, key: str, default: float, dt: float) -> float:
    """``spec[key]`` seconds, positive, finite and within ``CELL_CAP``."""
    x = _positive(float(spec.get(key, default)), key)
    _capped(x / dt, f"{key} {x}", dt)
    return x


def _required(spec: dict, key: str):
    try:
        return spec[key]
    except KeyError:
        raise ValueError(f"is missing key {key!r}") from None


def family_from_spec(name: str, spec: dict) -> FittedFamily:
    """Build a norm family from flat config keys.

    Recognized keys: ``kind`` (weighted_lp, sup, unweighted_sup,
    output_window), ``p``, ``form`` (uniform, exp, box), ``rate``,
    ``memory``, ``alpha``, ``window_b``, ``vector_norm``.  A missing
    required key, an unknown name or a wrong-typed value raises
    ``ValueError`` naming the section.
    """
    with _section(f"family.{name}"):
        kind = spec.get("kind", "weighted_lp")
        if kind == "unweighted_sup":
            return FittedFamily.unweighted_sup(name=name)
        if kind == "output_window":
            return FittedFamily.output_window(
                float(_required(spec, "window_b")), name=name)
        form = spec.get("form", "uniform")
        if form == "uniform":
            w = Weight.uniform()
        elif form == "exp":
            w = Weight.exponential(float(_required(spec, "rate")),
                                   alpha=float(spec.get("alpha", 1.0)))
        elif form == "box":
            w = Weight.box(float(_required(spec, "memory")))
        else:
            raise ValueError(f"has unknown weight form {form!r}")
        base = FittedFamily.weighted_lp(float(spec.get("p", 2.0)), w,
                                        vector_norm=spec.get("vector_norm",
                                                             "euclidean"),
                                        name=name)
        if kind == "sup":
            return FittedFamily.sup_family(base, name=name)
        if kind == "weighted_lp":
            return base
        raise ValueError(f"has unknown kind {kind!r}")


def _resolve_family(name: str, customs: dict) -> FittedFamily:
    if name in customs:
        return customs[name]
    if name not in FAMILIES:
        raise ValueError(f"names unknown family {name!r}")
    return family(name)


def system_from_spec(name: str, spec: dict, dt: float,
                     custom_families: Optional[dict] = None) -> SystemBundle:
    """Build a system from flat config keys.

    ``variant`` picks the operator: ``conv`` (response_form box or exp with
    ``support``/``rate``/``tail_gain``), ``lti`` (row-major ``A``, ``B``,
    integer ``n_states`` >= 1; ``A`` holds ``n_states**2`` entries and ``B``
    a multiple of ``n_states``), or ``poly`` (integer ``degree`` from 1 to
    ``MAX_DEGREE``, ``kernel_form`` exp with one of ``rates`` per degree or
    box with ``level``, ``support``, ``constant``; or ``kernel_csv``).
    ``input_family``/``output_family`` name built-ins or config families.
    A missing required key, an unknown name or a wrong-typed value raises
    ``ValueError`` naming the section, and so do a convolution support
    that is not a whole number of ``dt`` steps, a ``support``,
    ``past_window`` or ``horizon`` that is not positive and finite or takes
    more than ``CELL_CAP`` cells, and a polynomial kernel of more than
    ``CELL_CAP`` cells.
    """
    customs = custom_families or {}
    with _section(f"system.{name}"):
        fin = _resolve_family(spec.get("input_family", "uniform-l2"), customs)
        fout = _resolve_family(spec.get("output_family", "esssup"), customs)
        pw = _length(spec, "past_window", 4.0, dt)
        hz = _length(spec, "horizon", 2.0, dt)
        variant = _required(spec, "variant")
        if variant == "conv":
            S = _length(spec, "support", 1.0, dt)
            if spec.get("response_form", "box") == "box":
                h = _box_response(dt, S)
            else:
                h = _decay_response(dt, S, float(spec.get("rate", 1.0)))
            op = LimsupConvolution(h, float(spec.get("tail_gain", 0.0)),
                                   fin, fout)
            return SystemBundle(name, op, "config-defined convolution",
                                pw, hz, params=dict(spec))
        if variant == "lti":
            n = _required(spec, "n_states")
            if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
                raise ValueError(
                    f"n_states must be an integer >= 1, got {n!r}")
            A = np.asarray(_required(spec, "A"), dtype=float)
            B = np.asarray(_required(spec, "B"), dtype=float)
            if A.size != n * n:
                raise ValueError(f"A must hold {n * n} entries, got {A.size}")
            if B.size == 0 or B.size % n:
                raise ValueError(f"B must hold {n} x m entries, got {B.size}")
            op = LTISystem(A.reshape(n, n), B.reshape(n, -1), fin, fout)
            return SystemBundle(name, op, "config-defined state equation",
                                pw, hz, params=dict(spec))
        if variant == "poly":
            if "kernel_csv" in spec:
                from .kernel import read_kernel_csv
                ker = read_kernel_csv(spec["kernel_csv"])
            else:
                n = spec.get("degree", 2)
                top = PolyIntegralOperator.MAX_DEGREE
                if not (isinstance(n, int) and not isinstance(n, bool)
                        and 1 <= n <= top):
                    raise ValueError(
                        f"degree must be an integer from 1 to {top}, got {n!r}")
                S = _length(spec, "support", 1.0, dt)
                form = spec.get("kernel_form", "exp")
                if form == "exp":
                    rates = [float(r) for r in
                             spec.get("rates", [1.0] * n)]
                    if len(rates) != n:
                        raise ValueError(f"rates must hold {n} numbers "
                                         f"(one per lag), got {len(rates)}")

                    def f(*sig):
                        acc = np.zeros_like(np.asarray(sig[0], dtype=float))
                        for r, s in zip(rates, sig):
                            acc = acc + r * np.asarray(s, dtype=float)
                        return np.exp(-acc)
                elif form == "box":
                    level = float(spec.get("level", 1.0))

                    def f(*sig):
                        return np.full_like(np.asarray(sig[0], dtype=float),
                                            level)
                else:
                    raise ValueError(f"has unknown kernel form {form!r}")
                ker = PolyKernel(n, S, func=f)
            _capped((ker.support / dt) ** ker.degree,
                    f"a degree-{ker.degree} kernel of support {ker.support}",
                    dt)
            op = PolyIntegralOperator([ker], float(spec.get("constant", 0.0)),
                                      fin, fout)
            return SystemBundle(name, op, "config-defined integral operator",
                                pw, hz, params=dict(spec))
        raise ValueError(f"has unknown variant {variant!r}")


# -- independent closed-form evaluators -----------------------------------------


def hilbert_schmidt_bound(op: PolyIntegralOperator, dt: float) -> float:
    """Grid Hilbert-Schmidt size of the degree-2 kernel (at the instant 0
    for a time-varying kernel).

    This is the constant in the Cauchy-Schwarz chain bounding every windowed
    operator estimate at power two.
    """
    K = op.kernels[2].grid_values(dt, at_time=0.0)
    return float(np.sqrt(np.sum(K ** 2) * dt ** 2))


def quadratic_state_closed_form(ker: PolyKernel,
                                pasts: Sequence[TimeFunction],
                                vs: Sequence[TimeFunction],
                                t: float, sigma_indices) -> np.ndarray:
    """Three-term evaluation of the degree-2 state, directly from the
    kernel: one row per (past, future) pair, one column per instant.

    Splitting the lag sum at the splice instant gives a past-past block, a
    doubled cross block (symmetric kernel), and a future-future block.  Lag
    cells at exactly the splice instant belong to the past, matching the
    half-open window convention of the sampling grid.  Each instant's three
    kernel blocks are sampled once for all pairs, and each pair sums them
    on its own, so a row does not depend on the other pairs.
    """
    dt = pasts[0].grid.dt
    Q = ker.grid_size(dt)
    out = np.empty((len(pasts), len(sigma_indices)))
    u_at = np.stack([p.values_at_indices(
        np.arange(p.grid.index_of(t) - Q, p.grid.index_of(t) + 1))[:, 0]
        for p in pasts])  # u(t - q dt), q = Q..0, one row per past

    def kval(ti, a1, a2):
        if ker.time_varying:
            return np.asarray(ker.func(ti, a1, a2), dtype=float)
        return np.asarray(ker.func(a1, a2), dtype=float)

    for col, m in enumerate(sigma_indices):
        sigma = m * dt
        ti = t + sigma
        # Past-past: lags sigma + mu, mu = 0..(Q - m) dt.
        mu = np.arange(0, max(Q - m, 0) + 1) * dt
        uvals = u_at[:, Q - np.arange(0, max(Q - m, 0) + 1)]
        Kpp = kval(ti, sigma + mu[:, None], sigma + mu[None, :])
        if m >= 2:
            # Future-future: lags dt..(m-1) dt on both axes.
            tau = np.arange(1, m) * dt
            Kff = kval(ti, tau[:, None], tau[None, :])
            Kx = kval(ti, (sigma + mu)[:, None], tau[None, :])
        for row, (uv, v) in enumerate(zip(uvals, vs, strict=True)):
            acc = 0.0
            acc += float(np.einsum("jk,j,k->", Kpp, uv, uv)) * dt * dt
            if m >= 2:
                vvals = v.values_at_indices(m - np.arange(1, m))[:, 0]
                acc += float(np.einsum("jk,j,k->", Kff, vvals, vvals)) \
                    * dt * dt
                acc += 2.0 * float(np.einsum("jk,j,k->", Kx, uv, vvals)) \
                    * dt * dt
            out[row, col] = acc
    return out


def poly_state_derivative_closed_form(op: PolyIntegralOperator,
                                      past: TimeFunction, dpast: TimeFunction,
                                      v: TimeFunction, t: float,
                                      sigma_indices) -> np.ndarray:
    """Direct lag sums for the state-trajectory derivative of a
    time-invariant scalar polynomial integral operator.

    A degree-``d`` kernel contributes the sum over its ``d`` slots of the
    kernel with the spliced shift derivative ``b`` of the past in that slot
    and the spliced input ``z`` in the others: ``K b`` for degree 1, three
    slot terms for degree 3.  The slot sum is taken on the kernel (each slot
    moved last, then added), so a symmetric degree-2 kernel gives exactly
    twice the kernel against ``z`` and ``b``; the constant term drops out.
    """
    if not op.time_invariant or any(k.input_dim != 1
                                    for k in op.kernels.values()):
        raise ValueError("needs a time-invariant scalar-input operator")
    dt = past.grid.dt
    t_idx = past.grid.index_of(t)
    out = np.zeros(len(sigma_indices))
    for d, ker in sorted(op.kernels.items()):
        lags = np.arange(1, ker.grid_size(dt) + 1)
        K = np.asarray(ker.func(*np.meshgrid(*([lags * dt] * d),
                                             indexing="ij")), dtype=float)
        # C order: einsum's summation order follows the memory layout.
        K_slots = np.ascontiguousarray(
            sum(np.moveaxis(K, p, -1) for p in range(d)))
        axes = "jklmnopqrstuvwxyz"[:d]
        spec = f"{axes},{','.join(axes)}->"
        for row, m in enumerate(sigma_indices):
            args = t_idx + m - lags  # absolute instants t + sigma - lag
            z = np.where(args <= t_idx,
                         past.values_at_indices(np.minimum(args, t_idx))[:, 0],
                         v.values_at_indices(np.maximum(args - t_idx, 0))[:, 0])
            b = np.where(args <= t_idx,
                         dpast.values_at_indices(np.minimum(args, t_idx))[:, 0],
                         0.0)
            term = float(np.einsum(spec, K_slots, *[z] * (d - 1), b))
            # One dt per slot, multiplied in turn: dt ** d rounds otherwise.
            for _ in range(d):
                term *= dt
            out[row] += term
    return out


def integrator_state_closed_form(past: TimeFunction, v: TimeFunction,
                                 t: float) -> np.ndarray:
    """``x(t) + running integral of v``: the textbook integrator state."""
    g = past.grid
    t_idx = g.index_of(t)
    if np.any(past.tail_value):
        raise ValueError("integrator pasts must have zero tails")
    upto = past.samples[: t_idx - g.i0, 0]
    x_t = float(np.sum(upto)) * g.dt
    return x_t + np.cumsum(v.samples[:, 0]) * v.grid.dt

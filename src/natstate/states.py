"""Natural states: the future input to future output operators of a system.

The state of a causal system at time ``t`` induced by a past input ``u`` is
the operator that takes a centered future input ``v`` (supported on
``(0, H]``), splices it onto the past ``u`` at ``t``, applies the system,
and recenters the output future; :meth:`NaturalState.evaluate_all` is that
definition, one ``apply_all`` call for a batch of futures.  A system may
instead offer what the past contributes to every future, its
``past_summary`` (the last support window and the eventual level for a
convolution, the vector ``x(t)`` for a state equation), computed on the
first evaluation and read by its ``future_responses``; its outputs equal
the definition's bit for bit.  All comparisons are probe maximizations of
a weighted operator distance on shared, seeded probe sets; futures and
outputs travel as batched :class:`TimeFunction` stacks, and two states'
outputs subtract.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .seminorm import FittedFamily, classify, taper_delta
from .probes import edited_after
from .sysop import SystemOp, estimate_npower
from .timegrid import (TimeFunction, ceil_cells, recenter, shift_left,
                       shift_right, splice)

__all__ = [
    "NaturalState",
    "state_distance",
    "state_distances",
    "trajectory",
    "drive",
    "representative_independence",
    "reachability_experiment",
    "state_matching_ladder",
    "state_bound_check",
]


class NaturalState:
    """Operator view of the system's memory at instant ``t``.

    ``past`` must be defined up to ``t``; only its values at or before ``t``
    (and its tail) ever matter, which is exactly the representative
    independence property checked in the tests.
    """

    def __init__(self, system: SystemOp, past: TimeFunction, t: float):
        t_idx = past.grid.index_of(t)
        if t_idx > past.grid.i1:
            raise ValueError("past representative not defined up to t")
        self.system = system
        self.past = past
        self.t = float(t)
        self._t_idx = t_idx

    @cached_property
    def summary(self):
        """What the past contributes to every future (``past_summary`` of
        the system, ``None`` if it offers none), computed on first use."""
        return self.system.past_summary(self.past, self._t_idx)

    def spliced_input(self, v: TimeFunction) -> TimeFunction:
        """The full input ``past up to t, then v shifted out to start at t``
        (for each future of a batch ``v``)."""
        return splice(self.past, shift_right(v, self.t), self.t)

    def evaluate(self, v: TimeFunction) -> TimeFunction:
        """Centered future output on ``(0, H]`` for future input ``v`` on ``(0, H]``."""
        return self.evaluate_all([v])[0]

    def evaluate_all(self, vs) -> TimeFunction:
        """:meth:`evaluate` of every future input of ``vs`` (a batch, or
        functions on one grid), in order: the futures spliced onto the past,
        one ``apply_all`` call and the outputs recentred, or one
        ``future_responses`` call on the system's summary."""
        vs = TimeFunction.stack(vs)
        if self.summary is not None:
            return self.system.future_responses(self.summary, vs)
        return recenter(self.system.apply_all(self.spliced_input(vs)), self.t)

    def evaluate_at(self, v: TimeFunction, sigma_indices) -> np.ndarray:
        """Values of the centered future output at selected instants."""
        idx = self._t_idx + np.asarray(sigma_indices, dtype=int)
        return self.system.apply_at(self.spliced_input(v), idx)

    def __repr__(self) -> str:
        return f"NaturalState(t={self.t}, past={self.past!r})"


def state_distance(xi: NaturalState, eta: NaturalState, N: int,
                   futures) -> float:
    """``max_v |xi(v) - eta(v)|_{0,inf} / (1 + |v|_{0,inf}^N)`` over probes.

    Both states must share the input/output families of their systems; the
    zero future should be in the probe set whenever a tail-separation bound
    is being certified.
    """
    return state_distances([xi], [eta], N, futures)[0][0]


def state_distances(xis: Sequence[NaturalState], etas: Sequence[NaturalState],
                    N: int, futures) -> list[list[float]]:
    """``state_distance(xi, eta, N, futures)`` for every ``xi`` (rows) and
    ``eta`` (columns).

    Each state answers the batch of futures in one ``evaluate_all`` call,
    the futures' input norms are one ``future_norms`` call and each pair's
    output gaps one more, on the difference of the two output stacks; every
    entry is the ``estimate_npower`` maximum over the futures in order, bit
    for bit, and ``0.0`` for an empty batch.
    """
    if not xis:
        return []
    futures = TimeFunction.stack(futures)
    out_fam = xis[0].system.output_fam
    ins = xis[0].system.input_fam.future_norms(futures, 0.0)
    eta_outs = [eta.evaluate_all(futures) for eta in etas]
    rows = []
    for xi in xis:
        xi_out = xi.evaluate_all(futures)
        rows.append([estimate_npower(
            ins, out_fam.future_norms(xi_out - outs, 0.0), N)
                     for outs in eta_outs])
    return rows


def trajectory(system: SystemOp, u: TimeFunction, times) -> list[NaturalState]:
    """The state trajectory ``t -> state at t`` along grid-aligned times."""
    ts = list(times)
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("times must be strictly ascending")
    return [NaturalState(system, u, t) for t in ts]


def drive(state: NaturalState, v: TimeFunction, s: float) -> NaturalState:
    """Feed ``v`` (centered future input) from ``t`` to ``s``; state at ``s``.

    Realizes the transition property: the new state's past is the old past
    spliced with the drive segment.
    """
    if s <= state.t:
        raise ValueError("drive must move forward in time")
    new_past = state.spliced_input(v)
    if new_past.grid.index_of(s) > new_past.grid.i1:
        raise ValueError("drive segment too short to reach s")
    return NaturalState(state.system, new_past, s)


def representative_independence(state: NaturalState, futures, rng=None) -> float:
    """Max evaluation change after editing the past strictly after ``t``.

    Must be zero: the spliced input never reads those samples.
    """
    rng = np.random.default_rng(rng)
    other = NaturalState(state.system, edited_after(
        state.past, state._t_idx, rng), state.t)
    futures = TimeFunction.stack(futures)
    d = state.evaluate_all(futures) - other.evaluate_all(futures)
    return float(np.max(np.abs(d.samples), initial=0.0))


# -- reachability ---------------------------------------------------------------


def reachability_experiment(system: SystemOp, source: TimeFunction,
                            target: TimeFunction, fam: FittedFamily,
                            futures, eps: float = 0.05,
                            c: float = 1.0) -> dict:
    """Drive the state from the source past toward the target state.

    Both pasts are taken at time 0.  With a finite-memory input family the
    drive replays the target's last ``M`` seconds and the reached state must
    match exactly; with a tapered family the drive length comes from the
    closed-form taper window for ``(eps, c)`` and the remaining distance
    must be at most ``eps``.  A family that is neither is refused: no drive
    can shake off the distant past.  Distances are at weight power two.
    """
    cls = classify(fam)
    if cls["class"] == "neither":
        return {"refused": True, "reason_code": "family_not_tapered",
                "detail": "no finite window bounds the distant-past "
                          "contribution of this family"}
    if cls["class"] == "finite_memory":
        back = cls["memory"]
    else:
        delta = taper_delta(fam, eps, c)
        dtt = source.grid.dt
        back = ceil_cells(delta, dtt) * dtt
    t_drive = -back
    driven_past = splice(shift_left(source, back), target, t_drive)
    reached = NaturalState(system, driven_past, 0.0)
    goal = NaturalState(system, target, 0.0)
    dist = state_distance(reached, goal, 2, futures)
    out = {
        "refused": False,
        "memory_class": cls["class"],
        "drive_seconds": back,
        "distance": dist,
        "N": 2,
    }
    if cls["class"] == "finite_memory":
        out["exact"] = dist == 0.0
    else:
        out["eps"] = eps
        out["achieved"] = dist <= eps
    return out


# -- identity from the state set --------------------------------------------------


def state_matching_ladder(sys1: SystemOp, sys2: SystemOp, u: TimeFunction,
                          T: float, steps: int,
                          match_state: Callable[[TimeFunction, float], TimeFunction],
                          futures, match_tol: float = 1e-9) -> dict:
    """Constructive agreement ladder for two systems sharing a state set.

    For descending instants ``tau_i = T + 1 - i``, ``match_state(u, tau)``
    supplies an input whose ``sys1``-state at ``tau`` equals the
    ``sys2``-state of ``u`` there.  Splicing the match's past with ``u``'s
    future yields inputs whose ``sys1``-outputs agree with ``sys2(u)`` from
    ``tau_i`` on; whether ``|v_i - u|_T`` dies out is exactly the taper
    question, and the final output gap at ``T`` is the verdict.  As
    ``v_i - u`` vanishes after ``tau_i``, it is at most ``c_i`` on
    ``(-inf, tau_i]`` and 0 after, ``c_i`` its sup (tail included), whose
    norm at ``T`` is ``input_gap_bounds[i - 1]``.  That premise is
    ``premise_gaps[i - 1]``, the largest ``|v_i - u|`` after ``tau_i`` on
    ``u``'s grid, exactly 0.0 when it holds.  State matches are measured at
    weight power two.
    """
    fam_in, fam_out = sys1.input_fam, sys1.output_fam
    futures = TimeFunction.stack(futures)
    y2 = sys2.apply(u)
    g = u.grid
    rows, bounds, premise = [], [], []
    for i in range(1, steps + 1):
        tau = T + 1.0 - i
        w = match_state(u, tau)
        state1 = NaturalState(sys1, w, tau)
        state2 = NaturalState(sys2, u, tau)
        match_gap = state_distance(state1, state2, 2, futures)
        v_i = splice(w, u, tau)
        y1 = sys1.apply(v_i)
        d = y1 - y2
        out_gap = fam_out.future_norm(d, tau)
        vu = (v_i.with_window(g.i0, g.i1) - u)
        upto = np.arange(g.i0 + 1, g.i1 + 1) <= g.index_of(tau)
        c = float(np.max(fam_in._rownorm(np.vstack([vu.tail_value[None],
                                                     vu.samples[upto]]))))
        bounds.append(fam_in.past_norm(TimeFunction(g, c * upto, [c]), T))
        premise.append(float(np.max(fam_in._rownorm(vu.samples[~upto]),
                                    initial=0.0)))
        rows.append({
            "i": i,
            "tau": tau,
            "state_match_gap": match_gap,
            "output_gap_from_tau": out_gap,
            "input_gap_at_T": fam_in.past_norm(vu, T),
            "match_ok": match_gap <= match_tol,
        })
    final = fam_out.past_norm(sys1.apply(u) - y2, T)
    cls = classify(fam_in)
    return {
        "rows": rows,
        "input_gap_bounds": bounds,
        "premise_gaps": premise,
        "final_output_gap_at_T": final,
        "taper_hypothesis_met": cls["class"] in ("finite_memory", "tapered"),
    }


# -- inherited bounds ---------------------------------------------------------------


def state_bound_check(state: NaturalState, N: int, futures) -> dict:
    """Per-probe boundedness chain inherited from the system estimate.

    The system's weighted norm is estimated on exactly the spliced inputs
    the state evaluations build (one application each, reused for both
    sides), so each state ratio is bounded by
    ``est * (1 + sum_k C(N,k) P^k)`` with ``P`` the running sup of the
    past's left norms, and any violation is an arithmetic defect.  Pairs of
    futures also certify the continuity transfer: the centered evaluation
    gap never exceeds the global output gap of the spliced inputs.
    """
    in_fam = state.system.input_fam
    out_fam = state.system.output_fam
    g = state.past.grid
    t_idx = g.index_of(state.t)
    all_past = in_fam.past_norms_all_t(state.past)
    P = float(np.max(all_past[: t_idx - g.i0 + 1]))
    bound_factor = 1.0 + sum(math.comb(N, k) * P ** k for k in range(N + 1))

    futures = TimeFunction.stack(futures)
    zs = state.spliced_input(futures)
    fulls = state.system.apply_all(zs)
    est = estimate_npower(in_fam.bounding_norms(zs),
                          out_fam.bounding_norms(fulls), N)
    evals = recenter(fulls, state.t)
    ratios = [y / (1.0 + v ** N)
              for v, y in zip(in_fam.future_norms(futures, 0.0),
                              out_fam.future_norms(evals, 0.0), strict=True)]
    bound = est * bound_factor
    violations = [{"probe": i, "ratio": r, "bound": bound}
                  for i, r in enumerate(ratios) if r > bound * (1.0 + 1e-12)]
    pairs = [(i, j) for i in range(min(len(futures), 6))
             for j in range(i + 1, min(len(futures), 6))]
    first, second = np.array(pairs, dtype=int).reshape(-1, 2).T
    dys = out_fam.future_norms(evals[first] - evals[second], 0.0)
    dfulls = out_fam.bounding_norms(fulls[first] - fulls[second])
    continuity_rows = []
    for (i, j), dy, dfull in zip(pairs, dys, dfulls):
        continuity_rows.append({
            "pair": [i, j], "centered_gap": dy, "global_gap": dfull,
            "ok": dy <= dfull * (1.0 + 1e-12) + 1e-300,
        })
    return {
        "estimate": est,
        "bound": bound,
        "max_ratio": max(ratios) if ratios else 0.0,
        "violations": violations,
        "passed": not violations and all(r["ok"] for r in continuity_rows),
        "continuity": continuity_rows,
    }

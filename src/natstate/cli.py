"""Command-line front end: configure, run experiments, emit reports.

``run`` prints each experiment's verdict and claim, and under a ``FAIL``
one line per failed check: its name, observed value and bound.
``describe <experiment>`` prints the claim.  Reports are JSON summaries
plus CSV tables (check rows stay out), written with stable key order
and shortest-round-trip float formatting, so identical configurations and
seeds produce byte-identical files.  Experiments run one after another
in the order selected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tomllib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import catalog
from .experiments import (EXPERIMENTS, ExperimentResult, RunConfig, claim,
                          run_experiment)
from .sysop import PolyIntegralOperator
from .timegrid import AlignmentError, Grid, TimeFunction, _is_int

__all__ = ["main", "parse_config_text"]


HYPOTHESES = {
    "state-set-identity": [
        "both systems are time invariant",
        "both systems are continuous (finite probe modulus)",
        "the input family is bounded on the probe set",
        "the input family is tapered (or finite memory)",
    ],
    "reachability": [
        "the system is time invariant",
        "the input family is finite memory or tapered",
        "probes are bounded by the taper level c",
    ],
    "trajectory-derivative": [
        "the system is time invariant (no trajectory-shift term)",
        "the past input is shift differentiable, uniformly below any horizon",
        "the operator has an analytic first-order expansion",
    ],
    "frechet-derivatives": [
        "the operator has an analytic first-order expansion",
        "for the past-to-state map: the input family has unbounded "
        "comparison span",
    ],
}


# -- TOML config ------------------------------------------------------------------


_UNKNOWN_TABLE = ("unknown table [{}]; tables are [run], [family.<name>] "
                  "and [system.<name>]")


def _keys(table, name: str) -> dict:
    """``table`` as plain keys; a table nested in it is unknown."""
    if not isinstance(table, dict):
        raise ValueError(_UNKNOWN_TABLE.format(name.rpartition(".")[0]))
    for key, val in table.items():
        if isinstance(val, dict):
            raise ValueError(_UNKNOWN_TABLE.format(f"{name}.{key}"))
    return table


def parse_config_text(text: str) -> dict:
    """TOML config as its tables: ``{"run": {...}, "family": {name: keys},
    "system": {name: keys}}``.

    Top-level keys are run keys, as are those of ``[run]``.  Syntax errors
    raise ``ValueError`` (``tomllib.TOMLDecodeError``), and so does any
    table but ``[run]``, ``[family.<name>]`` and ``[system.<name>]``.
    """
    tables: dict = {"run": {}, "family": {}, "system": {}}
    for key, val in tomllib.loads(text).items():
        if not isinstance(val, dict):
            tables["run"][key] = val
        elif key == "run":
            tables["run"].update(_keys(val, key))
        elif key in ("family", "system"):
            tables[key] = {name: _keys(sec, f"{key}.{name}")
                           for name, sec in val.items()}
        else:
            raise ValueError(_UNKNOWN_TABLE.format(key))
    return tables


_COUNTS = ("probes", "triples", "pasts", "futures", "bound_probes")
# The RunConfig knobs a [run] key may set; family and system definitions
# have sections of their own.
_KNOBS = {f.name for f in fields(RunConfig)} - {"custom_families",
                                                 "system_specs"}


def _check_config(cfg: RunConfig) -> RunConfig:
    """Refuse a config no experiment can run with (``ValueError``); return
    it with an integer ``dt`` as a float."""
    try:
        dt = float(cfg.dt) if _is_int(cfg.dt) else cfg.dt
    except OverflowError:  # an integer beyond every float
        dt = math.inf
    if not (isinstance(dt, float) and math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be a finite number > 0, got {cfg.dt!r}")
    cfg = replace(cfg, dt=dt)
    if not _is_int(cfg.seed):
        raise ValueError(f"seed must be an integer, got {cfg.seed!r}")
    for name in _COUNTS:
        v = getattr(cfg, name)
        if not (_is_int(v) and v >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
    for kind, name, known in (
            ("family", cfg.family, [*catalog.FAMILIES, *cfg.custom_families]),
            ("system", cfg.system, [*catalog.SYSTEMS, *cfg.system_specs])):
        if name != "" and name not in known:
            raise ValueError(f"unknown {kind} {name!r}; known: {sorted(known)}")
    # Config systems are otherwise built only when an experiment asks for
    # one; a malformed section must stop the run before anything runs.
    # Each is applied once to a unit step, so one whose output is not
    # finite, or that cannot run at this dt, stops it too.  A polynomial
    # system's step spans its kernel support plus one cell: every later
    # output row reads the same lags.  Others take their own grid.
    for name, spec in cfg.system_specs.items():
        b = catalog.system_from_spec(name, spec, cfg.dt, cfg.custom_families)
        g, m = b.grid(cfg.dt), b.system.input_dim
        if isinstance(b.system, PolyIntegralOperator):
            g = Grid(cfg.dt, 0, 1 + max(k.grid_size(cfg.dt) for k in
                                        b.system.kernels.values()))
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                b.system.apply(TimeFunction(g, np.ones((g.n, m)),
                                            np.zeros(m)))
        except ValueError as e:
            raise ValueError(f"[system.{name}] a unit step over its grid "
                             f"gives a {e}") from None
    return cfg


def _config_from_args(args) -> tuple[RunConfig, list, str]:
    tables = parse_config_text(Path(args.config).read_text()
                               if args.config else "")
    raw = tables["run"]
    unknown = sorted(set(raw) - _KNOBS - {"experiments", "out"})
    if unknown:
        raise ValueError(f"unknown [run] keys: {unknown}")
    overrides = {k: v for k, v in raw.items() if k in _KNOBS}
    customs = {n: catalog.family_from_spec(n, s)
               for n, s in tables["family"].items()}
    cfg = replace(RunConfig(), **overrides, custom_families=customs,
                  system_specs=tables["system"])
    if args.dt is not None:
        cfg = replace(cfg, dt=args.dt)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "family", None):
        cfg = replace(cfg, family=args.family)
    if getattr(args, "system", None):
        cfg = replace(cfg, system=args.system)
    names = raw.get("experiments", list(EXPERIMENTS))
    if not (isinstance(names, list) and names
            and all(isinstance(n, str) for n in names)):
        raise ValueError("experiments must be a non-empty list of names, "
                         f"got {names!r}")
    if args.experiment:
        names = [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}")
    out_dir = args.out or raw.get("out") or ""
    return _check_config(cfg), names, out_dir


# -- serialization -------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _fmt_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v).replace(",", ";")


def _strip_wallclock(obj):
    # Wall-clock timings stay in memory for runtime assertions but never
    # reach the reports: written bytes depend only on config and seed.
    if isinstance(obj, dict):
        return {k: _strip_wallclock(v) for k, v in obj.items()
                if k != "runtime_seconds"}
    if isinstance(obj, list):
        return [_strip_wallclock(v) for v in obj]
    return obj


def _write_reports(results: list[ExperimentResult], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    summary = []
    for r in results:
        payload = _jsonable(_strip_wallclock(
            {"name": r.name, "claim": r.claim,
             "passed": r.passed, "metrics": r.metrics}))
        with open(os.path.join(out_dir, f"{r.name}.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for tname, rows in r.tables.items():
            if not rows:
                continue
            cols = list(rows[0].keys())
            path = os.path.join(out_dir, f"{r.name}_{tname}.csv")
            with open(path, "w") as fh:
                fh.write(",".join(cols) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt_cell(row.get(c, "")) for c in cols)
                             + "\n")
        summary.append({"name": r.name, "passed": r.passed})
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- subcommands ----------------------------------------------------------------


def _cmd_run(args) -> int:
    try:
        cfg, names, out_dir = _config_from_args(args)
    except (ValueError, TypeError, OverflowError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    results: list[ExperimentResult] = []
    for n in names:
        try:
            results.append(run_experiment(n, cfg))
        except AlignmentError as e:
            # An instant or kernel support the chosen dt cannot hit.
            print(f"config error: {n}: {e}", file=sys.stderr)
            return 2
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name}")
        print(f"      {r.claim}")
        for c in r.checks:
            if not c.passed:
                print(f"      failed {c.name}: observed "
                      f"{_jsonable(c.observed)!r}, bound {c.op} "
                      f"{_jsonable(c.bound)!r}")
    if out_dir:
        _write_reports(results, out_dir)
        print(f"reports written to {out_dir}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_list(args) -> int:
    # argparse admits only these three kinds.
    for name in {"experiments": EXPERIMENTS,
                 "systems": sorted(catalog.SYSTEMS),
                 "families": sorted(catalog.FAMILIES)}[args.kind]:
        print(name)
    return 0


def _cmd_describe(args) -> int:
    name = args.name
    if name in EXPERIMENTS:
        cfg = RunConfig()
        print(f"experiment: {name}")
        print(f"  {claim(name)}")
        for h in HYPOTHESES.get(name, []):
            print(f"  requires: {h}")
        print(f"  defaults: dt={cfg.dt}, seed={cfg.seed}")
        return 0
    if name in catalog.SYSTEMS:
        b = catalog.system(name, 0.01)
        print(f"system: {b.name}")
        print(f"  {b.claim}")
        for k, v in sorted(b.params.items()):
            print(f"  {k} = {v}")
        print(f"  past_window = {b.past_window}s, horizon = {b.horizon}s")
        return 0
    if name in catalog.FAMILIES:
        fam = catalog.family(name)
        print(f"family: {fam.name}")
        print(f"  p = {fam.p}, weight = {fam.weight}")
        print(f"  alpha = {fam.alpha}, K = {fam.K}")
        from .seminorm import classify
        print(f"  memory class = {classify(fam)['class']}")
        return 0
    print(f"unknown name {name!r}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="natstate",
        description="desk-scale experiments on natural states of causal "
                    "input-output systems")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run experiments and emit reports")
    p_run.add_argument("--config", help="TOML config file: [run], "
                       "[family.<name>] and [system.<name>] tables")
    p_run.add_argument("--experiment", help="run a single experiment")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", help="report directory", default=None)
    p_run.add_argument("--dt", type=float, default=None)
    p_run.add_argument("--family", help="target a single norm family "
                       "(experiments that support it)", default=None)
    p_run.add_argument("--system", help="target a single system "
                       "(experiments that support it)", default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list", help="list experiments, systems, families")
    p_list.add_argument("kind", choices=["experiments", "systems", "families"])
    p_list.set_defaults(fn=_cmd_list)

    p_desc = sub.add_parser("describe", help="describe a named item")
    p_desc.add_argument("name")
    p_desc.set_defaults(fn=_cmd_describe)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

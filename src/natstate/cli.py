"""Command-line front end: configure, run experiments, emit reports.

Reports are JSON summaries plus CSV tables, written with stable key order
and shortest-round-trip float formatting, so identical configurations and
seeds produce byte-identical files.  ``NATSTATE_THREADS`` caps how many
experiments run concurrently; each experiment is internally deterministic,
and results are written in a fixed order regardless of scheduling.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import tomllib
from dataclasses import fields, replace

import numpy as np

from . import catalog
from .experiments import EXPERIMENTS, ExperimentResult, RunConfig, run_experiment

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


def _flatten(table: dict, prefix: str = "") -> dict:
    out: dict = {}
    for key, val in table.items():
        if isinstance(val, dict):
            out.update(_flatten(val, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = val
    return out


def parse_config_text(text: str) -> dict:
    """TOML config flattened to dotted keys.

    Table names become key prefixes (``[family.x]`` key ``k`` becomes
    ``family.x.k``) except for ``[run]``, whose keys are top level.  Syntax
    errors raise ``ValueError`` (``tomllib.TOMLDecodeError``).
    """
    flat = _flatten(tomllib.loads(text))
    return {k.removeprefix("run."): v for k, v in flat.items()}


def _collect_sections(raw: dict, prefix: str) -> dict:
    """Group flattened ``prefix.<name>.<key>`` config entries by name."""
    out: dict = {}
    for key, val in raw.items():
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == prefix:
            out.setdefault(parts[1], {})[parts[2]] = val
    return out


def _config_from_args(args) -> tuple[RunConfig, list, str]:
    raw: dict = {}
    if args.config:
        with open(args.config) as fh:
            raw = parse_config_text(fh.read())
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    overrides = {k: v for k, v in raw.items() if k in known}
    cfg = replace(cfg, **overrides)
    fam_specs = _collect_sections(raw, "family")
    customs = {n: catalog.family_from_spec(n, s) for n, s in fam_specs.items()}
    cfg = replace(cfg, custom_families=customs,
                  system_specs=_collect_sections(raw, "system"))
    if args.dt is not None:
        cfg = replace(cfg, dt=args.dt)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.horizon is not None:
        cfg = replace(cfg, horizon=args.horizon)
    if getattr(args, "family", None):
        cfg = replace(cfg, family=args.family)
    if getattr(args, "system", None):
        cfg = replace(cfg, system=args.system)
    names = list(EXPERIMENTS)
    if isinstance(raw.get("experiments"), list) and raw["experiments"]:
        names = [str(n) for n in raw["experiments"]]
    if args.experiment:
        names = [args.experiment]
    out_dir = args.out or raw.get("out") or ""
    return cfg, names, out_dir


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
        unknown = [n for n in names if n not in EXPERIMENTS]
        if unknown:
            raise ValueError(f"unknown experiments: {unknown}")
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    threads = max(1, int(os.environ.get("NATSTATE_THREADS", "1")))
    results: list[ExperimentResult] = []
    if threads == 1 or len(names) == 1:
        for n in names:
            results.append(run_experiment(n, cfg))
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
            futs = [ex.submit(run_experiment, n, cfg) for n in names]
            results = [f.result() for f in futs]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name}")
        print(f"      {r.claim}")
    if out_dir:
        _write_reports(results, out_dir)
        print(f"reports written to {out_dir}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_list(args) -> int:
    kind = args.kind
    if kind == "experiments":
        for name in EXPERIMENTS:
            print(name)
    elif kind == "systems":
        for name in sorted(catalog.SYSTEMS):
            print(name)
    elif kind == "families":
        for name in sorted(catalog.FAMILIES):
            print(name)
    else:
        print(f"unknown kind {kind!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_describe(args) -> int:
    name = args.name
    if name in EXPERIMENTS:
        cfg = RunConfig()
        print(f"experiment: {name}")
        doc = (EXPERIMENTS[name].__doc__ or "").strip()
        if doc:
            print(doc)
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
    p_run.add_argument("--config", help="config file (key = value, [run] section)")
    p_run.add_argument("--experiment", help="run a single experiment")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", help="report directory", default=None)
    p_run.add_argument("--dt", type=float, default=None)
    p_run.add_argument("--horizon", type=float, default=None)
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

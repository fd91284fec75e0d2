"""natstate benchmark: seeded experiment workloads, timed and checked.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload poly-bounds --seed 12345 --seconds 20 --trace 0

Each pass runs one workload's experiments in a fresh child process through
``natstate.cli.main(["run", ...])`` and writes its reports under
``bench/out/``.  Passes repeat, closed loop and single threaded, until
``--seconds`` have gone by (at least one pass); ``wall_s`` is their
median.  Set-up is timed in extra children that stop once the package is
imported and the config parsed.  With ``--trace 1`` one more pass runs with
every public natstate function wrapped (``bench/layers.py``) and per-layer
metrics replace the end-to-end ones; end-to-end numbers never come from the
traced pass.

Every run's ``passed`` flag is checked.  At the default seed each run's
reports are also compared with ``bench/reference/`` (``bench/compare.py``),
and any two passes in one invocation must write byte-identical reports.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from compare import compare_dirs  # noqa: E402

DEFAULT_SEED = 12345

# The ACC sizes of tests/test_acceptance.py.
ACC = {"dt": 0.01, "probes": 200, "triples": 50, "pasts": 20, "futures": 50,
       "bound_probes": 125}

# workload -> (size overrides of ACC, [(experiment, system or "")]).  The
# four together run all sixteen experiments once, plus two cubic-volterra
# runs; README.md gives the why.  poly-bounds and norm-axioms take fewer
# probes or triples than ACC so that a pass takes seconds, not 20-40 s, and
# a run holds several.  That keeps dt, Q=200 and the instants per apply,
# hence the cost of each call, and lowers only the number of calls.
# norm-axioms keeps all 200 probes: with fewer, ff-axioms' negative control
# (a broken weight, checked on a quarter of the probes) can go undetected.
WORKLOADS = {
    "poly-bounds": ({"probes": 40, "bound_probes": 20},
                    [("npower-bounds", ""), ("state-bounds", "")]),
    "norm-axioms": ({"triples": 20},
                    [("ff-axioms", ""), ("taper", ""),
                     ("memory-causality", "")]),
    "linear-states": ({}, [("tail-separation", ""), ("shared-state-set", ""),
                           ("state-set-identity", ""), ("reachability", "")]),
    "derivatives": ({}, [("frechet-derivatives", ""), ("shift-derivative", ""),
                         ("trajectory-derivative", ""),
                         ("state-closed-form", ""), ("kernel-identify", ""),
                         ("symmetrize-invariance", ""), ("causality", ""),
                         ("causality", "cubic-volterra"),
                         ("trajectory-derivative", "cubic-volterra")]),
}


def config_text(workload: str) -> str:
    sizes = {**ACC, **WORKLOADS[workload][0]}
    return "[run]\n" + "".join(f"{k} = {v}\n" for k, v in sizes.items())


class KnownDefect(NamedTuple):
    """A claim that fails because of a defect in natstate itself.

    ``present`` recognises the defect in a failing run's JSON report; a
    failure without it is unexpected.
    """

    why: str
    present: Callable[[dict], bool]


def _oracle_gap_too_large(report: dict) -> bool:
    m = report["metrics"]
    return m.get("closed_form_gap", 0.0) > m.get("closed_form_tol", math.inf)


def _ladder_gaps_not_decreasing(report: dict) -> bool:
    g = report["metrics"]["lti_ladder_input_gaps"]
    return any(b >= a * (1.0 + 1e-9) for a, b in zip(g, g[1:]))


# Failing runs whose defect is present count as failed (in `failed` and in
# pass_share) without making the result incorrect.
KNOWN_DEFECTS = {
    ("trajectory-derivative", "cubic-volterra"): KnownDefect(
        "the degree-2 closed-form oracle is applied to a degree-1+2+3 "
        "operator (closed_form_gap 0.395 > tol 0.1 at seed 12345)",
        _oracle_gap_too_large),
    ("state-set-identity", ""): KnownDefect(
        "the claim that the LTI ladder's input gaps decrease does not hold "
        "for every random past (seed 9: 0.2212 then 0.2265)",
        _ladder_gaps_not_decreasing),
}

# Children see only the checkout's sources and one thread each.  The hash
# seed is pinned because causality, state-bounds and frechet-derivatives
# seed probes from hash(name) % 997, so without it reports (and work)
# change from process to process.
CHILD_ENV = {"PYTHONHASHSEED": "0", "NATSTATE_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

SETUP_SAMPLES = 4
TIME_LIMIT_S = 170.0  # the whole invocation, set-up children included


def run_label(name: str, system: str) -> str:
    return f"{name}.{system}" if system else name


EXPERIMENT_LABELS = sorted({run_label(n, s) for _, runs in WORKLOADS.values()
                            for n, s in runs})


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def digest_dir(path: Path) -> dict:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def environment_record() -> dict:
    src = ROOT / "src" / "natstate"
    lines = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    commit = "unavailable (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = (ref_file.read_text().strip()
                  if ref_file is not None and ref_file.is_file() else ref)
    return {**CHILD_ENV, "cpu_count": os.cpu_count(), "git_commit": commit,
            "src_lines": lines}


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.config = work / "sizes.toml"
        self.config.write_text(config_text(workload))
        self.env = {**os.environ, **CHILD_ENV,
                    "PYTHONPATH": str(ROOT / "src")}
        self.jobs = 0

    def child(self, job: dict) -> dict:
        """Run one child process; return its result with ``setup_s`` added."""
        self.jobs += 1
        job = {**job, "config": str(self.config),
               "result": str(self.work / f"result-{self.jobs}.json")}
        timeout = max(1.0, self.deadline - time.monotonic())
        t_spawn = time.monotonic()
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"),
                               json.dumps(job)],
                              env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"child exited with {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        with open(job["result"]) as fh:
            result = json.load(fh)
        result["setup_s"] = result["t_ready"] - t_spawn
        return result

    def setup(self, environment: bool) -> dict:
        return self.child({"mode": "setup", "environment": environment})

    def run_pass(self, index: int, trace: bool) -> dict:
        out = self.work / f"pass-{index}"
        runs = [[run_label(n, s), n, s] for n, s in WORKLOADS[self.workload][1]]
        result = self.child({"mode": "pass", "trace": trace, "seed": self.seed,
                             "out": str(out), "runs": runs})
        result["out"] = out
        return result


def check_pass(bench: Bench, p: dict, first: dict | None) -> list[dict]:
    """One outcome per run: whether it failed and any unexpected problem."""
    outcomes = []
    for (name, system), run in zip(WORKLOADS[bench.workload][1], p["runs"]):
        label = run["label"]
        out_dir = p["out"] / label
        ref_dir = BENCH / "reference" / bench.workload / label
        report_path = out_dir / f"{name}.json"
        report = (json.loads(report_path.read_text())
                  if report_path.is_file() else None)
        problems = []
        passed = report is not None and report["passed"] is True
        if run["error"]:
            problems.append(f"raised: {run['error'].strip().splitlines()[-1]}")
        elif report is None:
            problems.append(f"exit code {run['rc']} and no report")
        elif run["rc"] != (0 if passed else 1):
            problems.append(f"exit code {run['rc']} with passed={passed}")
        defect = KNOWN_DEFECTS.get((name, system))
        known = (report is not None and not passed and defect is not None
                 and defect.present(report))
        if report is not None and not passed and not known:
            problems.append("claim failed")
        if report is not None:
            # A run that passes where the reference recorded a failure is a
            # fixed defect, not a mismatch.
            if bench.seed == DEFAULT_SEED and not (
                    passed and _reference_failed(ref_dir / report_path.name)):
                problems += compare_dirs(str(ref_dir), str(out_dir))
            digests = digest_dir(out_dir)
            p.setdefault("digests", {})[label] = digests
            if first is not None and first.get("digests", {}).get(label) != digests:
                problems.append("reports differ from the first pass's bytes")
        outcomes.append({"label": label, "passed": passed and not problems,
                         "known_defect": known, "problems": problems})
    return outcomes


def _reference_failed(path: Path) -> bool:
    return path.is_file() and json.loads(path.read_text())["passed"] is False


def measure(args, spec: dict) -> dict:
    """Run set-up children and passes; return the result and its record.

    Metric names and units come from ``spec`` (BENCHMARK.json): end-to-end
    metrics without tracing, per-layer metrics with it.
    """
    work = BENCH / "out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        setups = [bench.setup(environment=(i == 0)) for i in range(SETUP_SAMPLES)]
        env = {**setups[0]["environment"], **environment_record()}
        passes = []
        t_start = time.monotonic()
        while True:
            passes.append(bench.run_pass(len(passes), trace=False))
            spent = time.monotonic() - t_start
            per_pass = spent / len(passes)
            # Leave room for one more pass and the traced pass, which runs
            # slower than an untraced one.
            room = per_pass * (1 + 2 * args.trace)
            if spent >= args.seconds or time.monotonic() + room > bench.deadline:
                break
        traced = bench.run_pass(len(passes), trace=True) if args.trace else None
        outcomes = []
        for p in passes + ([traced] if traced else []):
            outcomes += check_pass(bench, p, passes[0] if p is not passes[0] else None)
        report_bytes = sum(f.stat().st_size for f in passes[0]["out"].rglob("*")
                           if f.is_file())
        # One digest over every report of the first pass: two invocations
        # of one commit at one seed must print the same.
        report_sha = hashlib.sha256(json.dumps(passes[0].get("digests", {}),
                                               sort_keys=True).encode()).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(not o["passed"] for o in outcomes)
    unexpected = [f"{o['label']}: {d}" for o in outcomes for d in o["problems"]]
    walls = [p["wall_s"] for p in passes]
    setup_values = [s["setup_s"] for s in setups] + [p["setup_s"] for p in passes]
    q1, med, q3 = quartiles(walls)
    values = {
        "wall_s": med,
        "setup_s": statistics.median(setup_values),
        "peak_rss_mib": statistics.median(p["maxrss_kib"] for p in passes) / 1024,
        "pass_share": (attempted - failed) / attempted,
    }
    detail = {"wall_s": {"q1": q1, "median": med, "q3": q3, "n": len(walls),
                         "samples": walls},
              "setup_s": {"samples": setup_values},
              "reports_sha256": report_sha}
    kind = "end_to_end"
    if traced is not None:
        kind = "per_layer"
        values = dict(traced["layers"])
        if not traced["attribution_ok"]:
            unexpected.append("trace: self times and remainder do not add up "
                              "to the traced wall time")
        for label in EXPERIMENT_LABELS:
            vals = [r["wall_s"] for p in passes for r in p["runs"]
                    if r["label"] == label]
            values[f"experiments.{label}.wall_s"] = (statistics.median(vals)
                                                     if vals else 0.0)
        values["process.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
        values["trace.overhead"] = traced["wall_s"] / med
        values["cli.report_bytes"] = report_bytes
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    return {
        "line": {"correct": not unexpected, "attempted": attempted,
                 "failed": failed, "metrics": metrics},
        "environment": env, "detail": detail, "outcomes": outcomes,
        "unexpected": unexpected,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "natstate" / "cli.py").is_file():
        print(f"no natstate sources under {ROOT / 'src'}; run from the root "
              "of a natstate checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    res = measure(args, spec)
    results = BENCH / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(res, fh, indent=2, default=str)
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    print("detail " + json.dumps(res["detail"], sort_keys=True))
    for (name, system), defect in KNOWN_DEFECTS.items():
        label = run_label(name, system)
        n = sum(o["known_defect"] for o in res["outcomes"] if o["label"] == label)
        if n:
            print(f"known defect, counted as failed in {n} pass(es): "
                  f"{label}: {defect.why}")
    for line in res["unexpected"]:
        print(f"UNEXPECTED {line}")
    print(json.dumps(res["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

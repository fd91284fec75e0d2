"""Acceptance gate: one test per criterion, at the stated sizes and
tolerances, each printing a single pass/fail line.

Experiments are run once per configuration and shared across criteria
through module-scoped caching, so the gate stays in the
seconds-to-minutes range.
"""

import filecmp
import os
from dataclasses import replace

from natstate.cli import main
from natstate.experiments import RunConfig, run_experiment

ACC = RunConfig(dt=0.01, probes=200, triples=50, pasts=20, futures=50,
                bound_probes=125)

_cache: dict = {}


def run_cached(name: str, cfg: RunConfig = ACC):
    key = (name, cfg.dt, cfg.seed, cfg.probes, cfg.triples, cfg.pasts,
           cfg.futures, cfg.bound_probes)
    if key not in _cache:
        _cache[key] = run_experiment(name, cfg)
    return _cache[key]


def report(num: int, ok: bool, text: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_family_axioms():
    r = run_cached("ff-axioms")
    checks = sum(row["checks"] for row in r.tables["conditions"]
                 if row["family"] != "broken-dip")
    ok = (r.passed and r.metrics["probes"] >= 200
          and r.metrics["triples_per_probe"] >= 50)
    report(1, ok, f"five axioms on {r.metrics['families_checked']} families, "
                  f"{checks} window checks, counterexample detected")


def test_criterion_2_separation():
    r = run_cached("tail-separation", replace(ACC, pasts=6))
    ok = (r.passed and r.metrics["min_distance"] >= 1.0 - 1e-9
          and r.metrics["runtime_seconds"] < 1.0)
    report(2, ok, f"min distance {r.metrics['min_distance']:.12f} over "
                  f"{r.metrics['pairs']} pairs in "
                  f"{r.metrics['runtime_seconds']:.3f}s")


def test_criterion_3_shared_state_set():
    r = run_cached("shared-state-set")
    ok = (r.passed and r.metrics["pasts"] >= 20 and r.metrics["futures"] >= 50
          and r.metrics["max_gap"] <= r.metrics["tolerance"])
    report(3, ok, f"max evaluation gap {r.metrics['max_gap']:.3e} <= "
                  f"{r.metrics['tolerance']:.3e} over 20 pasts x 50 futures")


def test_criterion_4_residual_cubic_law():
    r = run_cached("shift-derivative")
    rows = r.metrics["residual_sq_rows"]
    ok = (r.passed and {row["h"] for row in rows} == {0.25, 0.125, 0.0625}
          and all(row["rel_err"] <= 0.02 for row in rows))
    worst = max(row["rel_err"] for row in rows)
    report(4, ok, f"squared residual matches (4/3) h^3 within "
                  f"{worst:.2%} at all three steps")


def test_criterion_5_closed_forms():
    r = run_cached("state-closed-form")
    t = run_cached("trajectory-derivative")
    ok = (r.passed
          and r.metrics["quadratic_max_err"] <= r.metrics["quadratic_tolerance"]
          and t.metrics["closed_form_gap"] <= t.metrics["closed_form_tol"])
    report(5, ok, f"state evaluation gap {r.metrics['quadratic_max_err']:.2e} "
                  f"over 20 pairs; trajectory-derivative gap "
                  f"{t.metrics['closed_form_gap']:.2e}")


def test_criterion_6_shared_probe_bounds():
    npw = run_cached("npower-bounds")
    fre = run_cached("frechet-derivatives")
    stb = run_cached("state-bounds")
    probes = stb.metrics["probes_checked"]
    violations = sum(v["violations"] for k, v in stb.metrics.items()
                     if isinstance(v, dict) and "violations" in v)
    ok = (npw.passed and fre.passed and stb.passed and probes >= 500
          and violations == 0
          and npw.metrics["windowed_max"] <= npw.metrics["hs_bound"]
          and fre.metrics["state_diff_norm"] <= fre.metrics["system_diff_norm"]
          and fre.metrics["past_to_state_norm"]
          <= fre.metrics["power_factor"] * fre.metrics["matched_system_norm"])
    report(6, ok, f"windowed norm <= kernel constant, state and "
                  f"past-to-state dominations hold, {probes} bound probes, "
                  f"{violations} violations")


def test_criterion_7_symmetrization():
    r = run_cached("symmetrize-invariance")
    ok = (r.passed and r.metrics["asym_operator_max_diff"] <= 1e-9
          and r.metrics["asym3_operator_max_diff"] <= 1e-9
          and r.metrics["permutation_tables_ok"])
    report(7, ok, f"operator invariance {r.metrics['asym_operator_max_diff']:.1e} "
                  f"(deg 2), {r.metrics['asym3_operator_max_diff']:.1e} (deg 3); "
                  f"both permutation tables reproduced exactly")


def test_criterion_8_kernel_identification():
    r = run_cached("kernel-identify")
    ok = (r.passed and r.metrics["max_rel_error"] <= r.metrics["tolerance"]
          and r.metrics["reidentify_max_err"] <= 1e-9)
    report(8, ok, f"cell averages within {r.metrics['max_rel_error']:.2%} "
                  f"(tolerance {r.metrics['tolerance']:.2%}); "
                  f"re-identification fixed point")


def test_criterion_9_reachability():
    r = run_cached("reachability")
    fin, tap, ref = (r.metrics["finite_memory"], r.metrics["tapered"],
                     r.metrics["refusal"])
    ok = (r.passed and fin["exact"] and tap["achieved"] and tap["eps"] == 0.05
          and ref["refused"]
          and r.metrics["persistence_min_distance"] >= 1.0 - 1e-9)
    report(9, ok, f"finite-memory drive exact; tapered distance "
                  f"{tap['distance']:.4f} <= 0.05; untapered refusal with "
                  f"persistent separation")


def test_criterion_10_derivative_limits():
    fre = run_cached("frechet-derivatives")
    sd = run_cached("shift-derivative")
    td = run_cached("trajectory-derivative")
    ok = (fre.passed and sd.passed and td.passed
          and fre.metrics["remainder_decay_final_over_initial"] <= 0.1
          and fre.metrics["state_remainder_final_over_initial"] <= 0.1
          and sd.metrics["sweep_final_over_initial"] <= 0.1
          and 0.8 <= td.metrics["fd_order"] <= 1.2)
    report(10, ok, f"all remainder sweeps decay (final/initial <= 0.1); "
                   f"trajectory finite-difference order "
                   f"{td.metrics['fd_order']:.3f} in [0.8, 1.2]")


def test_criterion_11_determinism(tmp_path):
    names = ["taper", "memory-causality", "symmetrize-invariance"]
    cfgfile = tmp_path / "cfg.toml"
    cfgfile.write_text("experiments = [" +
                       ", ".join(f'"{n}"' for n in names) + "]\n")
    outs = []
    for k in (1, 2):
        out = str(tmp_path / f"run{k}")
        assert main(["run", "--config", str(cfgfile), "--seed", "2718",
                     "--out", out]) == 0
        outs.append(out)
    files = sorted(os.listdir(outs[0]))
    same = all(filecmp.cmp(os.path.join(outs[0], f),
                           os.path.join(outs[1], f), shallow=False)
               for f in files)
    report(11, same and files == sorted(os.listdir(outs[1])),
           f"two seeded runs produced byte-identical reports "
           f"({len(files)} files)")

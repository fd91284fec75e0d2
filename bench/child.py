"""One benchmark child process: time set-up, then run experiments.

Usage: ``python3 bench/child.py '<job JSON>'``, started by ``bench/run.py``
with ``PYTHONPATH`` pointing at the checkout's ``src``.  The job names a
config file, a result file and, for a pass, the experiment runs and their
seed.  Set-up ends once ``natstate.cli`` is imported and the config parsed;
a ``setup`` job stops there.  A ``pass`` job drives every run through
``natstate.cli.main(["run", ...])``, one report directory per run, and
records wall time per run and for the pass, CPU time and peak RSS.  With
``trace`` set, natstate is instrumented (``layers.instrument``) after
set-up and the pass also yields per-layer metrics.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _run_pass(job, cli) -> dict:
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layers

        tracer = layers.Tracer()
        layers.instrument(tracer)
    runs = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for label, name, system in job["runs"]:
        argv = ["run", "--config", job["config"], "--experiment", name,
                "--seed", str(job["seed"]),
                "--out", os.path.join(job["out"], label)]
        if system:
            argv += ["--system", system]
        t = time.perf_counter()
        rc, error = None, None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception:
            error = traceback.format_exc(limit=4)
        runs.append({"label": label, "rc": rc, "error": error,
                     "wall_s": time.perf_counter() - t})
    wall = time.perf_counter() - t0
    out = {"runs": runs, "wall_s": wall,
           "cpu_s": time.process_time() - cpu0,
           "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["layers"], out["attribution_ok"] = layers.layer_metrics(tracer,
                                                                    wall)
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    import natstate.cli as cli

    with open(job["config"]) as fh:
        cli.parse_config_text(fh.read())
    result = {"t_ready": time.monotonic()}
    if job["mode"] == "setup":
        if job.get("environment"):
            result["environment"] = _environment()
    else:
        result.update(_run_pass(job, cli))
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate bench/reference/: the reports of every workload at the default seed.

Usage (from the root of a checkout)::

    python3 bench/make_reference.py [workload ...]

Run it only when a change is meant to alter the reports (say, a fixed known
defect), and say so in the change.  Each workload's reference is replaced
as a whole by the reports of one untraced pass.
"""

import os
import shutil
import sys

from run import BENCH, DEFAULT_SEED, WORKLOADS, Bench


def main(names) -> int:
    for workload in names or sorted(WORKLOADS):
        work = BENCH / "out" / f"reference-{workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            p = Bench(workload, DEFAULT_SEED, work).run_pass(0, trace=False)
            target = BENCH / "reference" / workload
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(p["out"], target)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{workload}: {len(p['runs'])} runs -> {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

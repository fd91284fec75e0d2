"""Compare experiment reports with the reference stored with the benchmark.

Booleans, integers, strings, ``null`` and non-finite floats must match
exactly; finite floats must agree within ``RTOL`` relative to the larger
magnitude, plus ``ATOL`` for values at round-off level.  JSON reports are
compared structurally and CSV tables cell by cell; the set of files must
match as well.

The tolerance was set by evaluating the polynomial contractions with
``np.einsum(..., optimize=True)``, a reordered contraction like the one
ROADMAP item 2 plans.  At the default seed that moved report floats by at
most 7e-9 relative (finite-difference quotients in the derivative
experiments amplify the ~1e-16 change of each output) and moved round-off
level gaps (below 1e-13) by up to 100%.  ``RTOL`` keeps a margin of ten
over the first and ``ATOL`` one of a thousand over the second; any answer
wrong in its first seven digits is caught.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 1e-7
ATOL = 1e-10


def close(a: float, b: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def compare_values(ref, got, where: str) -> list[str]:
    """Differences between two decoded JSON values, one line each."""
    if type(ref) is not type(got):
        return [f"{where}: expected {ref!r}, got {got!r}"]
    if isinstance(ref, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(ref)} != {sorted(got)}"]
        return [d for k in ref for d in compare_values(ref[k], got[k],
                                                       f"{where}.{k}")]
    if isinstance(ref, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(ref)} != {len(got)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in compare_values(r, g, f"{where}[{i}]")]
    if isinstance(ref, float):
        return [] if close(ref, got) else [f"{where}: {ref!r} vs {got!r}"]
    return [] if ref == got else [f"{where}: expected {ref!r}, got {got!r}"]


def _cell(text: str):
    """Decode a CSV cell the way ``natstate.cli`` encodes it."""
    if text in ("true", "false"):
        return text == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def compare_csv(ref_text: str, got_text: str, name: str) -> list[str]:
    ref_rows = [ln.split(",") for ln in ref_text.splitlines()]
    got_rows = [ln.split(",") for ln in got_text.splitlines()]
    if not ref_rows or not got_rows or ref_rows[0] != got_rows[0]:
        return [f"{name}: header differs"]
    return compare_values([[_cell(c) for c in row] for row in ref_rows[1:]],
                          [[_cell(c) for c in row] for row in got_rows[1:]],
                          name)


def compare_dirs(ref_dir: str, got_dir: str) -> list[str]:
    """Differences between a reference report directory and a fresh one."""
    if not os.path.isdir(ref_dir):
        return [f"no reference at {ref_dir}"]
    ref_files = sorted(os.listdir(ref_dir))
    got_files = sorted(os.listdir(got_dir)) if os.path.isdir(got_dir) else []
    if ref_files != got_files:
        return [f"report files {ref_files} != {got_files}"]
    diffs = []
    for fname in ref_files:
        with open(os.path.join(ref_dir, fname)) as fh:
            ref_text = fh.read()
        with open(os.path.join(got_dir, fname)) as fh:
            got_text = fh.read()
        if fname.endswith(".json"):
            diffs += compare_values(json.loads(ref_text), json.loads(got_text),
                                    fname)
        else:
            diffs += compare_csv(ref_text, got_text, fname)
    return diffs

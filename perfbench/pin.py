"""Regenerate ``perfbench/pinned.json``, the digests the benchmark checks
every output against at the default seed.

    python3 perfbench/pin.py

The cells are computed the way the ``table3-sweep`` workload computes
them, and a second time on the ``reference`` engine backend (the test
oracle); the digests are written only if the two agree.  Run this only
when a change is meant to alter the benchmark's outputs, and say so in
the change.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> int:
    workdir = run.OUT_DIR / "tmp" / "pin"
    run.pin_environment(workdir)
    sys.path.insert(0, str(run.ROOT / "src"))
    from benchlib import checks, workloads as wl
    from repro import store
    from repro.experiments.sweep import run_matrix

    try:
        cells = wl.SweepWorkload(workdir / "cells", wl.DEFAULT_SEED, {})
        cells.new_cache()
        cells.cold_phase()
        cells.before_pass()
        cells.run_pass()

        oracle: dict = {}
        run_matrix(
            wl.SWEEP_GRAPHS, wl.ALGORITHMS, wl.FRAMEWORKS, wl.ORDERINGS,
            params=cells.params, algo_kwargs=wl.ALGO_KWARGS, backend="reference",
            cache=store.ArtifactCache(workdir / "reference"),
            progress=lambda cell, result, skipped: oracle.__setitem__(
                cell.label(), checks.cell_digest(result)),
        )
        disagree = sorted(
            k for k in cells.expected.keys() | oracle.keys()
            if cells.expected.get(k) != oracle.get(k)
        )
        if disagree:
            print(f"error: vectorized and reference cells differ: {disagree}",
                  file=sys.stderr)
            return 1

        artifacts = wl.ColdBuildWorkload(workdir / "artifacts", wl.DEFAULT_SEED, {})
        artifacts.before_pass()
        artifacts.run_pass()
        pins = {
            "seed": wl.DEFAULT_SEED,
            "scale": wl.SCALE,
            "cells": cells.expected,
            "artifacts": artifacts.expected,
        }
        checks.PINNED_PATH.write_text(
            json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"pinned {len(pins['cells'])} cells and "
              f"{len(pins['artifacts'])} artifacts in {checks.PINNED_PATH}")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

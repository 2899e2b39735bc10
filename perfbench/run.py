"""The repository benchmark: one command, two workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3-sweep --seed 12345 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (and writes its spans to
``.perfbench/spans-<workload>-seed<seed>.json``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("table3-sweep", "cold-build")

_CLEARED_ENV = (
    "REPRO_BACKEND",
    "REPRO_MMAP",
    "REPRO_OBS",
    "REPRO_OBS_DIR",
    "REPRO_CACHE_OFF",
    "REPRO_PARALLEL_WORKERS",
    "REPRO_PARALLEL_MIN_WORK",
)
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment(workdir: Path) -> None:
    """Fix every knob the library or NumPy reads from the environment.

    Must run before NumPy is imported: the BLAS thread pools size
    themselves at import.  The default cache points into the run's work
    directory, so nothing can read or write a cache outside the checkout.
    """
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    for name in _THREAD_ENV:
        os.environ[name] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint(seed: int, scale: float) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "scale": scale,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=12345,
                        help="dataset seed (default 12345, the pinned one)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measured seconds per run (default 35)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run with per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _print_metrics(metrics: dict, units: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6g}  {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / "tmp" / f"{args.workload}-{os.getpid()}"
    pin_environment(workdir)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from benchlib import checks, layers, measure, workloads

    import_s = time.perf_counter() - _T0
    workload = workloads.WORKLOADS[args.workload](
        workdir, args.seed, checks.load_pins()
    )
    tracer = layers.Tracer() if args.trace else None
    try:
        if tracer is None:
            report = measure.measure(workload, args.seconds, import_s)
        else:
            report = measure.measure_traced(workload, args.seconds, tracer)
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("host:", json.dumps(host_fingerprint(args.seed, workload.scale)))
    print(f"{args.workload}: " + json.dumps(report.notes))
    print(f"{args.workload} ({'per-layer, traced' if tracer else 'end-to-end'}):")
    _print_metrics(report.metrics, report.units)
    print(f"  error_rate {report.error_rate:.6g} "
          f"({report.failed} of {report.attempted} ops failed)")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": report.units[name]}
            for name, value in report.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload serve-loopback-1k --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` measures the same workload untraced, then again with
every layer wrapped in spans (see ``tracing.py``), and prints the
per-layer metrics, the share of wall time the spans attribute and the
tracing overhead.  Metric names and units come from ``BENCHMARK.json``.
Timing metrics are in reference seconds, wall time corrected for the
host's speed as probed during the run (see ``hostspeed.py``); the wall
figures are printed beside them.

Every line but the last is for people.  The last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it is the full result with its provenance ``env`` block.
The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 1
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5


def _load_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not {ROOT}/src")


def provenance(seed: int) -> dict:
    """Where and on what a result was measured."""
    import numpy

    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top = sha = None
    if top is None or pathlib.Path(top).resolve() != ROOT:
        sha = None  # an exported checkout is not a git repository
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "schema_version": SCHEMA_VERSION,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--negative-control", action="store_true",
        help="corrupt one expected read and one recorded read; "
        "each check must then fail",
    )
    args = parser.parse_args(argv)
    _load_program()
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from workloads import BenchmarkError, run_workload

    try:
        report = asyncio.run(run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            setups=1 if args.trace else SETUPS,
            negative_control=args.negative_control,
        ))
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    metrics = report["metrics"]
    if set(metrics) != set(units):
        print(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr,
        )
        return 2
    verdict = report["verdict"]
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print(f"setup_s each: {', '.join(f'{s:.3f}' for s in report['setup_s'])}")
    for name, count in report["counts"].items():
        print(f"samples {name}: {count}")
    print(f"host speed x{report['host_speed']:.3f} of nominal; in wall time "
          + ", ".join(f"{name} {value:.6g}"
                      for name, value in report["wall"].items()))
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    if args.trace:
        share = metrics["trace.attributed_share"]
        print(f"attributed: {share:.3f} of {metrics['trace.wall_s']:.3f} s "
              f"wall; unattributed {metrics['aio.unattributed_s']:.3f} s")
        print(f"tracing overhead: traced {metrics['trace.ops_per_s']:.1f} "
              f"ops/s vs untraced {metrics['trace.untraced_ops_per_s']:.1f} "
              f"ops/s (slowdown x{metrics['trace.slowdown']:.3f})")
    print(f"failed_op_ratio {verdict.failed / verdict.attempted:.6g} "
          f"({verdict.failed} of {verdict.attempted} attempted; "
          f"{verdict.wrong_values} wrong values, "
          f"{verdict.non_linearizable_blocks} non-linearizable blocks, "
          f"{verdict.ops_checked} ops checked in {verdict.check_s:.3f} s)")
    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    full = dict(result, workload=args.workload, trace=args.trace,
                seconds=args.seconds, env=provenance(args.seed))
    print(json.dumps(full, sort_keys=True))
    print(json.dumps(result))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())

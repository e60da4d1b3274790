"""Simulator-core throughput profiling (the simcore benchmark).

Measures the raw speed of the simulation substrate — kernel events/sec,
register ops/sec, and stable-storage copy traffic — for the two
persistence paths the repo supports:

* ``"seed"``: the seed-era hot path — ``deepcopy``-per-access stable
  store plus full-log re-serialization on every replica mutation
  (O(writes²) in log copying over a run).
* ``"fast"``: the copy-on-write store plus journal-style incremental
  log persistence (O(1) per mutation).

Both paths execute the identical protocol schedule (same seeds, same
message timings), so the difference is pure simulator overhead.  The
benchmark suite (``benchmarks/test_bench_simcore.py``) and the CLI
(``python -m repro.cli simcore``) both drive this module and emit
``benchmarks/out/simcore_profile.txt`` plus the machine-readable
``benchmarks/out/BENCH_simcore.json`` that future PRs regress against.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cluster import ClusterConfig, FabCluster
from ..core.coordinator import CoordinatorConfig
from ..errors import ConfigurationError
from ..sim.network import NetworkConfig

__all__ = [
    "PATHS",
    "DEFAULT_GRID",
    "HEADLINE",
    "run_case",
    "run_profile",
    "render_report",
    "to_json",
]

#: Named simulator configurations: path -> (store_mode, persistence).
PATHS: Dict[str, Tuple[str, str]] = {
    "seed": ("deepcopy", "full"),
    "fast": ("cow", "journal"),
}

#: (m, n, ops) cases the full profile sweeps for both paths.
DEFAULT_GRID: Tuple[Tuple[int, int, int], ...] = (
    (2, 4, 2000),
    (4, 8, 2000),
    (8, 16, 1000),
)

#: The acceptance headline: (m, n, ops) where fast must beat seed >= 5x.
HEADLINE: Tuple[int, int, int] = (4, 8, 10_000)


def run_case(
    m: int,
    n: int,
    ops: int,
    path: str = "fast",
    block_size: int = 64,
    registers: int = 50,
    seed: int = 0,
    gc_enabled: bool = False,
    delivery_sweeps: bool = True,
) -> Dict[str, object]:
    """Run one simcore case; returns its measured counters.

    The workload is ``ops`` stripe writes round-robined over
    ``registers`` registers — with GC off, each replica log grows to
    ``ops / registers`` entries, which is exactly the regime where full
    re-serialization per mutation goes quadratic.
    """
    try:
        store_mode, persistence = PATHS[path]
    except KeyError:
        raise ConfigurationError(
            f"unknown simcore path {path!r}; want one of {sorted(PATHS)}"
        )
    cluster = FabCluster(
        ClusterConfig(
            m=m,
            n=n,
            block_size=block_size,
            seed=seed,
            store_mode=store_mode,
            persistence=persistence,
            metrics_history_limit=512,
            network=NetworkConfig(
                jitter_seed=seed, delivery_sweeps=delivery_sweeps
            ),
            coordinator=CoordinatorConfig(gc_enabled=gc_enabled),
        )
    )
    handles = [cluster.register(rid) for rid in range(registers)]
    stripes = [
        [
            (f"r{rid}b{j}".encode() * block_size)[:block_size]
            for j in range(m)
        ]
        for rid in range(registers)
    ]

    started = time.perf_counter()
    for index in range(ops):
        rid = index % registers
        handles[rid].write_stripe(stripes[rid])
    elapsed = time.perf_counter() - started

    # Sanity outside the timed region: the data actually landed.
    assert handles[0].read_stripe() == stripes[0]

    nodes = cluster.nodes.values()
    events = cluster.env.events_processed
    encode_mib_s, decode_mib_s = _coding_throughput(cluster, stripes[0])
    return {
        "path": path,
        "m": m,
        "n": n,
        "ops": ops,
        "registers": registers,
        "block_size": block_size,
        "gc_enabled": gc_enabled,
        "wall_s": elapsed,
        "ops_per_s": ops / elapsed if elapsed > 0 else float("inf"),
        "encode_mib_s": encode_mib_s,
        "decode_mib_s": decode_mib_s,
        "sim_events": events,
        "events_per_s": events / elapsed if elapsed > 0 else float("inf"),
        "heap_pushes": cluster.env.events_scheduled,
        "delivery_sweeps": cluster.config.network.delivery_sweeps,
        "bytes_copied": sum(node.stable.bytes_copied for node in nodes),
        "store_count": sum(node.stable.store_count for node in nodes),
        "stable_bytes": sum(node.stable.size_bytes() for node in nodes),
        "messages": cluster.metrics.total_messages,
        "disk_writes": cluster.metrics.total_disk_writes,
    }


def _coding_throughput(
    cluster: FabCluster, stripe: List[bytes], budget_mib: float = 2.0
) -> Tuple[float, float]:
    """Encode/decode MiB/s of the cluster's erasure code, measured
    outside the simulation loop (logical data bytes per stripe op)."""
    code = cluster.code
    m, n = cluster.config.m, cluster.config.n
    op_bytes = m * len(stripe[0])
    reps = max(3, int(budget_mib * 1024 * 1024) // max(1, op_bytes))
    encoded = code.encode(stripe)
    started = time.perf_counter()
    for _ in range(reps):
        code.encode(stripe)
    encode_s = time.perf_counter() - started
    # Worst-case decode: one data block lost, one parity pressed in
    # (pass-through when the code has no parity to press in).
    if n > m:
        survivors = {i: encoded[i - 1] for i in range(2, m + 1)}
        survivors[n] = encoded[n - 1]
    else:
        survivors = {i: encoded[i - 1] for i in range(1, m + 1)}
    started = time.perf_counter()
    for _ in range(reps):
        code.decode(survivors)
    decode_s = time.perf_counter() - started
    mib = reps * op_bytes / (1024 * 1024)
    return (
        mib / encode_s if encode_s > 0 else float("inf"),
        mib / decode_s if decode_s > 0 else float("inf"),
    )


def run_profile(
    grid: Sequence[Tuple[int, int, int]] = DEFAULT_GRID,
    headline: Optional[Tuple[int, int, int]] = HEADLINE,
    paths: Sequence[str] = ("seed", "fast"),
    registers: int = 50,
    block_size: int = 64,
) -> List[Dict[str, object]]:
    """Run the (m, n, ops) × path grid (headline case appended last)."""
    cases = list(grid)
    if headline is not None and headline not in cases:
        cases.append(headline)
    results = []
    for m, n, ops in cases:
        for path in paths:
            results.append(
                run_case(
                    m, n, ops, path,
                    registers=registers, block_size=block_size,
                )
            )
    return results


def _speedups(results: List[Dict[str, object]]) -> Dict[str, float]:
    """fast-over-seed ops/sec ratio per (m, n, ops) with both paths run."""
    by_case: Dict[Tuple[int, int, int], Dict[str, float]] = {}
    for row in results:
        key = (row["m"], row["n"], row["ops"])
        by_case.setdefault(key, {})[row["path"]] = row["ops_per_s"]
    ratios = {}
    for (m, n, ops), paths in sorted(by_case.items()):
        if "seed" in paths and "fast" in paths and paths["seed"] > 0:
            ratios[f"({m},{n})x{ops}"] = paths["fast"] / paths["seed"]
    return ratios


def render_report(results: List[Dict[str, object]]) -> str:
    """The human-readable simcore profile table."""
    lines = [
        "Simulator-core profile — events/sec, ops/sec, stable-store copying",
        "(seed = deepcopy store + full-log persistence; "
        "fast = copy-on-write store + journal persistence)",
        "",
        f"{'(m,n)':>8s}{'ops':>8s}{'path':>6s}{'wall s':>9s}"
        f"{'ops/s':>10s}{'events/s':>12s}{'enc MiB/s':>11s}"
        f"{'MB copied':>11s}{'stores':>10s}",
    ]
    for row in results:
        lines.append(
            f"({row['m']},{row['n']})".rjust(8)
            + f"{row['ops']:>8d}"
            + f"{row['path']:>6s}"
            + f"{row['wall_s']:>9.2f}"
            + f"{row['ops_per_s']:>10.0f}"
            + f"{row['events_per_s']:>12.0f}"
            + f"{row.get('encode_mib_s', 0.0):>11.1f}"
            + f"{row['bytes_copied'] / 1e6:>11.1f}"
            + f"{row['store_count']:>10d}"
        )
    ratios = _speedups(results)
    if ratios:
        lines.append("")
        lines.append("fast-vs-seed ops/sec speedup:")
        for label, ratio in ratios.items():
            lines.append(f"  {label:>14s}: {ratio:.1f}x")
    return "\n".join(lines) + "\n"


def to_json(results: List[Dict[str, object]]) -> str:
    """The machine-readable BENCH_simcore.json payload."""
    payload = {
        "benchmark": "simcore",
        "schema_version": 1,
        "cases": results,
        "speedup_fast_over_seed": _speedups(results),
    }
    return json.dumps(payload, indent=2, sort_keys=True)

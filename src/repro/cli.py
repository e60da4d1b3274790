"""Command-line experiment runner.

Regenerates the paper's artifacts without going through pytest::

    python -m repro.cli figure2                # MTTDL vs capacity
    python -m repro.cli figure3 --capacity 256 # overhead vs MTTDL
    python -m repro.cli table1 --n 5 --m 3     # analytic + measured costs
    python -m repro.cli demo                   # the quickstart scenario
    python -m repro.cli scrub --stripes 8      # scrub/rebuild walkthrough
    python -m repro.cli scrub --ops 500 --corrupt-rate 0.01
                                               # scrub-daemon experiment
    python -m repro.cli pipeline               # pipelined session throughput
    python -m repro.cli simcore                # simulator-core events/sec profile
    python -m repro.cli erasure-bench          # GF(2^8) kernel vs reference MiB/s
    python -m repro.cli placement              # LRC vs RS rebuild cost
    python -m repro.cli campaign --seeds 25    # randomized fault campaign

Each subcommand prints the same rows the corresponding benchmark writes
to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.compare import MEASURED_TO_ANALYTIC
from .analysis.costs import ls97_costs, our_costs
from .core.cluster import ClusterConfig, FabCluster
from .core.rebuild import Rebuilder, Scrubber
from .reliability import (
    BrickParams,
    ErasureCodedSystem,
    ReplicationSystem,
    StripingSystem,
    overhead_curve,
)

__all__ = ["main"]


def _figure2(args: argparse.Namespace) -> int:
    r0 = BrickParams(internal_raid="r0")
    r5 = BrickParams(internal_raid="r5")
    reliable = BrickParams(internal_raid="r5", reliable_array=True)
    systems = [
        ("striping/reliable-R5", StripingSystem(brick=reliable)),
        ("4-way-replication/R0", ReplicationSystem(brick=r0, replicas=4)),
        ("4-way-replication/R5", ReplicationSystem(brick=r5, replicas=4)),
        ("EC(5,8)/R0", ErasureCodedSystem(brick=r0, m=5, n=8)),
        ("EC(5,8)/R5", ErasureCodedSystem(brick=r5, m=5, n=8)),
    ]
    capacities = args.capacities
    print("Figure 2 — MTTDL (years) vs logical capacity (TB)")
    print("system".ljust(24) + "".join(f"{c:>11g}" for c in capacities))
    for name, system in systems:
        cells = "".join(
            f"{system.mttdl_years(c):>11.2e}" for c in capacities
        )
        print(name.ljust(24) + cells)
    return 0


def _figure3(args: argparse.Namespace) -> int:
    r0 = BrickParams(internal_raid="r0")
    r5 = BrickParams(internal_raid="r5")
    targets = [10.0**e for e in range(0, 13, 2)]
    print(f"Figure 3 — storage overhead vs required MTTDL "
          f"({args.capacity:.0f} TB)")
    print("scheme".ljust(20) + "".join(f"{t:>10.0e}" for t in targets))
    for name, brick, scheme in [
        ("replication/R0", r0, "replication"),
        ("replication/R5", r5, "replication"),
        ("EC(5,n)/R0", r0, "erasure"),
        ("EC(5,n)/R5", r5, "erasure"),
    ]:
        points = {
            p.required_mttdl_years: p
            for p in overhead_curve(targets, args.capacity, brick, scheme)
        }
        cells = []
        for target in targets:
            point = points.get(target)
            cells.append(f"{point.overhead:>10.2f}" if point else f"{'—':>10}")
        print(name.ljust(20) + "".join(cells))
    return 0


def _table1(args: argparse.Namespace) -> int:
    n, m, block = args.n, args.m, args.block_size
    cluster = FabCluster(ClusterConfig(m=m, n=n, block_size=block))
    register = cluster.register(0)
    stripe = [bytes([65 + i]) * block for i in range(m)]
    register.write_stripe(stripe)
    register.read_stripe()
    register.read_block(1)
    register.write_block(1, bytes([90]) * block)
    measured = cluster.metrics.summary()
    analytic = our_costs(n, m, block)
    analytic.update(ls97_costs(n, block))
    print(f"Table 1 — n={n}, m={m}, k={n - m}, B={block}")
    print(f"{'operation':18s}{'δ':>6s}{'msgs':>8s}{'diskR':>8s}"
          f"{'diskW':>8s}{'bytes':>10s}")
    for label in sorted(measured):
        key = MEASURED_TO_ANALYTIC.get(label)
        row = measured[label]
        suffix = f"  (analytic: {key})" if key else ""
        print(
            f"{label:18s}{row['latency_delta']:>6.0f}{row['messages']:>8.0f}"
            f"{row['disk_reads']:>8.0f}{row['disk_writes']:>8.0f}"
            f"{row['bytes']:>10.0f}{suffix}"
        )
    return 0


def _demo(args: argparse.Namespace) -> int:
    cluster = FabCluster(
        ClusterConfig(m=args.m, n=args.n, block_size=args.block_size)
    )
    register = cluster.register(0)
    stripe = [bytes([65 + i]) * args.block_size for i in range(args.m)]
    print(f"cluster: {cluster}")
    print("write-stripe:", register.write_stripe(stripe))
    print("read-stripe matches:", register.read_stripe() == stripe)
    victim = args.n
    cluster.crash(victim)
    print(f"crashed brick {victim}; read still matches:",
          register.read_stripe() == stripe)
    cluster.recover(victim)
    print(f"recovered brick {victim}; write:",
          register.write_stripe(list(reversed(stripe))))
    return 0


def _scrub(args: argparse.Namespace) -> int:
    if args.ops is not None:
        return _scrub_daemon(args)
    cluster = FabCluster(ClusterConfig(m=3, n=5, block_size=64))
    stripes = args.stripes
    for register_id in range(stripes):
        cluster.register(register_id).write_stripe(
            [bytes([register_id + 1]) * 64] * 3
        )
    cluster.crash(4)
    for register_id in range(stripes):
        cluster.register(register_id).write_stripe(
            [bytes([100 + register_id]) * 64] * 3
        )
    cluster.recover(4)
    scrubber = Scrubber(cluster)
    stale = scrubber.stale_registers(range(stripes))
    print(f"after brick 4 missed {stripes} writes: {len(stale)} stale registers")
    report = Rebuilder(cluster).rebuild(range(stripes))
    print(f"rebuild: repaired={report.repaired} current="
          f"{report.already_current} aborted={report.aborted}")
    print("stale after rebuild:",
          len(scrubber.stale_registers(range(stripes))))
    return 0


def _scrub_daemon(args: argparse.Namespace) -> int:
    import pathlib

    from .analysis.scrub import (
        render_report,
        render_sampling_report,
        run_sampling_sweep,
        run_scrub_experiment,
        to_json,
    )

    experiment = run_scrub_experiment(
        ops=args.ops,
        corrupt_rates=tuple(args.corrupt_rate),
        seed=args.seed,
        scrub_mode=args.mode,
    )
    report = render_report(experiment)
    sampling = None
    if args.mode == "sample":
        sampling = run_sampling_sweep(
            registers=args.sample_registers,
            sample_rates=tuple(args.sample_rates),
            trials=args.trials,
            seed=args.seed,
        )
        report += "\n" + render_sampling_report(sampling)
    print(report)
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report)
        print(f"report written to {path}")
    if args.json_out:
        path = pathlib.Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(to_json(experiment, sampling=sampling) + "\n")
        print(f"JSON artifact written to {path}")
    # Success = every corrupting run ended fully repaired and no client
    # read ever returned wrong data.
    healthy = all(
        run.clean_after and run.read_mismatches == 0
        for run in experiment.runs
    )
    return 0 if healthy else 1


def _pipeline(args: argparse.Namespace) -> int:
    from .analysis.pipeline import (
        crash_failover_run,
        render_report,
        sweep_crash_rate,
        sweep_inflight,
    )

    report = render_report(
        sweep_inflight(tuple(args.inflights), num_ops=args.ops),
        sweep_crash_rate(num_ops=args.ops),
        crash_failover_run(),
    )
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
        print(f"\nwritten to {args.out}")
    return 0


def _simcore(args: argparse.Namespace) -> int:
    from .analysis.simcore import render_report, run_profile, to_json

    grid = []
    for pair in args.pairs:
        m_text, n_text = pair.split(",")
        grid.append((int(m_text), int(n_text), args.ops))
    results = run_profile(
        grid=grid,
        headline=None,
        paths=tuple(args.paths),
        registers=args.registers,
        block_size=args.block_size,
    )
    report = render_report(results)
    print(report)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(to_json(results) + "\n")
        print(f"JSON written to {args.json_out}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"report written to {args.out}")
    return 0


def _erasure_bench(args: argparse.Namespace) -> int:
    import pathlib

    from .analysis.erasure_bench import (
        HEADLINE,
        headline_speedup,
        render_report,
        run_bench,
        to_json,
    )

    pairs = []
    for pair in args.pairs:
        m_text, n_text = pair.split(",")
        pairs.append((int(m_text), int(n_text)))
    results = run_bench(
        pairs=pairs,
        block_sizes=tuple(args.block_sizes),
        budget_mib=args.budget_mib,
    )
    report = render_report(results)
    print(report)
    json_path = pathlib.Path(args.json_out)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(to_json(results) + "\n")
    print(f"JSON artifact written to {json_path}")
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report)
        print(f"report written to {path}")
    if args.min_speedup is not None:
        speedup = headline_speedup(results)
        ok = speedup >= args.min_speedup
        verdict = "OK" if ok else "FAIL"
        print(
            f"headline encode speedup (kernel/reference at "
            f"m={HEADLINE[0]}, n={HEADLINE[1]}, block={HEADLINE[2]}): "
            f"{speedup:.1f}x >= {args.min_speedup:g}x ... {verdict}"
        )
        return 0 if ok else 1
    return 0


def _placement(args: argparse.Namespace) -> int:
    import pathlib

    from .analysis.placement import (
        render_report,
        run_placement_bench,
        to_json,
    )

    result = run_placement_bench(
        groups_list=tuple(args.groups),
        group_size=args.group_size,
        m=args.m,
        spares=args.spares,
        registers=args.registers,
        block_size=args.block_size,
        seed=args.seed,
    )
    report = render_report(result)
    print(report)
    json_path = pathlib.Path(args.json_out)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(to_json(result) + "\n")
    print(f"JSON artifact written to {json_path}")
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report)
        print(f"report written to {path}")
    if args.min_ratio is not None:
        ratio = result.min_fragment_ratio
        ok = ratio >= args.min_ratio
        verdict = "OK" if ok else "FAIL"
        print(
            f"minimum LRC rebuild advantage over RS across the sweep: "
            f"{ratio:.2f}x >= {args.min_ratio:g}x ... {verdict}"
        )
        return 0 if ok else 1
    return 0


def _campaign(args: argparse.Namespace) -> int:
    import pathlib

    from .analysis.campaign import render_report, run_suite, to_json
    from .campaign.engine import CampaignConfig, broken_config

    config = CampaignConfig(
        m=args.m,
        n=args.n,
        f=args.f,
        registers=args.registers,
        clients=args.clients,
        ops_per_client=args.ops,
        duration=args.duration,
        crash_weight=args.crash_weight,
        partition_weight=args.partition_weight,
        drop_weight=args.drop_weight,
        corrupt_weight=args.corrupt_weight,
        verify_checksums=not args.no_verify_checksums,
        scrub_enabled=args.scrub,
        scrub_mode=args.scrub_mode,
        max_clock_skew=args.max_skew,
    )
    if args.broken:
        config = broken_config(config)
    suite = run_suite(config, seeds=range(args.seeds))
    report = render_report(suite)
    print(report)
    json_path = pathlib.Path(args.json_out)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(to_json(suite) + "\n")
    print(f"JSON artifact written to {json_path}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"report written to {args.out}")
    if args.broken:
        # Broken mode succeeds when the harness caught the unsound
        # config and produced a small reproducer for every violation.
        caught = bool(suite.violating) and all(
            o.reproducer is not None and len(o.reproducer.events) <= 10
            for o in suite.violating
        )
        return 0 if caught else 1
    return 0 if suite.ok else 1


def _parse_partition(spec: Optional[str]):
    """Parse ``start:end:p1,p2`` into a partition window tuple."""
    if spec is None:
        return None
    parts = spec.split(":")
    if len(parts) != 3:
        raise SystemExit(
            f"--partition wants start_ms:end_ms:pid[,pid...], got {spec!r}"
        )
    try:
        start, end = float(parts[0]), float(parts[1])
        group = tuple(int(p) for p in parts[2].split(",") if p)
    except ValueError:
        raise SystemExit(
            f"--partition wants start_ms:end_ms:pid[,pid...], got {spec!r}"
        )
    if not group:
        raise SystemExit("--partition needs at least one pid in the group")
    return (start, end, group)


def _serve(args: argparse.Namespace) -> int:
    from .analysis.serve import run_serve

    result = run_serve(
        clients=args.clients,
        ops_per_client=args.ops,
        mode=args.mode,
        m=args.m,
        n=args.n,
        block_size=args.block_size,
        max_inflight=args.inflight,
        base_port=args.port,
        json_out=args.json_out,
        chaos=args.chaos,
        drop_rate=args.drop_rate,
        duplicate_rate=args.duplicate_rate,
        corrupt_rate=args.corrupt_rate,
        partition=_parse_partition(args.partition),
        chaos_seed=args.chaos_seed,
    )
    print(
        f"serve[{result['mode']}]: {result['clients']} clients x "
        f"{result['ops_per_client']} ops = {result['total_ops']} ops "
        f"in {result['wall_seconds']}s ({result['ops_per_sec']} ops/s)"
    )
    print(
        f"latency: p50={result['p50_ms']}ms p99={result['p99_ms']}ms; "
        f"failed sessions: {result['failed_sessions']}, "
        f"failed ops: {result['failed_ops']}"
    )
    chaos = result["chaos"]
    if chaos["enabled"]:
        print(
            f"chaos[seed={args.chaos_seed}]: "
            f"delivered={chaos['delivered']} dropped={chaos['dropped']} "
            f"partition_dropped={chaos['partition_dropped']} "
            f"duplicated={chaos['duplicated']} "
            f"corrupted={chaos['corrupted']}; "
            f"linearizable={chaos['linearizable']} "
            f"({chaos['blocks_checked']} blocks checked)"
        )
    print(f"JSON artifact written to {args.json_out}")
    ok = result["failed_sessions"] == 0 and chaos["linearizable"]
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from the DSN'04 erasure-coded "
                    "virtual disks paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure2 = subparsers.add_parser("figure2", help="MTTDL vs capacity")
    figure2.add_argument(
        "--capacities", type=float, nargs="+",
        default=[1, 10, 100, 1000],
    )
    figure2.set_defaults(func=_figure2)

    figure3 = subparsers.add_parser("figure3", help="overhead vs MTTDL")
    figure3.add_argument("--capacity", type=float, default=256.0)
    figure3.set_defaults(func=_figure3)

    table1 = subparsers.add_parser("table1", help="protocol costs")
    table1.add_argument("--n", type=int, default=5)
    table1.add_argument("--m", type=int, default=3)
    table1.add_argument("--block-size", type=int, default=1024)
    table1.set_defaults(func=_table1)

    demo = subparsers.add_parser("demo", help="cluster walkthrough")
    demo.add_argument("--n", type=int, default=5)
    demo.add_argument("--m", type=int, default=3)
    demo.add_argument("--block-size", type=int, default=512)
    demo.set_defaults(func=_demo)

    scrub = subparsers.add_parser(
        "scrub",
        help="scrub/rebuild walkthrough, or (with --ops) the "
             "scrub-daemon corruption experiment",
    )
    scrub.add_argument("--stripes", type=int, default=6)
    scrub.add_argument(
        "--ops", type=int, default=None,
        help="run the scrub-daemon experiment with this many client ops",
    )
    scrub.add_argument(
        "--corrupt-rate", type=float, nargs="+", default=[0.02, 0.08],
        help="per-op corruption probabilities to sweep (daemon mode)",
    )
    scrub.add_argument("--seed", type=int, default=0)
    scrub.add_argument(
        "--mode", choices=("sweep", "sample"), default="sweep",
        help="daemon scheduler; 'sample' also runs the fleet-scale "
             "detection-latency-vs-sample-rate sweep",
    )
    scrub.add_argument(
        "--sample-registers", type=int, default=1000,
        help="fleet size for the sampling sweep (sample mode)",
    )
    scrub.add_argument(
        "--sample-rates", type=float, nargs="+",
        default=[0.05, 0.10, 0.25, 1.0],
        help="scan budgets, as fractions of the full sweep, to measure",
    )
    scrub.add_argument(
        "--trials", type=int, default=32,
        help="seeded trials per sample rate (sample mode)",
    )
    scrub.add_argument(
        "--out", type=str, default=None,
        help="also write the report to this file (daemon mode)",
    )
    scrub.add_argument(
        "--json", dest="json_out", type=str, default=None,
        help="write the machine-readable results to this file (daemon mode)",
    )
    scrub.set_defaults(func=_scrub)

    pipeline = subparsers.add_parser(
        "pipeline", help="pipelined session throughput sweeps"
    )
    pipeline.add_argument(
        "--inflights", type=int, nargs="+", default=[1, 4, 16, 64],
    )
    pipeline.add_argument("--ops", type=int, default=120)
    pipeline.add_argument(
        "--out", type=str, default=None,
        help="also write the report to this file",
    )
    pipeline.set_defaults(func=_pipeline)

    simcore = subparsers.add_parser(
        "simcore",
        help="simulator-core throughput profile (seed vs fast path)",
    )
    simcore.add_argument(
        "--pairs", type=str, nargs="+", default=["4,8"],
        help="m,n pairs to run, e.g. --pairs 2,4 4,8",
    )
    simcore.add_argument("--ops", type=int, default=1000)
    simcore.add_argument(
        "--paths", type=str, nargs="+", default=["seed", "fast"],
        choices=["seed", "fast"],
    )
    simcore.add_argument("--registers", type=int, default=50)
    simcore.add_argument("--block-size", type=int, default=64)
    simcore.add_argument(
        "--json", dest="json_out", type=str, default=None,
        help="write the machine-readable results to this file",
    )
    simcore.add_argument(
        "--out", type=str, default=None,
        help="also write the report to this file",
    )
    simcore.set_defaults(func=_simcore)

    erasure = subparsers.add_parser(
        "erasure-bench",
        help="GF(2^8) erasure-kernel throughput against the GF256 "
             "reference (encode/decode/delta MiB/s)",
    )
    erasure.add_argument(
        "--pairs", type=str, nargs="+", default=["2,4", "4,8", "8,16"],
        help="m,n pairs to sweep, e.g. --pairs 2,4 4,8",
    )
    erasure.add_argument(
        "--block-sizes", type=int, nargs="+", default=[4096, 65536],
        help="stripe-unit sizes in bytes",
    )
    erasure.add_argument(
        "--budget-mib", type=float, default=8.0,
        help="approximate data volume per measurement in MiB",
    )
    erasure.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit 1 unless the kernel beats the reference by this factor "
             "on encode at the headline cell (m=4, n=8, 64 KiB)",
    )
    erasure.add_argument(
        "--json", dest="json_out", type=str,
        default="benchmarks/out/BENCH_erasure.json",
        help="path for the machine-readable JSON artifact",
    )
    erasure.add_argument(
        "--out", type=str, default=None,
        help="also write the text report to this file",
    )
    erasure.set_defaults(func=_erasure_bench)

    placement = subparsers.add_parser(
        "placement",
        help="placement-group rebuild economics: LRC group-local vs "
             "Reed-Solomon global repair per failed brick",
    )
    placement.add_argument(
        "--groups", type=int, nargs="+", default=[2, 4, 8],
        help="placement-group counts to sweep",
    )
    placement.add_argument("--group-size", type=int, default=8)
    placement.add_argument("--m", type=int, default=4)
    placement.add_argument("--spares", type=int, default=1)
    placement.add_argument(
        "--registers", type=int, default=24,
        help="registers written across the fleet before the failure",
    )
    placement.add_argument("--block-size", type=int, default=64)
    placement.add_argument("--seed", type=int, default=0)
    placement.add_argument(
        "--min-ratio", type=float, default=None,
        help="exit 1 unless RS reads at least this many times more "
             "fragments than LRC at every sweep point",
    )
    placement.add_argument(
        "--json", dest="json_out", type=str,
        default="benchmarks/out/BENCH_placement.json",
        help="path for the machine-readable JSON artifact",
    )
    placement.add_argument(
        "--out", type=str, default=None,
        help="also write the text report to this file",
    )
    placement.set_defaults(func=_placement)

    campaign = subparsers.add_parser(
        "campaign",
        help="randomized fault campaign with online invariant checks",
    )
    campaign.add_argument(
        "--seeds", type=int, default=25,
        help="number of seeds to sweep (0..N-1)",
    )
    campaign.add_argument("--n", type=int, default=5)
    campaign.add_argument("--m", type=int, default=3)
    campaign.add_argument(
        "--f", type=int, default=None,
        help="tolerated faults; default floor((n-m)/2)",
    )
    campaign.add_argument("--registers", type=int, default=4)
    campaign.add_argument("--clients", type=int, default=3)
    campaign.add_argument(
        "--ops", type=int, default=30, help="operations per client"
    )
    campaign.add_argument("--duration", type=float, default=400.0)
    campaign.add_argument("--crash-weight", type=float, default=3.0)
    campaign.add_argument("--partition-weight", type=float, default=1.0)
    campaign.add_argument("--drop-weight", type=float, default=1.0)
    campaign.add_argument(
        "--corrupt-weight", type=float, default=0.0,
        help="weight of silent-corruption faults in the mix (0 disables)",
    )
    campaign.add_argument(
        "--no-verify-checksums", action="store_true",
        help="escape hatch: disable CRC verification on stable stores "
             "(the read-verification invariant then catches served rot)",
    )
    campaign.add_argument(
        "--scrub", action="store_true",
        help="run the background scrub-and-repair daemon during the "
             "campaign",
    )
    campaign.add_argument(
        "--scrub-mode", choices=("auto", "sweep", "sample"), default="auto",
        help="scrub scheduler: exhaustive sweep, confidence-driven "
             "sampling, or auto (sample at large register counts)",
    )
    campaign.add_argument(
        "--max-skew", type=float, default=0.0,
        help="max per-brick clock skew (time units)",
    )
    campaign.add_argument(
        "--broken", action="store_true",
        help="run the deliberately unsound n < 2f + m configuration; "
             "exit 0 iff the violation is caught and shrunk",
    )
    campaign.add_argument(
        "--json", dest="json_out", type=str,
        default="benchmarks/out/campaign.json",
        help="path for the machine-readable JSON artifact",
    )
    campaign.add_argument(
        "--out", type=str, default=None,
        help="also write the text report to this file",
    )
    campaign.set_defaults(func=_campaign)

    serve = subparsers.add_parser(
        "serve",
        help="host a cluster on the asyncio transport and load it with "
             "concurrent sessions",
    )
    serve.add_argument(
        "--clients", type=int, default=100,
        help="concurrent volume sessions (one stripe each)",
    )
    serve.add_argument(
        "--ops", type=int, default=4, help="operations per client"
    )
    serve.add_argument(
        "--mode", choices=("loopback", "tcp"), default="loopback",
        help="asyncio substrate: in-process loopback or TCP framing",
    )
    serve.add_argument("--m", type=int, default=3)
    serve.add_argument("--n", type=int, default=5)
    serve.add_argument("--block-size", type=int, default=64)
    serve.add_argument(
        "--inflight", type=int, default=4,
        help="max operations in flight per session",
    )
    serve.add_argument(
        "--port", type=int, default=7420,
        help="base TCP port (brick pid p listens on port + p - 1)",
    )
    serve.add_argument(
        "--json", dest="json_out", type=str,
        default="benchmarks/out/BENCH_serve.json",
        help="path for the machine-readable JSON artifact",
    )
    serve.add_argument(
        "--chaos", action="store_true",
        help="wrap the transport in seeded fault injection (any non-"
             "zero fault knob below implies this)",
    )
    serve.add_argument(
        "--drop-rate", type=float, default=0.0,
        help="per-message drop probability injected at the transport "
             "boundary (chaos mode)",
    )
    serve.add_argument(
        "--duplicate-rate", type=float, default=0.0,
        help="per-message duplication probability (chaos mode)",
    )
    serve.add_argument(
        "--corrupt-rate", type=float, default=0.0,
        help="per-message bit-flip probability; flips are CRC-detected "
             "and become counted drops (chaos mode)",
    )
    serve.add_argument(
        "--partition", type=str, default=None,
        help="timed partition start_ms:end_ms:pid[,pid...] cutting the "
             "pid group off for that window (chaos mode)",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for every chaos decision (same seed = same faults)",
    )
    serve.set_defaults(func=_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Abort-rate ablation (paper Section 3 claims).

The paper argues aborts are rare in practice because (a) applications
almost never issue concurrent conflicting operations to the same data,
and (b) clock synchronization keeps timestamp-order conflicts rare —
and that neither factor affects safety, only the abort rate.

This bench turns both dials: the fraction of operation rounds that
actually collide on one stripe, and the clock skew between coordinator
bricks (with and without Lamport-style timestamp observation).  The
abort rate must rise with each dial while every run remains strictly
linearizable per block.
"""

import pytest

from repro import ClusterConfig, FabCluster
from repro.core.coordinator import CoordinatorConfig
from repro.sim.network import NetworkConfig
from repro.types import ABORT
from repro.workloads import ConflictSchedule
from tests.conftest import stripe_of

from .conftest import write_artifact

M, N, B = 2, 4, 64


def run_conflict_sweep(conflict_probability, rounds=30, skews=None,
                       observe=True, seed=3):
    cluster = FabCluster(
        ClusterConfig(
            m=M, n=N, block_size=B,
            network=NetworkConfig(min_latency=0.5, max_latency=2.0,
                                  jitter_seed=seed),
            coordinator=CoordinatorConfig(observe_timestamps=observe),
            clock_skews=skews or {},
            seed=seed,
        )
    )
    schedule = ConflictSchedule(
        num_registers=16, writers=2, spread=1.0,
        conflict_probability=conflict_probability, seed=seed,
    )
    total = aborted = 0
    tag = 0
    for round_ops in schedule.rounds(rounds):
        processes = []
        for writer_index, (register_id, offset) in enumerate(round_ops):
            pid = (writer_index % N) + 1
            coordinator = cluster.coordinators[pid]
            tag += 1
            stripe = stripe_of(M, B, tag)

            def launch(pid=pid, coordinator=coordinator,
                       register_id=register_id, stripe=stripe, offset=offset):
                timer = cluster.env.timeout(offset)
                holder = {}

                def start(_t):
                    holder["process"] = cluster.nodes[pid].spawn(
                        coordinator.write_stripe(register_id, stripe)
                    )

                timer._add_callback(start)
                return holder

            processes.append(launch())
        cluster.env.run(until=cluster.env.now + 60.0)
        for holder in processes:
            process = holder.get("process")
            if process is None or not process.triggered:
                continue
            total += 1
            if process.value is ABORT:
                aborted += 1
    return aborted / total if total else 0.0


def sweep():
    results = {}
    for probability in [0.0, 0.25, 0.5, 1.0]:
        results[f"conflict={probability}"] = run_conflict_sweep(probability)
    # Clock-skew dial at zero conflicts: sequential ops from skewed bricks.
    for skew, observe in [(0.0, False), (50.0, False), (50.0, True)]:
        label = f"skew={skew} observe={observe}"
        results[label] = run_skew_sweep(skew, observe)
    return results


def run_skew_sweep(skew, observe, operations=20, seed=5):
    cluster = FabCluster(
        ClusterConfig(
            m=M, n=N, block_size=B,
            network=NetworkConfig(jitter_seed=seed),
            coordinator=CoordinatorConfig(observe_timestamps=observe),
            clock_skews={1: skew},  # brick 1 runs fast by `skew`
            seed=seed,
        )
    )
    aborted = 0
    for tag in range(operations):
        # First half: the fast-clock brick raises the timestamp bar far
        # above real time; second half: the laggard tries to write.
        # Without observation the laggard's clock needs wall-time to
        # catch up (every attempt aborts meanwhile); with observation
        # it learns the bar from the first rejection.
        pid = 1 if tag < operations // 2 else 2
        register = cluster.register(0, route=pid)
        if register.write_stripe(stripe_of(M, B, tag)) is ABORT:
            aborted += 1
    return aborted / operations


def render(results) -> str:
    lines = ["Abort-rate ablation (write-write conflicts and clock skew)"]
    for label, rate in results.items():
        lines.append(f"  {label:28s} abort rate = {rate:.3f}")
    return "\n".join(lines) + "\n"


def test_bench_abort_rates(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_artifact("abort_rates_ablation", render(results))

    # No conflicts, synchronized clocks: no aborts.
    assert results["conflict=0.0"] == 0.0
    # Full conflicts: aborts appear.
    assert results["conflict=1.0"] > 0.0
    # More conflicts, more aborts (weakly monotone).
    assert results["conflict=1.0"] >= results["conflict=0.25"]
    # Skew without observation hurts; observation mostly repairs it.
    assert results["skew=50.0 observe=False"] > results["skew=0.0 observe=False"]
    assert results["skew=50.0 observe=True"] < results["skew=50.0 observe=False"]
    assert results["skew=50.0 observe=True"] <= 0.1

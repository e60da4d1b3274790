"""Scalability: protocol cost versus cluster size.

The paper's pitch (Section 1) is that FAB "can grow smoothly from small
to large-scale installations".  At the protocol level that means: for a
fixed code rate, operation latency stays constant as bricks are added
(messages grow linearly, but rounds don't), and coordination is spread
over all bricks rather than a central controller.  This bench measures
fast-path latency and message counts for EC(m = n−3) stripes as n grows,
and the load spread across coordinators.
"""

import pytest

from tests.conftest import make_cluster, stripe_of

from .conftest import write_artifact

B = 256
SIZES = [5, 7, 9, 12, 16]


def run_size(n):
    m = n - 3  # constant redundancy: tolerate 1 fault, k = 3
    cluster = make_cluster(m=m, n=n, block_size=B)
    writes = reads = 0
    for register_id in range(6):
        pid = (register_id % n) + 1  # spread coordination over bricks
        register = cluster.register(register_id, route=pid)
        assert register.write_stripe(stripe_of(m, B, tag=register_id)) == "OK"
        assert register.read_stripe() is not None
    summary = cluster.metrics.summary()
    return {
        "n": n,
        "m": m,
        "write_msgs": summary["write-stripe/fast"]["messages"],
        "write_delta": summary["write-stripe/fast"]["latency_delta"],
        "read_msgs": summary["read-stripe/fast"]["messages"],
        "read_delta": summary["read-stripe/fast"]["latency_delta"],
    }


def run_all():
    return [run_size(n) for n in SIZES]


def render(rows) -> str:
    lines = ["Protocol scaling: EC(n-3, n), fast paths"]
    lines.append(
        f"{'n':>4s}{'m':>4s}{'write msgs':>12s}{'write δ':>9s}"
        f"{'read msgs':>11s}{'read δ':>8s}"
    )
    for row in rows:
        lines.append(
            f"{row['n']:>4d}{row['m']:>4d}{row['write_msgs']:>12.0f}"
            f"{row['write_delta']:>9.0f}{row['read_msgs']:>11.0f}"
            f"{row['read_delta']:>8.0f}"
        )
    return "\n".join(lines) + "\n"


def test_bench_scaling(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    write_artifact("protocol_scaling", render(rows))
    for row in rows:
        # Latency is independent of n: 4δ writes, 2δ reads at any scale.
        assert row["write_delta"] == 4
        assert row["read_delta"] == 2
        # Messages exactly linear in n.
        assert row["write_msgs"] == 4 * row["n"]
        assert row["read_msgs"] == 2 * row["n"]

"""Erasure-coding primitive throughput.

Not a paper table, but the substrate the whole system stands on:
encode / decode / modify throughput for the Reed-Solomon, XOR-parity,
and replication codes at realistic block sizes.  pytest-benchmark's
timing is the artifact here; assertions pin correctness and the
expected performance ordering (XOR beats field arithmetic).

The kernel sweep additionally compares the coders' GF(2^8) block
kernel with the masked log/antilog reference in ``GF256`` across (m, n)
and block sizes, writes ``benchmarks/out/BENCH_erasure.json`` + a text
report, and pins the headline: the kernel encodes >= 5x faster than the
reference at (m=4, n=8, 64 KiB).
"""

import json

import pytest

from repro.analysis import erasure_bench
from repro.erasure import make_code

from .conftest import OUT_DIR, write_artifact

BLOCK = 64 * 1024  # 64 KiB stripe units


def make_stripe(m, size=BLOCK, seed=1):
    return [bytes((seed + i * 37 + j) % 256 for j in range(size))
            for i in range(m)]


@pytest.mark.parametrize(
    "kind,m,n",
    [
        ("reed-solomon", 5, 8),
        ("cauchy", 5, 8),
        ("parity", 4, 5),
        ("replication", 1, 3),
    ],
)
def test_bench_encode(benchmark, kind, m, n):
    code = make_code(m, n, kind)
    stripe = make_stripe(m)
    encoded = benchmark(code.encode, stripe)
    assert len(encoded) == n
    assert encoded[:m] == stripe


@pytest.mark.parametrize(
    "kind,m,n",
    [("reed-solomon", 5, 8), ("cauchy", 5, 8), ("parity", 4, 5)],
)
def test_bench_decode_worst_case(benchmark, kind, m, n):
    """Decode with the maximum number of data blocks missing."""
    code = make_code(m, n, kind)
    stripe = make_stripe(m)
    encoded = code.encode(stripe)
    lost = n - m  # every parity pressed into service
    survivors = {
        i: encoded[i - 1] for i in range(lost + 1, n + 1)
    }
    decoded = benchmark(code.decode, survivors)
    assert decoded == stripe


def test_bench_modify(benchmark):
    code = make_code(5, 8, "reed-solomon")
    stripe = make_stripe(5)
    encoded = code.encode(stripe)
    new_block = bytes(BLOCK)

    result = benchmark(code.modify, 2, 6, stripe[1], new_block, encoded[5])
    expected = code.encode([stripe[0], new_block] + stripe[2:])[5]
    assert result == expected


def test_bench_delta_apply(benchmark):
    code = make_code(5, 8, "reed-solomon")
    stripe = make_stripe(5)
    encoded = code.encode(stripe)
    delta = code.encode_delta(2, stripe[1], bytes(BLOCK))

    result = benchmark(code.apply_delta, 2, 6, delta, encoded[5])
    expected = code.modify(2, 6, stripe[1], bytes(BLOCK), encoded[5])
    assert result == expected


def run_kernel_sweep():
    return erasure_bench.run_bench(budget_mib=4.0)


def test_bench_erasure_kernel(benchmark):
    """The kernel sweep: artifacts plus the >= 5x encode headline."""
    results = benchmark.pedantic(run_kernel_sweep, rounds=1, iterations=1)
    write_artifact("erasure_kernels", erasure_bench.render_report(results))
    json_path = OUT_DIR / "BENCH_erasure.json"
    json_path.write_text(erasure_bench.to_json(results) + "\n")

    # The acceptance headline: kernel >= 5x reference on encode MiB/s at
    # (m=4, n=8, 64 KiB stripe units).
    speedup = erasure_bench.headline_speedup(results)
    assert speedup is not None
    assert speedup >= 5.0, (
        f"kernel encode speedup regressed: {speedup:.1f}x < 5x"
    )

    # Both paths produced identical decode results by construction
    # (run_case asserts round-trips); here pin the artifact's shape.
    payload = json.loads(json_path.read_text())
    assert payload["benchmark"] == "erasure"
    assert payload["headline"]["encode_speedup_kernel_over_reference"] == speedup
    assert set(payload["paths"]) == {"kernel", "reference"}
    assert len(payload["cases"]) == len(results)
    for row in payload["cases"]:
        assert row["encode_mib_s"] > 0
        assert row["decode"][0]["mib_s"] > 0

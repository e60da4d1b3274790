"""Erasure-kernel throughput profiling (the erasure benchmark).

Measures raw Reed-Solomon coding speed — encode / decode / delta MiB/s
and ops/s — across (m, n) geometries, block sizes, and survivor-loss
sweeps.  Every cell is measured twice: on the coders' block kernel
(:mod:`repro.erasure.kernels`, path ``kernel``) and on the masked
log/antilog path of :class:`~repro.erasure.gf256.GF256` (path
``reference``).  The decode loss sweep erases ``0..n-m`` data
blocks and reconstructs from the worst-case survivor set, so the numbers
cover both the pass-through fast path and full matrix reconstruction.

MiB/s counts *logical data bytes* (``m * block_size`` per stripe op),
the same accounting a virtual-disk client sees; ops/s counts whole
stripe operations.  Both the benchmark suite
(``benchmarks/test_bench_erasure.py``) and the CLI
(``python -m repro.cli erasure-bench``) drive this module and emit the
machine-readable ``benchmarks/out/BENCH_erasure.json`` that CI asserts
the kernel-over-reference speedup against.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..erasure import GF256, ReedSolomonCode
from ..erasure.matrix import invert, submatrix

__all__ = [
    "DEFAULT_PAIRS",
    "DEFAULT_BLOCK_SIZES",
    "PATHS",
    "HEADLINE",
    "run_case",
    "run_bench",
    "render_report",
    "to_json",
    "headline_speedup",
]

#: (m, n) geometries the default profile sweeps.
DEFAULT_PAIRS: Tuple[Tuple[int, int], ...] = ((2, 4), (4, 8), (8, 16))

#: Stripe-unit sizes in bytes.
DEFAULT_BLOCK_SIZES: Tuple[int, ...] = (4096, 65536)

#: The two measured arithmetic paths: the production kernel and the
#: GF256 reference it must beat.
PATHS: Tuple[str, ...] = ("kernel", "reference")

#: The acceptance headline: (m, n, block_size) where the kernel must
#: beat the reference on encode MiB/s.
HEADLINE: Tuple[int, int, int] = (4, 8, 65536)


def _stripe(m: int, block_size: int, seed: int = 1) -> List[bytes]:
    return [
        bytes((seed + i * 37 + j) % 256 for j in range(block_size))
        for i in range(m)
    ]


def _time_op(fn, op_bytes: int, budget_bytes: int) -> Tuple[float, int]:
    """Run ``fn`` until ~``budget_bytes`` are processed; returns (s, reps)."""
    reps = max(3, budget_bytes // max(1, op_bytes))
    started = time.perf_counter()
    for _ in range(reps):
        fn()
    return time.perf_counter() - started, reps


_Ops = Tuple[Callable, Callable, Callable]


def _reference_ops(code: ReedSolomonCode) -> _Ops:
    """``code``'s encode / decode / apply_delta on GF256's masked path.

    Same matrices and the same decode-matrix caching as the coder, so
    the two paths differ only in their block arithmetic.
    """
    m = code.m
    generator = code.generator_matrix
    decode_matrices: Dict[Tuple[int, ...], np.ndarray] = {}

    def rows(blocks) -> np.ndarray:
        return np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(
            len(blocks), -1
        )

    def encode(stripe):
        parity = GF256.matmul(generator[m:], rows(stripe))
        return list(stripe) + [row.tobytes() for row in parity]

    def decode(blocks):
        indices = tuple(sorted(blocks)[:m])
        if indices == tuple(range(1, m + 1)):
            return [bytes(blocks[i]) for i in indices]
        if indices not in decode_matrices:
            decode_matrices[indices] = invert(
                submatrix(generator, [i - 1 for i in indices])
            )
        data = GF256.matmul(
            decode_matrices[indices], rows([blocks[i] for i in indices])
        )
        return [row.tobytes() for row in data]

    def apply_delta(i, j, delta, parity):
        out = np.frombuffer(parity, dtype=np.uint8).copy()
        GF256.addmul_bytes(
            out, code.coefficient(i, j), np.frombuffer(delta, dtype=np.uint8)
        )
        return out.tobytes()

    return encode, decode, apply_delta


_OPS: Dict[str, Callable[[ReedSolomonCode], _Ops]] = {
    "kernel": lambda code: (code.encode, code.decode, code.apply_delta),
    "reference": _reference_ops,
}


def run_case(
    m: int,
    n: int,
    block_size: int,
    path: str = "kernel",
    budget_mib: float = 8.0,
    seed: int = 1,
) -> Dict[str, object]:
    """Measure one (path, m, n, block_size) cell of RS(m, n).

    Returns a flat row with encode/delta throughput plus a ``decode``
    survivor-loss sweep (``lost`` data blocks pressed onto parity,
    0..n-m).
    """
    code = ReedSolomonCode(m, n)
    encode, decode, apply_delta = _OPS[path](code)
    stripe = _stripe(m, block_size, seed)
    encoded = encode(stripe)
    assert encoded[:m] == stripe
    op_bytes = m * block_size
    budget = int(budget_mib * 1024 * 1024)

    encode_s, encode_reps = _time_op(lambda: encode(stripe), op_bytes, budget)
    mib = encode_reps * op_bytes / (1024 * 1024)
    row: Dict[str, object] = {
        "path": path,
        "m": m,
        "n": n,
        "block_size": block_size,
        "encode_mib_s": mib / encode_s if encode_s > 0 else float("inf"),
        "encode_ops_s": encode_reps / encode_s if encode_s > 0 else float("inf"),
    }

    decode_rows = []
    max_loss = min(n - m, m)  # cannot erase more data blocks than exist
    for lost in range(max_loss + 1):
        # Worst case: the first `lost` data blocks are gone, parity
        # blocks (from the tail) stand in for them.
        survivors = {i: encoded[i - 1] for i in range(lost + 1, m + 1)}
        for j in range(n, n - lost, -1):
            survivors[j] = encoded[j - 1]
        decode_s, decode_reps = _time_op(
            lambda: decode(survivors), op_bytes, budget
        )
        assert decode(survivors) == stripe
        mib = decode_reps * op_bytes / (1024 * 1024)
        decode_rows.append(
            {
                "lost": lost,
                "mib_s": mib / decode_s if decode_s > 0 else float("inf"),
                "ops_s": decode_reps / decode_s if decode_s > 0 else float("inf"),
            }
        )
    row["decode"] = decode_rows

    # The Section 5.2 delta path: one coded delta applied to one parity.
    if n > m:
        delta = code.encode_delta(1, stripe[0], bytes(block_size))

        def delta_op():
            apply_delta(1, n, delta, encoded[n - 1])

        delta_s, delta_reps = _time_op(delta_op, block_size, budget)
        mib = delta_reps * block_size / (1024 * 1024)
        row["delta_mib_s"] = mib / delta_s if delta_s > 0 else float("inf")
        row["delta_ops_s"] = delta_reps / delta_s if delta_s > 0 else float("inf")
    return row


def run_bench(
    pairs: Sequence[Tuple[int, int]] = DEFAULT_PAIRS,
    block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
    budget_mib: float = 8.0,
    headline: Optional[Tuple[int, int, int]] = HEADLINE,
) -> List[Dict[str, object]]:
    """Run the full ((m, n) × block size × path) grid."""
    cells = [
        (m, n, block_size)
        for m, n in pairs
        for block_size in block_sizes
    ]
    if headline is not None and headline not in cells:
        cells.append(headline)
    return [
        run_case(m, n, block_size, path, budget_mib=budget_mib)
        for m, n, block_size in cells
        for path in PATHS
    ]


def _speedups(results: List[Dict[str, object]]) -> Dict[str, float]:
    """Kernel-over-reference encode MiB/s per cell."""
    by_cell: Dict[Tuple, Dict[str, float]] = {}
    for row in results:
        cell = (row["m"], row["n"], row["block_size"])
        by_cell.setdefault(cell, {})[row["path"]] = row["encode_mib_s"]
    ratios = {}
    for (m, n, block_size), paths in sorted(by_cell.items()):
        if "kernel" in paths and paths.get("reference", 0) > 0:
            label = f"reed-solomon({m},{n})x{block_size}"
            ratios[label] = paths["kernel"] / paths["reference"]
    return ratios


def headline_speedup(results: List[Dict[str, object]]) -> Optional[float]:
    """Kernel-over-reference encode speedup at the :data:`HEADLINE` cell."""
    m, n, block_size = HEADLINE
    label = f"reed-solomon({m},{n})x{block_size}"
    return _speedups(results).get(label)


def render_report(results: List[Dict[str, object]]) -> str:
    """The human-readable erasure-kernel throughput table."""
    lines = [
        "Erasure-kernel throughput — RS encode/decode/delta MiB/s, "
        "kernel vs GF256 reference",
        "(MiB/s counts logical data bytes: m x block_size per stripe op;",
        " decode(L) reconstructs with L data blocks erased, worst case)",
        "",
        f"{'(m,n)':>8s}{'block':>8s}{'path':>11s}"
        f"{'enc MiB/s':>11s}{'dec(0)':>9s}{'dec(max)':>10s}{'delta':>9s}",
    ]
    for row in results:
        decode_rows = row["decode"]
        lines.append(
            f"({row['m']},{row['n']})".rjust(8)
            + f"{row['block_size']:>8d}"
            + f"{row['path']:>11s}"
            + f"{row['encode_mib_s']:>11.1f}"
            + f"{decode_rows[0]['mib_s']:>9.1f}"
            + f"{decode_rows[-1]['mib_s']:>10.1f}"
            + (f"{row['delta_mib_s']:>9.1f}" if "delta_mib_s" in row
               else f"{'—':>9s}")
        )
    ratios = _speedups(results)
    if ratios:
        lines.append("")
        lines.append("kernel-vs-reference encode speedup:")
        for label, ratio in ratios.items():
            lines.append(f"  {label:>28s}: {ratio:.1f}x")
    return "\n".join(lines) + "\n"


def to_json(results: List[Dict[str, object]]) -> str:
    """The machine-readable BENCH_erasure.json payload."""
    payload = {
        "benchmark": "erasure",
        "schema_version": 2,
        "paths": sorted({row["path"] for row in results}),
        "cases": results,
        "speedup_kernel_over_reference": _speedups(results),
        "headline": {
            "cell": list(HEADLINE),
            "encode_speedup_kernel_over_reference": headline_speedup(results),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)

"""The GF(2^8) block kernel against the GF256 reference.

The kernel (``bytes.translate`` products, numpy XOR) must be bit-for-bit
identical to the masked log/antilog path of :class:`GF256` on every
operation: a property test drives random coefficient matrices and block
lengths through both, and every coder is run on each implementation and
compared byte for byte.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure import GF256, kernels, make_code
from repro.errors import CodingError

#: Block lengths the property test draws from: tiny, odd, around a
#: 64-byte word boundary, an odd page-plus and a full 64 KiB unit.
WIDTHS = [1, 7, 63, 64, 4099, 65536]

#: Every registered coder kind at a representative geometry.
CODER_GEOMETRIES = [
    ("reed-solomon", 3, 6),
    ("cauchy", 3, 6),
    ("lrc", 4, 8),
    ("parity", 3, 4),
    ("replication", 1, 3),
]


def tolerated_erasures(kind: str, m: int, n: int) -> int:
    """Worst-case erasures every coder guarantees to decode.

    MDS codes tolerate any ``n - m`` losses; the LRC is non-MDS and
    only guarantees the campaign bound ``(n - m) // 2``.
    """
    return (n - m) // 2 if kind == "lrc" else n - m


class Reference:
    """The kernel's four operations on GF256's masked log/antilog path."""

    @staticmethod
    def matmul(coeffs, blocks):
        matrix = np.asarray(coeffs, dtype=np.uint8)
        if matrix.size == 0:
            return []
        data = np.stack([np.frombuffer(bytes(b), dtype=np.uint8) for b in blocks])
        return [row.tobytes() for row in GF256.matmul(matrix, data)]

    @staticmethod
    def addmul(accum, scalar, data):
        out = np.frombuffer(bytes(accum), dtype=np.uint8).copy()
        GF256.addmul_bytes(out, int(scalar), np.frombuffer(bytes(data), dtype=np.uint8))
        return out.tobytes()

    @staticmethod
    def xor(a, b):
        return bytes(x ^ y for x, y in zip(a, b))

    @staticmethod
    def xor_all(blocks):
        return functools.reduce(Reference.xor, blocks)


coefficient = st.one_of(st.sampled_from([0, 1]), st.integers(0, 255))


@st.composite
def products(draw):
    """A coefficient matrix (maybe with an all-zero row) and its blocks."""
    cols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(coefficient, min_size=cols, max_size=cols),
                         max_size=4))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = [0] * cols
    width = draw(st.sampled_from(WIDTHS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    blocks = [rng.randbytes(width) for _ in range(cols)]
    return rows, blocks


class TestKernelPrimitives:
    @settings(max_examples=60, deadline=None)
    @given(products(), coefficient)
    def test_kernel_matches_reference(self, product, scalar):
        coeffs, blocks = product
        assert kernels.matmul(coeffs, blocks) == Reference.matmul(coeffs, blocks)
        a, b = blocks[0], blocks[-1]
        assert kernels.addmul(a, scalar, b) == Reference.addmul(a, scalar, b)
        assert kernels.xor(a, b) == Reference.xor(a, b)
        assert kernels.xor_all(blocks) == Reference.xor_all(blocks)

    # Fixed-seed companions of the property test: the same comparisons
    # on deterministic inputs, on the table-driven kernel.
    @pytest.mark.parametrize("kernel", [pytest.param(kernels, id="table")])
    def test_matmul_matches_masked(self, kernel):
        rng = random.Random(7)
        for _ in range(15):
            rows = rng.randrange(0, 5)
            cols = rng.randrange(1, 5)
            width = rng.choice([1, 7, 64, 257])
            coeffs = [[rng.randrange(256) for _ in range(cols)] for _ in range(rows)]
            blocks = [rng.randbytes(width) for _ in range(cols)]
            assert kernel.matmul(coeffs, blocks) == Reference.matmul(coeffs, blocks)

    @pytest.mark.parametrize("kernel", [pytest.param(kernels, id="table")])
    def test_scale_addmul_xor_match_masked(self, kernel):
        rng = random.Random(11)
        for scalar in [0, 1, 2, 255] + [rng.randrange(256) for _ in range(8)]:
            a, b = rng.randbytes(113), rng.randbytes(113)
            zero = bytes(len(a))
            assert kernel.addmul(zero, scalar, a) == Reference.addmul(zero, scalar, a)
            assert kernel.addmul(a, scalar, b) == Reference.addmul(a, scalar, b)
            assert kernel.xor(a, b) == Reference.xor(a, b)
        blocks = [rng.randbytes(64) for _ in range(5)]
        assert kernel.xor_all(blocks) == Reference.xor_all(blocks)

    def test_every_product_matches_the_field(self):
        every_byte = bytes(range(256))
        for scalar in range(256):
            expected = bytes(GF256.mul(scalar, x) for x in every_byte)
            assert kernels.matmul([[scalar]], [every_byte]) == [expected]
            assert kernels.addmul(bytes(256), scalar, every_byte) == expected

    def test_matmul_accepts_numpy_coefficients(self):
        coeffs = np.array([[3, 7], [1, 0]], dtype=np.uint8)
        blocks = [b"\x01\x02\x03", b"\x04\x05\x06"]
        assert kernels.matmul(coeffs, blocks) == Reference.matmul(coeffs, blocks)

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(CodingError):
            kernels.matmul([[1, 2]], [b"xy"])

    def test_matmul_zero_rows(self):
        assert kernels.matmul([], [b"xy", b"ab"]) == []

    def test_matmul_zero_row_output_is_zero(self):
        assert kernels.matmul([[0, 0]], [b"xy", b"ab"]) == [b"\x00\x00"]


@pytest.fixture
def reference_arithmetic(monkeypatch):
    """Route every coder through :class:`Reference` instead of the kernel."""

    def install():
        for name in ("matmul", "addmul", "xor", "xor_all"):
            monkeypatch.setattr(kernels, name, getattr(Reference, name))

    return install


class TestCrossBackendCoders:
    """Every coder is byte-identical on the kernel and on the reference."""

    def _stripe(self, rng, m, width):
        return [rng.randbytes(width) for _ in range(m)]

    @pytest.mark.parametrize("kind,m,n", CODER_GEOMETRIES)
    def test_encode_decode_identical(self, kind, m, n, reference_arithmetic):
        rng = random.Random(sum(kind.encode()))
        code = make_code(m, n, kind)
        cases = []
        for _ in range(5):
            stripe = self._stripe(rng, m, rng.choice([1, 16, 129]))
            encoded = code.encode(stripe)
            keep = n - tolerated_erasures(kind, m, n)
            survivors = {i: encoded[i - 1] for i in rng.sample(range(1, n + 1), keep)}
            assert code.decode(survivors) == stripe
            cases.append((stripe, encoded, survivors))
        reference_arithmetic()
        code = make_code(m, n, kind)
        for stripe, encoded, survivors in cases:
            assert code.encode(stripe) == encoded
            assert code.decode(survivors) == stripe

    @pytest.mark.parametrize("kind,m,n", CODER_GEOMETRIES)
    def test_modify_and_delta_identical(self, kind, m, n, reference_arithmetic):
        rng = random.Random(1 + sum(kind.encode()))
        code = make_code(m, n, kind)
        width = 33
        stripe = self._stripe(rng, m, width)
        encoded = code.encode(stripe)
        new_block = rng.randbytes(width)
        index = rng.randrange(1, m + 1)

        def updates(code):
            out = []
            for j in range(m + 1, n + 1):
                modified = code.modify(
                    index, j, stripe[index - 1], new_block, encoded[j - 1]
                )
                out.append(modified)
                if hasattr(code, "encode_delta"):
                    delta = code.encode_delta(index, stripe[index - 1], new_block)
                    applied = code.apply_delta(index, j, delta, encoded[j - 1])
                    assert applied == modified
            return out

        on_kernel = updates(code)
        reference_arithmetic()
        assert updates(make_code(m, n, kind)) == on_kernel

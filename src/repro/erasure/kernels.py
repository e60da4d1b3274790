"""The GF(2^8) block kernel: the bulk arithmetic of every erasure coder.

Encode (``parity = G . data``), decode (``data = G_sub^-1 . survivors``)
and modify (``parity ^= g * delta``) apply a few field operations to
every byte of a block.  Two primitives carry all of it:

* scalar x block is ``bytes.translate`` through the 256-byte product
  table of that scalar, built once from :mod:`~repro.erasure.gf256`'s
  exp/log tables;
* block + block (field addition) is numpy ``uint8`` ``bitwise_xor``.

Blocks are ``bytes`` in and out; coefficient matrices are any nested
sequence of ints (numpy arrays included).  The masked log/antilog path
of :class:`~repro.erasure.gf256.GF256` is the reference this kernel is
tested against.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import CodingError
from ..types import Block
from .gf256 import _EXP, _LOG

__all__ = ["matmul", "addmul", "xor", "xor_all"]


def _product_tables() -> List[bytes]:
    """``tables[s][x] == s * x`` for every field element ``s`` (64 KiB)."""
    table = _EXP[_LOG[:, None] + _LOG[None, :]]
    table[0, :] = 0  # _LOG[0] is a placeholder; zero annihilates
    table[:, 0] = 0
    return [row.tobytes() for row in table]


_TABLES = _product_tables()


def _scale(scalar: int, block: bytes) -> bytes:
    return block if scalar == 1 else block.translate(_TABLES[scalar])


def _fold(blocks: Sequence[Block], width: int) -> bytes:
    """XOR of ``blocks``; ``width`` zero bytes when there are none."""
    if not blocks:
        return bytes(width)
    if len(blocks) == 1:
        return bytes(blocks[0])
    arrays = [np.frombuffer(block, dtype=np.uint8) for block in blocks]
    accum = np.bitwise_xor(arrays[0], arrays[1])
    for array in arrays[2:]:
        np.bitwise_xor(accum, array, out=accum)
    return accum.tobytes()


def matmul(coeffs: Sequence[Sequence[int]], blocks: Sequence[Block]) -> List[bytes]:
    """``coeffs (rows x cols)`` times the column of ``cols`` blocks."""
    rows = np.asarray(coeffs, dtype=np.uint8).tolist()
    if not rows:
        # Zero output rows (e.g. a parity-free code): nothing to
        # multiply, any number of input blocks is acceptable.
        return []
    if len(blocks) != len(rows[0]):
        raise CodingError(
            f"matmul dimension mismatch: matrix cols={len(rows[0])}, "
            f"data rows={len(blocks)}"
        )
    raw = [bytes(block) for block in blocks]
    width = len(raw[0]) if raw else 0
    return [
        _fold([_scale(s, block) for s, block in zip(row, raw) if s], width)
        for row in rows
    ]


def addmul(accum: Block, scalar: int, data: Block) -> bytes:
    """``accum ^ scalar * data`` — the one-coefficient update of modify."""
    if scalar == 0:
        return bytes(accum)
    return _fold((accum, _scale(scalar, bytes(data))), len(accum))


def xor(a: Block, b: Block) -> bytes:
    """``a ^ b`` (field addition) of two equal-length blocks."""
    return _fold((a, b), len(a))


def xor_all(blocks: Sequence[Block]) -> bytes:
    """XOR of one or more equal-length blocks."""
    return _fold(blocks, 0)

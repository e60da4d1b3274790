"""Cauchy-matrix Reed-Solomon code.

An alternative systematic MDS construction: the parity rows come from a
Cauchy matrix instead of a Vandermonde-derived one.  Cauchy matrices
have every square submatrix invertible by construction, which makes the
MDS property immediate (no column elimination needed) and — in
bit-matrix form, which we do not implement — underlies the
"Cauchy Reed-Solomon" codes popular after Blömer et al.  Functionally
interchangeable with :class:`~repro.erasure.reed_solomon.ReedSolomonCode`;
the erasure benchmark compares the two.

Registered in the factory as ``"cauchy"``.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodingError
from .cache import BoundedLRU
from .gf256 import GF256
from .matrix import cauchy, identity
from .reed_solomon import ReedSolomonCode

__all__ = ["CauchyReedSolomonCode"]


class CauchyReedSolomonCode(ReedSolomonCode):
    """Systematic MDS code with a Cauchy parity matrix.

    Inherits all operational machinery (encode/decode/modify/delta,
    decode-matrix caching) from :class:`ReedSolomonCode`; only the
    generator construction differs.
    """

    def __init__(self, m: int, n: int) -> None:
        # Skip ReedSolomonCode.__init__'s Vandermonde construction but
        # run the grandparent's validation.
        if n > GF256.ORDER:
            raise CodingError(
                f"Cauchy Reed-Solomon over GF(2^8) requires n <= 256, got {n}"
            )
        k = n - m
        if k + m > GF256.ORDER:
            raise CodingError(f"Cauchy construction needs n <= 256, got {n}")
        super(ReedSolomonCode, self).__init__(m, n)
        generator = np.zeros((n, m), dtype=np.uint8)
        generator[:m, :] = identity(m)
        if k:
            generator[m:, :] = cauchy(k, m)
        self._generator = generator
        self._decode_cache = BoundedLRU(lambda: self.DECODE_CACHE_SIZE)

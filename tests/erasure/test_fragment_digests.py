"""Stored fragments never change: pinned digests of encode and modify.

Each code kind encodes one fixed-seed stripe and recomputes one parity
block after a data-block change.  The SHA-256 digests below were taken
from the previous GF(2^8) implementation; a kernel rewrite that moves a
single output byte fails here, so fragments already on disk stay
decodable.
"""

import hashlib
import random

import pytest

from repro.erasure import make_code

BLOCK = 4099  # odd length: no word-size alignment to lean on

#: kind -> (m, n, SHA-256 of the encoded stripe, SHA-256 of one modify)
PINNED = {
    "reed-solomon": (
        4, 8,
        "31e797c0f06ac04c5dcd79b93cf950ca1ee6a95b1c9191cbda7ed6f0ee9a40dd",
        "b67dd0f57aedf11c0127d9d865b8bbb8c79a5b479b56b2fe094bfae549df331b",
    ),
    "cauchy": (
        4, 8,
        "b530c4d40eeffc39e0bfebeb6dbd3d2a2788563e18730569b7bcc2c976e1cbe6",
        "6d9d89cb05f1932522c8550174806258793a6a3af72810d5bb86b87b01906373",
    ),
    "lrc": (
        4, 8,
        "02cb6af6358fb93f5e3d82d4d915d79fdc943706ba2bfe1858de6f7e6cf85820",
        "374febb1c233dc85a418f2485e97e503e7ec8f19acdd175cac33201b6e5408c9",
    ),
    "parity": (
        3, 4,
        "21c787aec7717b30f880a0b02eff1e5fbe6a1d39ab884a5562b33624994ad01f",
        "18866e402f335d051fe917f4fc0437fe3ef4946cdf0ee09b820b92c3197ac645",
    ),
    "replication": (
        1, 3,
        "df8478b9a92fc037080fca32493548055ebf96e80278d668f61baa86ee04f2de",
        "a26eb79bdc7cea9d18d25837cc4f5931e42eb717666372f5bf8f86f8e023dbc3",
    ),
}


def _digests(kind, m, n):
    rng = random.Random(f"fragments-{kind}")
    stripe = [rng.randbytes(BLOCK) for _ in range(m)]
    code = make_code(m, n, kind)
    encoded = code.encode(stripe)
    new_block = rng.randbytes(BLOCK)
    parity = code.modify(1, n, stripe[0], new_block, encoded[n - 1])
    return (
        hashlib.sha256(b"".join(encoded)).hexdigest(),
        hashlib.sha256(parity).hexdigest(),
    )


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_encode_and_modify_digests_are_pinned(kind):
    m, n, encode_digest, modify_digest = PINNED[kind]
    assert _digests(kind, m, n) == (encode_digest, modify_digest)

"""Factory for erasure codes.

:func:`make_code` picks the most natural implementation for a given
``(m, n)`` pair, or builds a specific one by name.  Keeping construction
behind a factory lets the cluster and benchmark layers switch codes with
a single string parameter.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..errors import ConfigurationError
from .cauchy import CauchyReedSolomonCode
from .interface import ErasureCode
from .lrc import LRCCode
from .parity import SingleParityCode
from .reed_solomon import ReedSolomonCode
from .replication import ReplicationCode

__all__ = ["make_code", "available_codes"]

_REGISTRY: Dict[str, Type[ErasureCode]] = {
    "reed-solomon": ReedSolomonCode,
    "cauchy": CauchyReedSolomonCode,
    "lrc": LRCCode,
    "parity": SingleParityCode,
    "replication": ReplicationCode,
}


def available_codes() -> List[str]:
    """Names accepted by :func:`make_code`, plus ``"auto"``."""
    return sorted(_REGISTRY) + ["auto"]


def make_code(m: int, n: int, kind: str = "auto") -> ErasureCode:
    """Construct an m-out-of-n erasure code.

    Args:
        m: data blocks per stripe.
        n: total blocks per stripe.
        kind: one of :func:`available_codes`.  With ``"auto"`` the
            factory picks replication for ``m == 1``, XOR parity for
            ``n == m + 1``, and Reed-Solomon otherwise.

    Raises:
        ConfigurationError: on an unknown ``kind``.
    """
    if kind == "auto":
        if m == 1:
            return ReplicationCode(m, n)
        if n == m + 1:
            return SingleParityCode(m, n)
        return ReedSolomonCode(m, n)
    try:
        cls = _REGISTRY[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown code kind {kind!r}; available: {available_codes()}"
        ) from None
    return cls(m, n)

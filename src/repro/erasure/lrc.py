"""Local-reconstruction codes (LRC) over GF(2^8).

A local-reconstruction code splits the ``m`` data blocks into ``L``
*local groups*, each protected by one XOR parity over just its members,
and adds ``g`` *global parities* (Cauchy rows over all data).  Total
``n = m + L + g``.  The payoff is rebuild locality: a single lost data
block is recovered from its group — ``group size`` reads instead of
``m`` reads fleet-wide — while the global parities cover multi-failure
patterns.  This is the Azure-LRC / VDATASIM layout (SNIPPETS.md
Snippet 1: 142 data / 10 local / 2 global) scaled down to simulator
geometries.

Unlike Reed-Solomon, an LRC is **not** MDS: some ``m``-subsets of the
``n`` blocks are undecodable (e.g. a group's data plus its own parity
are linearly dependent).  Decoding therefore cannot truncate to the
first ``m`` survivors; it greedily selects a rank-``m`` row basis from
*all* survivors, preferring data rows, then local parities, then global
parities — so a single-group failure decodes through the local path and
multi-failures fall back to the global rows.  Row selection over the
generator matroid is greedy-optimal, so the preference order is honored
exactly.

Block layout (1-based, process ``j`` stores block ``j``):

* ``1 .. m`` — data blocks, partitioned into ``L`` balanced groups;
* ``m+1 .. m+L`` — local parities (XOR of group ``0 .. L-1``);
* ``m+L+1 .. n`` — global parities (Cauchy rows).

Registered in the factory as ``"lrc"``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CodingError
from ..types import Block
from . import kernels
from .cache import BoundedLRU
from .gf256 import GF256
from .matrix import cauchy, identity, invert, rank, submatrix
from .reed_solomon import ReedSolomonCode

__all__ = ["LRCCode", "split_parity"]


def split_parity(parity_count: int) -> Tuple[int, int]:
    """Default ``(local, global)`` split of a parity budget.

    Mirrors the common LRC deployments (and the VDATASIM exemplar):
    roughly half the parity budget buys locality, half buys global
    fault tolerance, with the local side winning the odd parity.  The
    split keeps ``local <= global + 2``, which guarantees that any
    failure pattern within the code's campaign tolerance
    ``(n - m) // 2`` stays decodable (at most one loss per group is
    repaired locally; the rest lean on the globals).
    """
    if parity_count < 1:
        raise CodingError(f"LRC needs at least one parity block, got {parity_count}")
    global_parities = parity_count // 2
    return parity_count - global_parities, global_parities


class LRCCode(ReedSolomonCode):
    """``m``-of-``n`` local-reconstruction code.

    Args:
        m: data blocks per stripe.
        n: total blocks (``m`` data + ``local_groups`` local parities +
            ``global_parities`` global parities).
        local_groups: number of local parity groups ``L``; defaults to
            :func:`split_parity` of the parity budget.
        global_parities: number of global parities ``g``; must satisfy
            ``L + g == n - m``.
    """

    def __init__(
        self,
        m: int,
        n: int,
        *,
        local_groups: Optional[int] = None,
        global_parities: Optional[int] = None,
    ) -> None:
        if n > GF256.ORDER:
            raise CodingError(f"LRC over GF(2^8) requires n <= 256, got {n}")
        parity = n - m
        if local_groups is None and global_parities is None:
            local_groups, global_parities = split_parity(parity)
        elif local_groups is None:
            local_groups = parity - int(global_parities)
        elif global_parities is None:
            global_parities = parity - int(local_groups)
        local_groups = int(local_groups)
        global_parities = int(global_parities)
        if local_groups < 1:
            raise CodingError(f"LRC needs >= 1 local group, got {local_groups}")
        if global_parities < 0:
            raise CodingError(f"global parity count must be >= 0, got {global_parities}")
        if local_groups + global_parities != parity:
            raise CodingError(
                f"parity split L={local_groups} + g={global_parities} "
                f"must equal n - m = {parity}"
            )
        if local_groups > m:
            raise CodingError(
                f"cannot split m={m} data blocks into L={local_groups} groups"
            )
        # Run the grandparent's validation, then build the LRC generator
        # instead of the Vandermonde one.
        super(ReedSolomonCode, self).__init__(m, n)
        self._local_groups_count = local_groups
        self._global_parities = global_parities
        self._groups = self._balanced_groups(m, local_groups)
        self._group_of_data = {}
        for gid, members in enumerate(self._groups):
            for index in members:
                self._group_of_data[index] = gid
        self._generator = self._build_generator()
        # Decode plans (chosen rows + inverted matrix) per survivor set.
        self._decode_cache: BoundedLRU[frozenset, tuple] = BoundedLRU(
            lambda: self.DECODE_CACHE_SIZE
        )

    @staticmethod
    def _balanced_groups(m: int, count: int) -> Tuple[Tuple[int, ...], ...]:
        """Partition data indices ``1..m`` into ``count`` contiguous groups.

        Sizes differ by at most one (the first ``m % count`` groups get
        the extra member), matching the balanced Dnode assignment of the
        VDATASIM exemplar.
        """
        base, extra = divmod(m, count)
        groups: List[Tuple[int, ...]] = []
        start = 1
        for gid in range(count):
            size = base + (1 if gid < extra else 0)
            groups.append(tuple(range(start, start + size)))
            start += size
        return tuple(groups)

    def _build_generator(self) -> np.ndarray:
        generator = np.zeros((self.n, self.m), dtype=np.uint8)
        generator[: self.m, :] = identity(self.m)
        for gid, members in enumerate(self._groups):
            for index in members:
                generator[self.m + gid, index - 1] = 1
        if self._global_parities:
            generator[self.m + self._local_groups_count :, :] = cauchy(
                self._global_parities, self.m
            )
        return generator

    # -- topology accessors --------------------------------------------

    @property
    def local_group_count(self) -> int:
        """Number of local parity groups ``L``."""
        return self._local_groups_count

    @property
    def global_parity_count(self) -> int:
        """Number of global parity blocks ``g``."""
        return self._global_parities

    @property
    def local_groups(self) -> Tuple[Tuple[int, ...], ...]:
        """Data indices per local group (1-based)."""
        return self._groups

    @property
    def local_group_size(self) -> int:
        """Reads needed for a worst-case local repair: the largest
        group's data count plus its parity."""
        return max(len(members) for members in self._groups) + 1

    def local_parity_index(self, group: int) -> int:
        """Block index of group ``group``'s local parity."""
        if not 0 <= group < self._local_groups_count:
            raise CodingError(f"group {group} out of range 0..{self._local_groups_count - 1}")
        return self.m + 1 + group

    def group_of(self, index: int) -> Optional[int]:
        """Local group id of a block, or ``None`` for global parities."""
        if 1 <= index <= self.m:
            return self._group_of_data[index]
        if self.m < index <= self.m + self._local_groups_count:
            return index - self.m - 1
        if index <= self.n:
            return None
        raise CodingError(f"block index {index} out of range 1..{self.n}")

    # -- repair planning -----------------------------------------------

    def recovery_sources(
        self, failed: int, available: Optional[Iterable[int]] = None
    ) -> List[int]:
        """The cheapest read set that reconstructs block ``failed``.

        Prefers the failed block's local group (group data + local
        parity — at most :attr:`local_group_size` reads); falls back to
        any rank-``m`` survivor basis when the local path is itself
        degraded.  Raises :class:`CodingError` when the available blocks
        cannot reconstruct the failure.
        """
        if not 1 <= failed <= self.n:
            raise CodingError(f"block index {failed} out of range 1..{self.n}")
        if available is None:
            up = set(range(1, self.n + 1)) - {failed}
        else:
            up = set(available) - {failed}
        group = self.group_of(failed)
        if group is not None:
            members = set(self._groups[group]) | {self.local_parity_index(group)}
            local = members - {failed}
            if local <= up:
                return sorted(local)
        # Global fallback: a decodable basis reconstructs everything.
        plan = self._decode_plan(frozenset(index for index in up if index <= self.n))
        return sorted(plan[0])

    def reconstruct(self, failed: int, sources: Dict[int, Block]) -> Block:
        """Rebuild one lost block from a read set.

        The local path needs only the failed block's group: every block
        in ``group data + local parity`` is the XOR of the others, so a
        single loss repairs from at most :attr:`local_group_size` reads
        — this is the whole point of the code.  When the local set is
        incomplete the method falls back to a full decode (which needs a
        rank-``m`` survivor set) and re-encodes the failed block.

        Args:
            failed: 1-based index of the lost block.
            sources: surviving blocks by index (``failed`` excluded).
        """
        if failed in sources:
            raise CodingError(f"block {failed} is both failed and a source")
        group = self.group_of(failed)
        if group is not None:
            members = set(self._groups[group]) | {self.local_parity_index(group)}
            local = members - {failed}
            if local and local <= set(sources):
                result: Optional[Block] = None
                for index in sorted(local):
                    block = sources[index]
                    result = (
                        bytes(block)
                        if result is None
                        else kernels.xor(result, block)
                    )
                return result
        data = self.decode(sources)
        if failed <= self.m:
            return data[failed - 1]
        row = self._generator[failed - 1 : failed, :]
        return kernels.matmul(row, data)[0]

    def verify_tolerance(self, failures: int) -> None:
        """Exhaustively check all ``<= failures`` erasure patterns decode.

        Raises :class:`CodingError` naming the first undecodable
        pattern.  Exponential in ``n`` — intended for construction-time
        validation of simulator-scale geometries, not datacenter ones.
        """
        all_indices = range(1, self.n + 1)
        for count in range(1, failures + 1):
            for lost in itertools.combinations(all_indices, count):
                survivors = frozenset(set(all_indices) - set(lost))
                rows = [self._generator[index - 1] for index in survivors]
                if rank(np.array(rows, dtype=np.uint8)) < self.m:
                    raise CodingError(
                        f"LRC(m={self.m}, n={self.n}, L={self._local_groups_count}, "
                        f"g={self._global_parities}) cannot decode after losing {lost}"
                    )

    # -- decode ---------------------------------------------------------

    def is_decodable(self, indices: Iterable[int]) -> bool:
        """Rank check: LRC ``m``-subsets can be linearly dependent.

        A group's data plus its own XOR parity span less than their
        count, so (unlike MDS codes) counting indices is not enough;
        readers use this to pick target sets that will actually decode.
        """
        valid = frozenset(index for index in indices if 1 <= index <= self.n)
        if len(valid) < self.m:
            return False
        try:
            self._decode_plan(valid)
        except CodingError:
            return False
        return True

    def decode(self, blocks: Dict[int, Block]) -> List[Block]:
        self._check_decode_args(blocks)
        # Fast path: all m data blocks survived.
        if all(index in blocks for index in range(1, self.m + 1)):
            return [bytes(blocks[index]) for index in range(1, self.m + 1)]
        chosen, decode_matrix = self._decode_plan(frozenset(blocks))
        return kernels.matmul(decode_matrix, [blocks[i] for i in chosen])

    def _decode_plan(
        self, survivors: frozenset
    ) -> Tuple[Tuple[int, ...], np.ndarray]:
        """Pick a rank-``m`` survivor basis and its inverted matrix.

        Greedy in preference order — surviving data rows, then local
        parities of groups with missing data, then the remaining local
        parities, then globals.  Because generator-row independence is a
        matroid, the greedy choice always finds a basis when one exists
        and never spends a global row where a local one suffices.
        """

        def build() -> Tuple[Tuple[int, ...], np.ndarray]:
            degraded = {
                self._group_of_data[index]
                for index in range(1, self.m + 1)
                if index not in survivors
            }

            def preference(index: int) -> Tuple[int, int]:
                if index <= self.m:
                    return (0, index)
                if index <= self.m + self._local_groups_count:
                    group = index - self.m - 1
                    return (1 if group in degraded else 2, index)
                return (3, index)

            chosen: List[int] = []
            basis: List[np.ndarray] = []
            for index in sorted(survivors, key=preference):
                candidate = basis + [self._generator[index - 1]]
                if rank(np.array(candidate, dtype=np.uint8)) > len(basis):
                    basis = candidate
                    chosen.append(index)
                    if len(chosen) == self.m:
                        break
            if len(chosen) < self.m:
                raise CodingError(
                    f"survivors {sorted(survivors)} span rank {len(chosen)} < "
                    f"m={self.m}; stripe unrecoverable under this LRC layout"
                )
            rows = [index - 1 for index in chosen]
            return tuple(chosen), invert(submatrix(self._generator, rows))

        return self._decode_cache.get_or_compute(survivors, build)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LRCCode(m={self.m}, n={self.n}, "
            f"L={self._local_groups_count}, g={self._global_parities}, "
            f"groups={self._groups})"
        )

"""Logical-volume coordinator failover (client multipathing)."""

import pytest

from repro import LogicalVolume
from repro.core.messages import OrderReadReq, WriteReq
from repro.errors import StorageError
from repro.sim.failures import MessageCountTrigger
from tests.conftest import block_of, make_cluster, stripe_of


class TestFailover:
    def test_read_fails_over_when_coordinator_dies_midway(self):
        cluster = make_cluster(m=3, n=5)
        volume = LogicalVolume(cluster, num_stripes=2, route=1)
        data = block_of(32, tag=1)
        volume.write(0, data)
        # Crash coordinator 1 after its next Order&Read fan-out begins.
        MessageCountTrigger(cluster.network, cluster.nodes[1], 2, OrderReadReq)
        # A write via brick 1 dies mid-operation; the volume must retry
        # through another brick and still succeed.
        result = volume.write(0, block_of(32, tag=2))
        assert result == "OK"
        assert not cluster.nodes[1].is_up
        assert volume.read(0) == block_of(32, tag=2)

    def test_preferred_coordinator_down_uses_first_live(self):
        cluster = make_cluster(m=3, n=5)
        volume = LogicalVolume(cluster, num_stripes=2, route=1)
        cluster.crash(1)
        data = block_of(32, tag=3)
        assert volume.write(0, data) == "OK"
        assert volume.read(0) == data

    def test_explicit_pid_down_falls_back(self):
        cluster = make_cluster(m=3, n=5)
        volume = LogicalVolume(cluster, num_stripes=2)
        cluster.crash(4)
        assert volume.write(1, block_of(32, tag=4), route=4) == "OK"

    def test_failover_preserves_strictness(self):
        """The first coordinator's partial write and the retried write
        must not leave mixed state visible."""
        cluster = make_cluster(m=3, n=5)
        volume = LogicalVolume(cluster, num_stripes=1, route=1)
        original = block_of(32, tag=5)
        volume.write(0, original)
        MessageCountTrigger(cluster.network, cluster.nodes[1], 2, WriteReq)
        replacement = block_of(32, tag=6)
        result = volume.write(0, replacement)
        assert result == "OK"
        # Every subsequent read agrees.
        first = volume.read(0)
        assert first == replacement
        for pid in (2, 3, 4, 5):
            assert volume.read(0, route=pid) == first

    def test_gives_up_after_bounded_attempts(self):
        cluster = make_cluster(m=3, n=5, op_timeout=30.0)
        volume = LogicalVolume(cluster, num_stripes=1)
        volume._MAX_FAILOVERS = 2
        for pid in (3, 4, 5):
            cluster.crash(pid)  # below quorum: every attempt aborts...
        # ...but aborts are returned, not retried; kill coordinators so
        # attempts raise Interrupt instead.
        from repro.types import ABORT

        assert volume.read(0) is ABORT  # op_timeout turns it into abort

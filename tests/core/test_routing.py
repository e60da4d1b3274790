"""RouteOptions / resolve_route: the one way to pick a coordinator."""

import pytest

from repro import LogicalVolume, RouteOptions
from repro.core.routing import DEFAULT_ROUTE, pinned_coordinator, resolve_route
from repro.errors import ConfigurationError, StorageError
from tests.conftest import block_of, make_cluster


def test_route_options_defaults_and_pinning():
    assert RouteOptions() == RouteOptions(coordinator=None, failover=True)
    assert not RouteOptions().pinned()
    assert RouteOptions(coordinator=3).pinned()
    with pytest.raises(AttributeError):  # frozen
        RouteOptions().coordinator = 2


def test_resolve_route_forms():
    explicit = RouteOptions(coordinator=4, failover=False)
    assert resolve_route(explicit) is explicit
    assert resolve_route(5) == RouteOptions(coordinator=5)
    assert resolve_route(None) is DEFAULT_ROUTE
    fallback = RouteOptions(coordinator=2)
    assert resolve_route(None, default=fallback) is fallback
    with pytest.raises(ConfigurationError):
        resolve_route("brick-3")


def test_pinned_coordinator_falls_back_to_default():
    assert pinned_coordinator(None) == 1
    assert pinned_coordinator(3) == 3
    assert pinned_coordinator(RouteOptions(coordinator=2)) == 2
    assert pinned_coordinator(RouteOptions(failover=False), default=4) == 4


def test_volume_ops_accept_route(cluster):
    volume = LogicalVolume(cluster, num_stripes=4)
    data = block_of(32, 1)
    assert volume.write(0, route=RouteOptions(coordinator=2), data=data) == "OK"
    assert volume.read(0, route=3) == data
    assert volume.read(0, RouteOptions(coordinator=4)) == data


def test_volume_default_route_from_constructor(cluster):
    volume = LogicalVolume(
        cluster, num_stripes=4, route=RouteOptions(coordinator=3)
    )
    assert volume.route == RouteOptions(coordinator=3)
    assert volume.write(0, block_of(32, 3)) == "OK"
    assert LogicalVolume(cluster, num_stripes=4, route=2).route == RouteOptions(
        coordinator=2
    )
    unpinned = LogicalVolume(
        cluster, num_stripes=4, route=RouteOptions(failover=False)
    )
    assert unpinned.route == RouteOptions(coordinator=1, failover=False)


def test_cluster_register_accepts_route(cluster):
    register = cluster.register(0, route=RouteOptions(coordinator=4))
    assert register.coordinator is cluster.coordinator(4)
    register = cluster.register(0, route=2)
    assert register.coordinator is cluster.coordinator(2)


def test_failover_disabled_surfaces_crash_on_sync_ops():
    cluster = make_cluster()
    volume = LogicalVolume(cluster, num_stripes=2)
    volume.write(0, block_of(32, 5))

    def crash_soon(env):
        yield env.timeout(1.0)
        cluster.crash(2)

    cluster.env.process(crash_soon(cluster.env))
    pinned = RouteOptions(coordinator=2, failover=False)
    with pytest.raises(StorageError, match="failover is disabled"):
        volume.read(0, route=pinned)
    # With failover back on, the same read succeeds elsewhere.
    assert volume.read(0, route=RouteOptions(coordinator=2)) == block_of(32, 5)

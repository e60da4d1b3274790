#!/usr/bin/env python3
"""Operating a FAB: scrub, lose a brick, rebuild, verify.

The reliability numbers of the paper's Figures 2-3 hinge on repair:
data on a dead brick must be re-protected quickly (we model ~6 hours
for a distributed rebuild).  This example walks the operational loop:

1. fill a volume;
2. lose a brick and keep serving writes (redundancy silently degrades);
3. scrub — see exactly which stripes run with a reduced failure margin;
4. rebuild — recovery-with-full-coverage per stripe;
5. verify the margin is back by failing a *different* brick.

Run:  python examples/scrub_and_rebuild.py
"""

from repro import ClusterConfig, FabCluster, LogicalVolume
from repro.core.rebuild import Rebuilder, Scrubber

BLOCK = 256
STRIPES = 12


def fill(volume: LogicalVolume, tag: str) -> None:
    for block in range(volume.num_blocks):
        payload = (f"{tag}:{block}:".encode() * BLOCK)[:BLOCK]
        assert volume.write(block, payload) == "OK"


def main() -> None:
    cluster = FabCluster(ClusterConfig(m=3, n=5, block_size=BLOCK))
    volume = LogicalVolume(cluster, num_stripes=STRIPES)
    scrubber = Scrubber(cluster)
    print(f"cluster {cluster}")

    print("\n[1] filling the volume...")
    fill(volume, "gen1")
    reports = scrubber.scrub(range(STRIPES))
    print(f"    scrub: {sum(r.fully_redundant for r in reports)}/{STRIPES} "
          f"stripes fully redundant")

    print("\n[2] brick 4 dies; writes continue...")
    cluster.crash(4)
    fill(volume, "gen2")

    print("\n[3] brick 4 returns; scrubbing...")
    cluster.recover(4)
    stale = scrubber.stale_registers(range(STRIPES))
    print(f"    {len(stale)} stripes have a stale replica on brick 4")
    margins = [scrubber.scrub_register(r).redundancy for r in range(STRIPES)]
    print(f"    redundancy margin per stripe: min={min(margins)} "
          f"(healthy = {cluster.config.n})")

    print("\n[4] rebuilding...")
    report = Rebuilder(cluster, route=1).rebuild(range(STRIPES))
    print(f"    repaired={report.repaired} already-current="
          f"{report.already_current} aborted={report.aborted}")
    assert report.success
    stale = scrubber.stale_registers(range(STRIPES))
    print(f"    stale stripes after rebuild: {len(stale)}")

    print("\n[5] proving the margin: failing brick 5 instead...")
    cluster.crash(5)
    sample = [0, STRIPES - 1, volume.num_blocks - 1]
    ok = all(
        volume.read(block) is not None for block in
        range(volume.num_blocks)
    )
    print(f"    all {volume.num_blocks} blocks readable with brick 5 down: {ok}")
    print("\ndone: the rebuilt brick 4 carries the load brick 5 left behind.")


if __name__ == "__main__":
    main()

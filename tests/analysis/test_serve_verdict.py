"""The serve verdict counts the operations it checked, not only blocks."""

from repro import api
from repro.analysis.serve import _verify_linearizable
from repro.core.client import RetryPolicy


def _session(crashed_bricks: int):
    volume = api.open_volume(m=3, n=5, blocks=6)
    for pid in sorted(volume.cluster.nodes)[:crashed_bricks]:
        volume.cluster.crash(pid)
    session = volume.session(
        retry=RetryPolicy(attempts=1, attempt_timeout=50.0, max_failovers=0)
    )
    session.submit_write(0, b"x" * volume.block_size)
    session.submit_read(0)
    session.drain()
    return session


def test_session_with_every_op_failed_is_not_linearizable():
    """A history in which nothing completed checks nothing: it must not
    read as a pass, however many blocks it touched."""
    session = _session(crashed_bricks=4)
    assert all(not op.ok for op in session.ops)
    assert _verify_linearizable([session]) == (False, 1, 0)


def test_healthy_session_counts_every_completed_op():
    session = _session(crashed_bricks=0)
    assert all(op.ok for op in session.ops)
    assert _verify_linearizable([session]) == (True, 1, 2)

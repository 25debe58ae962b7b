"""The error a failed scatter leg raises stays inside the package's hierarchy.

A shard leg that fails surfaces a :class:`~repro.errors.ShardWorkerError`
naming the shard; callers that catch :class:`~repro.errors.ReproError` to
tell the package's own failures from programming errors must catch it too.
"""

from __future__ import annotations

from repro.errors import ShardWorkerError


class TestWorkerFailure:
    def test_crash_error_is_a_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(ShardWorkerError, ReproError)

"""Exception hierarchy for the ranking-cube library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  Errors carry enough context to be actionable —
the offending dimension name, page id, or query fragment.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A relation schema is inconsistent or a referenced column is unknown."""


class QueryError(ReproError):
    """A query references unknown dimensions or is otherwise malformed."""


class StorageError(ReproError):
    """Low-level storage failure (unknown page, corrupted node, ...)."""


class PageNotFoundError(StorageError):
    """A page id was requested that was never allocated or was freed."""

    def __init__(self, page_id: int) -> None:
        super().__init__(f"page {page_id} does not exist")
        self.page_id = page_id


class IndexError_(ReproError):
    """An index structure was used inconsistently (duplicate build, etc.)."""


class CubeError(ReproError):
    """Ranking-cube construction or lookup failure."""


class SignatureError(ReproError):
    """Signature encoding/decoding or assembly failure."""


class EncodingError(SignatureError):
    """A signature node could not be encoded or decoded."""


class PlanningError(QueryError):
    """The engine planner found no registered backend able to serve a query."""


class ShardWorkerError(ReproError):
    """A shard's scatter leg failed (worker died, hung, or misbehaved).

    Raised by the scatter layer instead of hanging on a dead or wedged
    pipe; the message names the shard (and exit code, for a death) so
    the failure is actionable.  The dead worker is discarded — the next
    scatter leg to that shard respawns a fresh one.

    ``shard_index`` names the failing shard (``None`` when unknown) and
    ``timed_out`` distinguishes a *hung* worker killed by the bounded
    pipe ``recv`` from a worker that died on its own — callers deciding
    whether to retry can treat a wedge differently from a crash.
    """

    def __init__(self, message: str, *, shard_index=None,
                 timed_out: bool = False) -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.timed_out = timed_out


class DeadlineExceededError(ReproError):
    """A per-request deadline elapsed while the query was executing.

    Raised by the scatter layer when the deadline riding a request
    expires between (or inside) scatter legs; the serving layer maps it
    to its own :class:`~repro.serve.errors.RequestTimeoutError`.
    """


class PartialBatchError(ReproError):
    """Some queries of an ``execute_many`` batch failed; the rest completed.

    Fused-batch failure containment: a scatter leg failing for one fused
    group fails only that group's queries, never the whole batch.
    ``results`` is aligned with the submitted batch (``None`` at failed
    positions) and ``errors`` maps each failed position to the exception
    that sank it, so callers — the serving layer's dispatcher above all —
    can resolve every query individually instead of stranding or failing
    the survivors.
    """

    def __init__(self, results, errors) -> None:
        failed = ", ".join(str(i) for i in sorted(errors))
        super().__init__(
            f"{len(errors)} of {len(results)} batch queries failed "
            f"(positions {failed}); the remaining results are attached")
        self.results = results
        self.errors = errors

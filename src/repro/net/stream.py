"""The streaming frame contract shared by the server and the client.

A streamed query is a sequence of newline-delimited JSON frames (the chunks
of one HTTP response):

* ``{"frame": "prefix", "start": r, "entries": [[tid, score], ...]}`` —
  ranks ``r .. r+len(entries)-1`` of the final answer, already *proven*
  (the engine emits a prefix only once no unseen tuple can change it —
  see :meth:`repro.cube.query.TopKAccumulator.verified_count`); frames
  arrive in rank order with no gaps or overlaps.  A frame holds a handful
  of entries, so its scores are plain JSON numbers, not packed;
* ``{"frame": "final", "result": {...}}`` — exactly one, last, carrying
  the full result envelope of :func:`repro.net.protocol.encode_result`
  (``"scores"`` packed, like every result envelope); its leading
  ``(tid, score)`` pairs repeat every streamed prefix bit-identically
  (the wire-parity suite enforces this), so a client may simply keep the
  final frame and discard the prefixes;
* ``{"frame": "error", "error": {...}}`` — terminal failure, same typed
  envelope as a non-streaming error response.

:class:`StreamAssembler` is the client-side consistency check: it folds
frames in arrival order and verifies the prefix/final agreement instead
of trusting it.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from repro.net.protocol import (
    ProtocolError,
    decode_error,
    decode_result,
    encode_error,
    encode_result,
)


def prefix_frame(start: int, entries) -> dict:
    return {"frame": "prefix", "start": int(start),
            "entries": [[int(tid), float(score)] for tid, score in entries]}


def final_frame(result) -> dict:
    return {"frame": "final", "result": encode_result(result)}


def error_frame(exc: Exception) -> dict:
    return {"frame": "error", "error": encode_error(exc)["error"]}


class StreamAssembler:
    """Folds a frame sequence back into ``(result, prefix pairs)``.

    Feeds on decoded JSON objects; :meth:`feed` returns ``True`` when the
    stream is complete.  A ``final`` frame whose leading pairs disagree
    with the streamed prefixes — or gapped/overlapping prefixes — raise
    :class:`~repro.net.protocol.ProtocolError`: a server bug surfaced
    loudly rather than silently served.
    """

    def __init__(self) -> None:
        self.pairs: List[Tuple[int, float]] = []
        self.result = None
        self.error: Optional[Exception] = None
        self.done = False

    def feed(self, frame: Mapping) -> bool:
        if self.done:
            raise ProtocolError("frame after the stream completed")
        if not isinstance(frame, Mapping) or "frame" not in frame:
            raise ProtocolError("stream frames must be objects with 'frame'")
        kind = frame["frame"]
        if kind == "prefix":
            start = int(frame["start"])
            if start != len(self.pairs):
                raise ProtocolError(
                    f"prefix frame starts at rank {start}, expected "
                    f"{len(self.pairs)} (gap or overlap)")
            for entry in frame["entries"]:
                tid, score = entry
                self.pairs.append((int(tid), float(score)))
            return False
        if kind == "final":
            result = decode_result(frame["result"])
            got = tuple(zip(result.tids, result.scores))[:len(self.pairs)]
            if got != tuple(self.pairs):
                raise ProtocolError(
                    "final frame disagrees with the streamed prefixes")
            self.result = result
            self.done = True
            return True
        if kind == "error":
            self.error = decode_error({"error": frame["error"]},
                                      int(frame["error"].get("status", 500)))
            self.done = True
            return True
        raise ProtocolError(f"unknown frame kind {kind!r}")


__all__ = ["StreamAssembler", "error_frame", "final_frame", "prefix_frame"]

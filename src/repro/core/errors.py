"""Exception hierarchy for the Desis reproduction.

All exceptions raised by this package derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
letting programming errors (``TypeError`` and friends) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "QueryError",
    "WindowError",
    "EngineError",
    "OutOfOrderError",
    "NaNValueError",
    "TopologyError",
    "CodecError",
    "ClusterError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class QueryError(ReproError):
    """An invalid query specification (bad window parameters, bad function)."""


class WindowError(ReproError):
    """Invalid window bookkeeping request (unknown window, bad punctuation)."""


class EngineError(ReproError):
    """The aggregation engine was driven incorrectly (e.g. reused after close)."""


class OutOfOrderError(EngineError):
    """An event arrived with a timestamp older than the stream's progress.

    The paper's evaluation replays in-order streams; the engine checks this
    invariant instead of silently producing wrong windows.
    """


class NaNValueError(EngineError, ValueError):
    """A NaN value was offered to the stream, which refuses it where a
    value enters (:mod:`repro.core.event`).  A ``ValueError`` too, so a
    decoder reports a frame holding one as corrupt.
    """


class TopologyError(ReproError):
    """The decentralized topology is malformed (cycles, orphans, no root)."""


class CodecError(ReproError):
    """A message could not be encoded or decoded."""


class ClusterError(ReproError):
    """A cluster-level operation failed (unknown node, duplicate query id)."""

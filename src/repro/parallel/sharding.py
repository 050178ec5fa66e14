"""Key → shard routing for multi-core sharded execution (DESIGN.md §13).

The routing function must be:

* **stable across processes** — Python's builtin ``hash`` is salted per
  interpreter (``PYTHONHASHSEED``), so it would route the same key to
  different shards in the parent and a worker; ``zlib.crc32`` is defined
  by its polynomial and identical everywhere;
* **cheap** — the parent runs it once per distinct key per session, on
  its routing pass;
* **well-spread** — crc32 of short ASCII keys distributes uniformly
  enough that the per-key workload imbalance stays within a few percent
  for the evaluation's key cardinalities.
"""

from __future__ import annotations

import zlib

__all__ = ["shard_of"]


def shard_of(key: str, shards: int) -> int:
    """The shard that owns ``key`` out of ``shards`` workers."""
    return zlib.crc32(key.encode("utf-8")) % shards

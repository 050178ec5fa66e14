"""The root holds only what an open window still reads.

Cells are read by fixed windows alone, so an open session or trip must
not pin them: the peak number of live cells stays at what the fixed
windows of the group span, however long a session stays open.  A trip
takes its partials on arrival, so the root keeps no buffer of raw slice
records either.  Each run's rows are pinned, so freeing earlier cannot
change what the root emits.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction
from repro.cluster import ClusterConfig, DesisCluster
from repro.cluster.root import RootAssembler
from repro.network.topology import three_tier

from tests.cluster.test_desis_parity import make_streams

SESSION = Query.of("ses", WindowSpec.session(gap=400), AggFunction.MAX)

#: name -> (queries, marker_every, peak live cells allowed, rows, sha256
#: of the rows' reprs in order)
CASES = {
    "tumbling+session": (
        [Query.of("tum", WindowSpec.tumbling(1_000), AggFunction.SUM), SESSION],
        None, 2,
        108, "a2e30bd51667f028bc2d9220cf6baeaa14ac0f1c1f8a10b657120abe616221be",
    ),
    "sliding+session": (
        [Query.of("sld", WindowSpec.sliding(1_000, 100), AggFunction.SUM),
         SESSION],
        None, 12,
        1068, "bb4eeccc1ce4b9a3df28598feef7f8e4ab6f53799b5d0c13a80f8e1f2b89ad93",
    ),
    "tumbling+trip": (
        [Query.of("tum", WindowSpec.tumbling(1_000), AggFunction.SUM),
         Query.of("trip", WindowSpec.user_defined(end_marker="end"),
                  AggFunction.SUM)],
        5_000, 2,
        115, "4b05b1e559233936f509c4db7d99882a5aa97b52bda173f84d4594f3574136ae",
    ),
}


def run(queries, marker_every):
    """``(rows, peak live cells, assemblers)`` of one seeded run."""
    peak = 0
    gc = RootAssembler._gc

    def counting_gc(assembler):
        nonlocal peak
        gc(assembler)
        peak = max(peak, len(assembler.cells))

    cluster = DesisCluster(
        queries, three_tier(2, 1), config=ClusterConfig(tick_interval=100)
    )
    assert len(cluster.plan.groups) == 1
    streams = make_streams(2, 20_000, marker_every=marker_every)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RootAssembler, "_gc", counting_gc)
        result = cluster.run(streams)
    rows = [
        repr((r.query_id, r.start, r.end, r.event_count, r.value))
        for r in result.sink
    ]
    return rows, peak, cluster.root.assemblers


@pytest.mark.parametrize("name", list(CASES))
def test_peak_live_cells_are_bounded(name):
    queries, marker_every, bound, n_rows, digest = CASES[name]
    rows, peak, assemblers = run(queries, marker_every)
    assert peak <= bound
    # no raw-record buffer beside the cells
    assert all("records" not in vars(assembler) for assembler in assemblers)
    assert (len(rows), hashlib.sha256("\n".join(rows).encode()).hexdigest()) == (
        n_rows, digest,
    )

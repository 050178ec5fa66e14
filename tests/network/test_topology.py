"""Tests for topology construction and runtime membership changes."""

from __future__ import annotations

import pytest

from repro.core.errors import TopologyError
from repro.core.types import NodeRole
from repro.network.topology import Topology, chain, star, three_tier


class TestBuilders:
    def test_star(self):
        topo = star(3)
        assert topo.root == "root"
        assert topo.locals_() == ["local-0", "local-1", "local-2"]
        assert topo.intermediates() == []
        assert topo.children("root") == ["local-0", "local-1", "local-2"]
        assert topo.hops_to_root("local-1") == 1

    def test_three_tier(self):
        topo = three_tier(4, 2)
        assert topo.intermediates() == ["mid-0", "mid-1"]
        assert topo.parent("local-0") == "mid-0"
        assert topo.parent("local-1") == "mid-1"
        assert topo.hops_to_root("local-0") == 2

    def test_chain(self):
        topo = chain(2, hops=3)
        assert topo.hops_to_root("local-0") == 4
        assert len(topo.intermediates()) == 3

    def test_chain_zero_hops_is_star(self):
        assert chain(2, hops=0).intermediates() == []

    @pytest.mark.parametrize(
        "bad", [lambda: star(0), lambda: three_tier(0), lambda: chain(1, -1)]
    )
    def test_invalid_builders(self, bad):
        with pytest.raises(TopologyError):
            bad()


class TestValidation:
    def test_unknown_parent_rejected(self):
        with pytest.raises(TopologyError):
            Topology(root="r", parents={"a": "ghost"})

    def test_cycle_rejected(self):
        with pytest.raises(TopologyError):
            Topology(root="r", parents={"a": "b", "b": "a"})

    def test_second_root_role_rejected(self):
        with pytest.raises(TopologyError):
            Topology(
                root="r",
                parents={"a": "r"},
                roles={"a": NodeRole.ROOT},
            )


class TestMembership:
    def test_add_and_remove_local(self):
        topo = star(2)
        topo.add_node("local-9", "root", NodeRole.LOCAL)
        assert "local-9" in topo.locals_()
        topo.remove_node("local-9")
        assert "local-9" not in topo.nodes()

    def test_remove_intermediate_reattaches_children(self):
        topo = three_tier(2, 1)
        topo.remove_node("mid-0")
        assert topo.parent("local-0") == "root"
        assert topo.parent("local-1") == "root"
        topo.validate()

    def test_remove_root_rejected(self):
        with pytest.raises(TopologyError):
            star(1).remove_node("root")

    def test_duplicate_add_rejected(self):
        topo = star(1)
        with pytest.raises(TopologyError):
            topo.add_node("local-0", "root", NodeRole.LOCAL)

    def test_payload_roundtrip(self):
        topo = three_tier(3, 2)
        clone = Topology.from_payload(topo.to_payload())
        assert clone.parents == topo.parents
        assert clone.roles == topo.roles
        assert clone.root == topo.root

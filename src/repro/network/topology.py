"""Decentralized network topologies (Sec 2.4).

A topology is a tree: one root, any number of intermediate layers, and
local nodes at the leaves where data streams arrive.  Builders cover the
shapes used in the evaluation:

* :func:`star` — locals connect directly to the root (minimal topology).
* :func:`three_tier` — locals → intermediates → root (the scalability
  experiments use one intermediate; Fig 7a).
* :func:`chain` — ``hops`` intermediate layers between each local and the
  root (the "complicated topology" of Sec 6.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import TopologyError
from repro.core.types import NodeRole

__all__ = ["Topology", "star", "three_tier", "chain"]


@dataclass(slots=True)
class Topology:
    """A validated tree of node ids with roles."""

    root: str
    parents: dict[str, str] = field(default_factory=dict)  # child -> parent
    roles: dict[str, NodeRole] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.roles.setdefault(self.root, NodeRole.ROOT)
        self.validate()

    # -- structure ---------------------------------------------------------------

    def validate(self) -> None:
        if self.root in self.parents:
            raise TopologyError("the root node cannot have a parent")
        for child, parent in self.parents.items():
            if parent != self.root and parent not in self.parents:
                raise TopologyError(f"parent {parent!r} of {child!r} is unknown")
        for node in self.parents:
            seen = {node}
            cursor = node
            while cursor != self.root:
                cursor = self.parents[cursor]
                if cursor in seen:
                    raise TopologyError(f"cycle through {cursor!r}")
                seen.add(cursor)
        for node, role in self.roles.items():
            if node != self.root and node not in self.parents:
                raise TopologyError(f"node {node!r} has a role but no parent")
            if role is NodeRole.ROOT and node != self.root:
                raise TopologyError(f"{node!r} claims the root role")

    def children(self, node: str) -> list[str]:
        return sorted(
            child for child, parent in self.parents.items() if parent == node
        )

    def nodes(self) -> list[str]:
        return [self.root, *sorted(self.parents)]

    def locals_(self) -> list[str]:
        return [n for n in self.nodes() if self.roles.get(n) is NodeRole.LOCAL]

    def intermediates(self) -> list[str]:
        return [
            n for n in self.nodes() if self.roles.get(n) is NodeRole.INTERMEDIATE
        ]

    def role(self, node: str) -> NodeRole:
        try:
            return self.roles[node]
        except KeyError:
            raise TopologyError(f"unknown node: {node!r}") from None

    def parent(self, node: str) -> str | None:
        if node == self.root:
            return None
        try:
            return self.parents[node]
        except KeyError:
            raise TopologyError(f"unknown node: {node!r}") from None

    def hops_to_root(self, node: str) -> int:
        hops = 0
        cursor = node
        while cursor != self.root:
            cursor = self.parents[cursor]
            hops += 1
        return hops

    # -- runtime membership (Sec 3.2) ----------------------------------------------

    def add_node(self, node: str, parent: str, role: NodeRole) -> None:
        if node in self.parents or node == self.root:
            raise TopologyError(f"node {node!r} already exists")
        if parent != self.root and parent not in self.parents:
            raise TopologyError(f"unknown parent: {parent!r}")
        if role is NodeRole.ROOT:
            raise TopologyError("cannot add a second root")
        self.parents[node] = parent
        self.roles[node] = role

    def remove_node(self, node: str) -> None:
        """Remove a node; children of a removed intermediate reattach to
        the removed node's parent."""
        if node == self.root:
            raise TopologyError("cannot remove the root node")
        if node not in self.parents:
            raise TopologyError(f"unknown node: {node!r}")
        parent = self.parents.pop(node)
        self.roles.pop(node, None)
        for child, child_parent in list(self.parents.items()):
            if child_parent == node:
                self.parents[child] = parent

    def fail_over(self, dead: str) -> tuple[str, list[str]]:
        """Remove a permanently dead intermediate; children move to its
        parent.

        Returns ``(adoptive_parent, orphans)``.  The orphans are adopted
        by the dead node's *parent* (not a sibling): the parent's merger
        already covers exactly what the dead child forwarded, so re-shipped
        suffixes land on the same coverage floor and window emission order
        is preserved; a sibling adoption would splice two coverage frontiers
        and reorder releases.
        """
        if dead == self.root:
            raise TopologyError("cannot fail over the root node")
        if self.roles.get(dead) is not NodeRole.INTERMEDIATE:
            raise TopologyError(f"can only fail over intermediates, not {dead!r}")
        target = self.parents[dead]
        orphans = self.children(dead)
        self.remove_node(dead)
        return target, orphans

    def to_payload(self) -> dict:
        """JSON-compatible form for topology control messages."""
        return {
            "root": self.root,
            "parents": dict(self.parents),
            "roles": {node: role.value for node, role in self.roles.items()},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Topology":
        return cls(
            root=payload["root"],
            parents=dict(payload["parents"]),
            roles={n: NodeRole(r) for n, r in payload["roles"].items()},
        )


def star(n_locals: int, *, root: str = "root") -> Topology:
    """``n_locals`` local nodes connected directly to the root."""
    if n_locals < 1:
        raise TopologyError("need at least one local node")
    parents = {f"local-{i}": root for i in range(n_locals)}
    roles = {f"local-{i}": NodeRole.LOCAL for i in range(n_locals)}
    roles[root] = NodeRole.ROOT
    return Topology(root=root, parents=parents, roles=roles)


def three_tier(n_locals: int, n_intermediates: int = 1, *, root: str = "root") -> Topology:
    """Locals spread round-robin over intermediates, intermediates on root."""
    if n_locals < 1 or n_intermediates < 1:
        raise TopologyError("need at least one local and one intermediate")
    parents: dict[str, str] = {}
    roles: dict[str, NodeRole] = {root: NodeRole.ROOT}
    for j in range(n_intermediates):
        parents[f"mid-{j}"] = root
        roles[f"mid-{j}"] = NodeRole.INTERMEDIATE
    for i in range(n_locals):
        parents[f"local-{i}"] = f"mid-{i % n_intermediates}"
        roles[f"local-{i}"] = NodeRole.LOCAL
    return Topology(root=root, parents=parents, roles=roles)


def chain(n_locals: int, hops: int, *, root: str = "root") -> Topology:
    """``hops`` intermediate layers between every local and the root."""
    if hops < 0:
        raise TopologyError("hops must be non-negative")
    if hops == 0:
        return star(n_locals, root=root)
    parents: dict[str, str] = {}
    roles: dict[str, NodeRole] = {root: NodeRole.ROOT}
    previous = root
    for level in range(hops):
        name = f"mid-{level}"
        parents[name] = previous
        roles[name] = NodeRole.INTERMEDIATE
        previous = name
    for i in range(n_locals):
        parents[f"local-{i}"] = previous
        roles[f"local-{i}"] = NodeRole.LOCAL
    return Topology(root=root, parents=parents, roles=roles)

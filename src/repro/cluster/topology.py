"""Interconnect topologies.

A :class:`Topology` is a small value ``(kind, num_nodes, leaf_radix)`` over
compute nodes ``0..n-1``.  It answers the quantities the communication
model needs — hop counts between compute nodes and the bisection bandwidth
(in links) of the fabric — in closed form, without materializing the
switch graph.

Three constructors cover the systems modelled:

* :func:`star_topology` — every node one hop from a single crossbar switch
  (an adequate model of a small cluster on one InfiniBand switch, like Fire);
* :func:`fat_tree_topology` — two-level fat tree (SystemG-scale machines);
* :func:`ring_topology` — 1-D torus, included for ablation experiments.

The switch graphs these forms describe are spelled out in
``tests/test_cluster_topology.py``, which checks every query against
shortest paths and maximum flow on the explicit graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import SpecError
from ..validation import check_positive_int

__all__ = ["Topology", "star_topology", "fat_tree_topology", "ring_topology"]

#: Fabric kinds a :class:`Topology` can describe.
KINDS = ("star", "fat-tree", "ring")


@dataclass(frozen=True)
class Topology:
    """A named interconnect fabric over ``num_nodes`` compute endpoints.

    Parameters
    ----------
    kind:
        One of :data:`KINDS`.
    num_nodes:
        Compute endpoint count.
    leaf_radix:
        Compute nodes per leaf switch; required for ``"fat-tree"`` and
        ``None`` for the other kinds.

    Equality is plain value equality, so two independently built fabrics
    of the same shape compare (and hash) equal.
    """

    kind: str
    num_nodes: int
    leaf_radix: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SpecError(f"kind must be one of {KINDS}, got {self.kind!r}")
        check_positive_int(self.num_nodes, "num_nodes", exc=SpecError)
        if self.kind == "fat-tree":
            check_positive_int(self.leaf_radix, "leaf_radix", exc=SpecError)
        elif self.leaf_radix is not None:
            raise SpecError(f"leaf_radix applies only to fat-tree, not {self.kind}")

    @property
    def name(self) -> str:
        """Display name, e.g. ``fat-tree(32,radix=16)``."""
        if self.kind == "fat-tree":
            return f"fat-tree({self.num_nodes},radix={self.leaf_radix})"
        return f"{self.kind}({self.num_nodes})"

    @property
    def num_leaves(self) -> int:
        """Leaf switches of a fat tree (1 for the single-switch star)."""
        if self.kind == "fat-tree":
            return -(-self.num_nodes // self.leaf_radix)
        return 1

    def hops(self, a, b):
        """Number of links on the shortest path between compute nodes.

        ``a`` and ``b`` are integers or broadcastable integer arrays; the
        result is an ``int`` or an integer array of the broadcast shape.
        """
        a = self._check_endpoints(a)
        b = self._check_endpoints(b)
        if self.kind == "star":
            return (a != b) * 2
        if self.kind == "fat-tree":
            r = self.leaf_radix
            return (a != b) * (2 + 2 * (a // r != b // r))
        d = abs(a - b)
        n = self.num_nodes
        return d - (2 * d - n) * (2 * d > n)  # min(d, n - d)

    def max_hops(self) -> int:
        """Diameter restricted to compute endpoints."""
        n = self.num_nodes
        if n == 1:
            return 0
        if self.kind == "ring":
            return n // 2
        return 4 if self.num_leaves > 1 else 2

    def mean_hops(self) -> float:
        """Mean pairwise hop count over distinct compute endpoints."""
        n = self.num_nodes
        if n == 1:
            return 0.0
        if self.kind == "ring":
            # each node sees sum_{d=1}^{n-1} min(d, n-d) = floor(n^2/4)
            return (n * n // 4) / (n - 1)
        if self.kind == "star":
            return 2.0
        pairs = n * (n - 1) // 2
        full, rem = divmod(n, self.leaf_radix)
        same_leaf = full * self.leaf_radix * (self.leaf_radix - 1) // 2 + rem * (rem - 1) // 2
        return (4 * pairs - 2 * same_leaf) / pairs

    def bisection_links(self) -> int:
        """Minimum number of links cut to split compute nodes in half.

        The halves are ``[0, n//2)`` and ``[n//2, n)``; the value is the
        maximum flow between them, which upper-bounds all-to-all
        throughput.
        """
        n = self.num_nodes
        if n == 1:
            return 0
        if self.kind == "ring":
            return 1 if n == 2 else 2
        half = n // 2
        if self.kind == "star":
            return half
        # Per leaf: sources and sinks on the same leaf pair up through the
        # leaf switch; the rest cross the spine over the leaf's uplinks.
        r = self.leaf_radix
        lo = r * np.arange(self.num_leaves)
        size = np.minimum(r, n - lo)
        src = np.clip(half - lo, 0, size)
        dst = size - src
        local = np.minimum(src, dst)
        uplinks = max(1, r // 2)
        up = np.minimum(src - local, uplinks).sum()
        down = np.minimum(dst - local, uplinks).sum()
        return int(local.sum() + min(up, down))

    def _check_endpoints(self, node):
        if isinstance(node, (int, np.integer)):
            if not 0 <= node < self.num_nodes:
                raise SpecError(
                    f"node {node} outside compute endpoints [0, {self.num_nodes})"
                )
            return int(node)
        arr = np.asarray(node)
        if arr.dtype.kind not in "iu":
            raise SpecError(f"endpoints must be integers, got dtype {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.num_nodes):
            raise SpecError(
                f"nodes outside compute endpoints [0, {self.num_nodes})"
            )
        return arr.astype(np.intp, copy=False)


def star_topology(num_nodes: int) -> Topology:
    """All compute nodes attached to one crossbar switch (2 hops pairwise)."""
    return Topology("star", num_nodes)


def fat_tree_topology(num_nodes: int, *, leaf_radix: int = 16) -> Topology:
    """Two-level fat tree: leaf switches of ``leaf_radix`` nodes + one spine.

    Nodes on the same leaf are 2 hops apart; across leaves, 4 hops.  Each
    leaf gets ``leaf_radix // 2`` uplinks (2:1 oversubscription, typical of
    the era) — this shapes :meth:`Topology.bisection_links`.
    """
    return Topology("fat-tree", num_nodes, leaf_radix)


def ring_topology(num_nodes: int) -> Topology:
    """1-D torus: node ``i`` linked to ``(i +/- 1) mod n``."""
    return Topology("ring", num_nodes)

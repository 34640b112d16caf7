"""Declarative multi-node fabric topologies with named link classes.

The live engines and the single-machine simulator both assume one flat
link per rank.  This module describes the *fabric* between ranks as a
directed graph of typed links so the discrete-event simulator
(:mod:`repro.fabric.simulate`) can charge every transfer to the actual
links it crosses — intra-node PCIe/NVLink hops, host NIC uplinks, and
(on multi-node fabrics) leaf->spine trunks with configurable
oversubscription.

Node naming is positional and deterministic: rank ``r`` computes on
``gpu<r>``, lives on ``host<h>``, which uplinks to ``leaf<l>``, which
connects to every ``spine<s>``.  Routes are shortest paths up and down
the tree; when several spines are available the spine is chosen by a
deterministic ECMP hash of the (source leaf, destination leaf, flow)
triple, so simulations are exactly reproducible.

Two families are provided:

* **single-node** — ``pcie`` (star through the host's PCIe switch) and
  ``nvlink`` (same shape, NVLink-class links), modelling the paper's
  EC2 / DGX-1 boxes;
* **multi-node** — ``leaf-spine`` (two-level Clos with configurable
  hosts per leaf, spine count and oversubscription) and ``fat-tree``
  (the same builder pinned to full bisection bandwidth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..units import transfer_seconds

__all__ = [
    "LinkClass",
    "Link",
    "LINK_CLASSES",
    "FabricTopology",
    "TOPOLOGY_NAMES",
    "make_topology",
    "single_node",
    "leaf_spine",
    "fat_tree",
]


@dataclass(frozen=True)
class LinkClass:
    """One named class of physical link.

    Attributes:
        name: class label ("pcie", "nvlink", "nic", "trunk").
        gbps: bandwidth in Gbit/s (converted through
            :mod:`repro.units`, like every link rate in the repo).
        latency_s: per-message latency in seconds.
    """

    name: str
    gbps: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.gbps <= 0:
            raise ValueError(
                f"link class {self.name!r} needs gbps > 0, got {self.gbps}"
            )
        if self.latency_s < 0:
            raise ValueError(
                f"link class {self.name!r} needs latency >= 0, got "
                f"{self.latency_s}"
            )


#: default link classes; effective rates, one order of magnitude
#: between intra-node links and the inter-node NIC, as in real
#: clusters (NVLink ~300 Gbit/s vs 100 GbE NICs)
LINK_CLASSES: dict[str, LinkClass] = {
    "pcie": LinkClass("pcie", 128.0, 2.0e-6),
    "nvlink": LinkClass("nvlink", 300.0, 1.0e-6),
    "nic": LinkClass("nic", 100.0, 5.0e-6),
    "trunk": LinkClass("trunk", 400.0, 1.0e-6),
}


@dataclass(frozen=True)
class Link:
    """One directed link of the fabric."""

    src: str
    dst: str
    cls: LinkClass
    #: ``(src, dst)``, stored: the event loop reads it on every hop
    key: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.src, self.dst))

    def seconds(self, nbytes: int) -> float:
        """Wire time for ``nbytes`` on this link, latency included."""
        return transfer_seconds(nbytes, self.cls.gbps, self.cls.latency_s)

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"{self.src}->{self.dst} [{self.cls.name}]"


@dataclass(frozen=True)
class FabricTopology:
    """A fabric: ranks placed on hosts, hosts wired through switches.

    Attributes:
        name: topology family name (one of :data:`TOPOLOGY_NAMES`).
        world_size: number of ranks (GPUs).
        links: every directed link, keyed ``(src node, dst node)``.
        host_of: host node of each rank, indexed by rank.
        leaf_of_host: leaf switch of each host node (empty on
            single-node fabrics).
        spines: spine switch names (empty below two levels).
    """

    name: str
    world_size: int
    links: dict[tuple[str, str], Link]
    host_of: tuple[str, ...]
    leaf_of_host: dict[str, str] = field(default_factory=dict)
    spines: tuple[str, ...] = ()
    #: route memo; not an init field, so ``dataclasses.replace`` (a
    #: re-rated copy) starts from an empty one
    _routes: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- structure --------------------------------------------------------
    @property
    def hosts(self) -> tuple[str, ...]:
        """Distinct host nodes in rank order."""
        seen: dict[str, None] = {}
        for host in self.host_of:
            seen.setdefault(host)
        return tuple(seen)

    @property
    def multi_node(self) -> bool:
        return len(self.hosts) > 1

    def ranks_on(self, host: str) -> tuple[int, ...]:
        """Ranks living on one host, ascending."""
        return tuple(
            r for r, h in enumerate(self.host_of) if h == host
        )

    def same_host(self, a: int, b: int) -> bool:
        self._check_rank(a)
        self._check_rank(b)
        return self.host_of[a] == self.host_of[b]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(
                f"rank {rank} outside world of {self.world_size}"
            )

    # -- routing ----------------------------------------------------------
    def route(
        self,
        src: int,
        dst: int,
        flow: int = 0,
        avoid: frozenset[tuple[str, str]] = frozenset(),
    ) -> tuple[Link, ...] | None:
        """Directed links from ``src``'s GPU to ``dst``'s GPU.

        ``flow`` seeds the deterministic ECMP spine choice so distinct
        chunks of one collective can spread over distinct spines.
        ``avoid`` removes links (e.g. failed ones); returns ``None``
        when no route survives.

        Routes are memoised per ``(src, dst, avoid)`` as the tuple of
        equal-cost candidates ``flow`` picks from, so a collective pays
        for its few distinct pairs, not for every transfer.
        """
        try:
            base, candidates = self._routes[src, dst, avoid]
        except KeyError:
            base, candidates = self._routes[src, dst, avoid] = (
                self._candidate_routes(src, dst, avoid)
            )
        if not candidates:
            return None
        return candidates[(base + flow) % len(candidates)]

    def _candidate_routes(
        self, src: int, dst: int, avoid: frozenset[tuple[str, str]]
    ) -> tuple[int, tuple[tuple[Link, ...], ...]]:
        """(ECMP hash base, one route per live spine) for a rank pair.

        Pairs that share a leaf have the one route; an unroutable pair
        has none, which is the partition signal.
        """
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            return 0, ((),)
        src_host, dst_host = self.host_of[src], self.host_of[dst]
        up = [(f"gpu{src}", src_host)]
        down = [(dst_host, f"gpu{dst}")]
        # per candidate, the hops between the way up and the way down
        base, middles = 0, [[]]
        if src_host != dst_host:
            src_leaf = self.leaf_of_host[src_host]
            dst_leaf = self.leaf_of_host[dst_host]
            up.append((src_host, src_leaf))
            down.insert(0, (dst_leaf, dst_host))
            if src_leaf != dst_leaf:
                base = int(src_leaf.removeprefix("leaf")) + int(
                    dst_leaf.removeprefix("leaf")
                )
                middles = [
                    [(src_leaf, spine), (spine, dst_leaf)]
                    for spine in self.spines
                    if (src_leaf, spine) not in avoid
                    and (spine, dst_leaf) not in avoid
                ]
        if any(hop in avoid for hop in up + down):
            return base, ()
        try:
            return base, tuple(
                tuple(self.links[hop] for hop in up + middle + down)
                for middle in middles
            )
        except KeyError as exc:  # pragma: no cover - topology invariant
            raise ValueError(f"no link for hop {exc}") from None

    # -- reachability (failure handling) ----------------------------------
    def reachable_ranks(
        self, avoid: frozenset[tuple[str, str]] = frozenset()
    ) -> tuple[int, ...]:
        """Ranks still connected to rank 0 once ``avoid`` links are cut.

        Connectivity is evaluated on the undirected fabric (a link cut
        removes both directions), matching how the resilience loop
        treats a rank that cannot exchange gradients: unreachable from
        the coordinator's component means evicted.
        """
        adjacency: dict[str, set[str]] = {}
        for (a, b), _ in self.links.items():
            if (a, b) in avoid or (b, a) in avoid:
                continue
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        seen = {"gpu0"}
        frontier = ["gpu0"]
        while frontier:
            node = frontier.pop()
            for peer in adjacency.get(node, ()):
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return tuple(
            r for r in range(self.world_size) if f"gpu{r}" in seen
        )


def _add_bidi(
    links: dict[tuple[str, str], Link], a: str, b: str, cls: LinkClass
) -> None:
    links[(a, b)] = Link(a, b, cls)
    links[(b, a)] = Link(b, a, cls)


def single_node(world_size: int, link: str = "pcie") -> FabricTopology:
    """One machine: every GPU stars through the host's switch.

    ``link`` picks the intra-node class ("pcie" or "nvlink").
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    cls = LINK_CLASSES[link]
    links: dict[tuple[str, str], Link] = {}
    for rank in range(world_size):
        _add_bidi(links, f"gpu{rank}", "host0", cls)
    return FabricTopology(
        name=link,
        world_size=world_size,
        links=links,
        host_of=tuple("host0" for _ in range(world_size)),
    )


def leaf_spine(
    world_size: int,
    gpus_per_host: int = 8,
    hosts_per_leaf: int = 4,
    spines: int = 4,
    oversubscription: float = 1.0,
    intra: str = "nvlink",
    name: str = "leaf-spine",
) -> FabricTopology:
    """Two-level Clos: hosts under leaves, leaves meshed to spines.

    ``oversubscription`` divides the trunk (leaf->spine) bandwidth: 1.0
    is full bisection; 4.0 means the leaf uplink capacity is a quarter
    of its downlink capacity, the classic cost-reduced datacenter
    fabric where low-precision gradients matter most.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if gpus_per_host < 1 or hosts_per_leaf < 1 or spines < 1:
        raise ValueError(
            "gpus_per_host, hosts_per_leaf and spines must be >= 1"
        )
    if oversubscription < 1.0:
        raise ValueError(
            f"oversubscription must be >= 1.0, got {oversubscription}"
        )
    intra_cls = LINK_CLASSES[intra]
    nic_cls = LINK_CLASSES["nic"]
    base_trunk = LINK_CLASSES["trunk"]
    trunk_cls = LinkClass(
        name=(
            base_trunk.name
            if oversubscription == 1.0
            else f"{base_trunk.name}/{oversubscription:g}"
        ),
        gbps=base_trunk.gbps / oversubscription,
        latency_s=base_trunk.latency_s,
    )

    n_hosts = math.ceil(world_size / gpus_per_host)
    n_leaves = math.ceil(n_hosts / hosts_per_leaf)
    links: dict[tuple[str, str], Link] = {}
    host_of: list[str] = []
    leaf_of_host: dict[str, str] = {}
    for rank in range(world_size):
        host = f"host{rank // gpus_per_host}"
        host_of.append(host)
        _add_bidi(links, f"gpu{rank}", host, intra_cls)
    for h in range(n_hosts):
        host, leaf = f"host{h}", f"leaf{h // hosts_per_leaf}"
        leaf_of_host[host] = leaf
        _add_bidi(links, host, leaf, nic_cls)
    spine_names = tuple(f"spine{s}" for s in range(spines))
    for leaf_idx in range(n_leaves):
        for spine in spine_names:
            _add_bidi(links, f"leaf{leaf_idx}", spine, trunk_cls)
    return FabricTopology(
        name=name,
        world_size=world_size,
        links=links,
        host_of=tuple(host_of),
        leaf_of_host=leaf_of_host,
        spines=spine_names,
    )


def fat_tree(
    world_size: int,
    gpus_per_host: int = 8,
    hosts_per_leaf: int = 4,
    spines: int = 4,
    intra: str = "nvlink",
) -> FabricTopology:
    """Two-level fat-tree: the leaf-spine builder at full bisection."""
    return leaf_spine(
        world_size,
        gpus_per_host=gpus_per_host,
        hosts_per_leaf=hosts_per_leaf,
        spines=spines,
        oversubscription=1.0,
        intra=intra,
        name="fat-tree",
    )


#: topology family names accepted by :func:`make_topology`
TOPOLOGY_NAMES = ("pcie", "nvlink", "fat-tree", "leaf-spine")


def make_topology(name: str, world_size: int, **kwargs) -> FabricTopology:
    """Construct a fabric topology by family name.

    Raises ``ValueError`` listing the valid choices for an unknown
    name (never a raw ``KeyError``), like every other name registry in
    the repository.
    """
    if name in ("pcie", "nvlink"):
        return single_node(world_size, link=name, **kwargs)
    if name == "fat-tree":
        return fat_tree(world_size, **kwargs)
    if name == "leaf-spine":
        return leaf_spine(world_size, **kwargs)
    raise ValueError(
        f"unknown topology {name!r}; expected one of {TOPOLOGY_NAMES}"
    )

"""The Activity & Fragment Transition Model (paper Section IV).

AFTM is the tuple ⟨A, F, E⟩: working Activities, working Fragments, and
the event-driven transitions among them, merged into three basic edge
kinds:

* **E1**: ``A → A`` — between Activities (outer);
* **E2**: ``A → F_i`` — an Activity to one of its own Fragments (inner);
* **E3**: ``F → F_i`` — between Fragments of the same Activity (inner).

The other four of the seven raw transition types are normalised onto
these (Section IV-A): ``F → A_i`` is dropped (it passes through the host
Activity), ``F → A_o`` and ``F → F_o`` are re-rooted at the host Activity,
and ``A → F_o`` splits into E1 + E2.  :meth:`AFTM.add_raw_transition`
implements exactly that merge.

The model is *evolutionary*: the dynamic phase keeps calling
``add_transition``/``mark_visited`` and the explorer re-seeds its UI queue
whenever one of those calls reports a change.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError


class NodeKind(str, enum.Enum):
    """String-valued so nodes sort stably inside ordered dataclasses."""

    ACTIVITY = "activity"
    FRAGMENT = "fragment"


class EdgeKind(str, enum.Enum):
    E1 = "A->A"
    E2 = "A->F"
    E3 = "F->F"


@dataclass(frozen=True, order=True)
class Node:
    """A working Activity or Fragment, identified by its class name."""

    kind: NodeKind
    name: str  # fully-qualified class name

    @property
    def simple_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    def __str__(self) -> str:
        prefix = "A" if self.kind is NodeKind.ACTIVITY else "F"
        return f"{prefix}:{self.simple_name}"


def activity_node(name: str) -> Node:
    return Node(NodeKind.ACTIVITY, name)


def fragment_node(name: str) -> Node:
    return Node(NodeKind.FRAGMENT, name)


@dataclass(frozen=True, order=True)
class Transition:
    """One edge of the AFTM.

    ``host`` is the Activity that owns an inner edge (the container for
    E2/E3); it is ``None`` for E1 edges.  ``trigger`` records how the
    transition is exercised: a widget resource-ID for explicit clicks,
    ``"reflection"`` for forced fragment switches, ``"forced-start"`` for
    empty-Intent activity launches, or ``"static"`` when only the static
    phase knows the edge so far.
    """

    src: Node
    dst: Node
    kind: EdgeKind
    host: Optional[str] = None
    trigger: str = "static"

    def __post_init__(self) -> None:
        expected = _classify(self.src, self.dst)
        if expected is not self.kind:
            raise ReproError(
                f"transition {self.src} -> {self.dst} cannot be {self.kind}"
            )
        if self.kind is not EdgeKind.E1 and self.host is None:
            raise ReproError(f"inner edge {self.src} -> {self.dst} needs a host")


def _classify(src: Node, dst: Node) -> EdgeKind:
    if src.kind is NodeKind.ACTIVITY and dst.kind is NodeKind.ACTIVITY:
        return EdgeKind.E1
    if src.kind is NodeKind.ACTIVITY and dst.kind is NodeKind.FRAGMENT:
        return EdgeKind.E2
    if src.kind is NodeKind.FRAGMENT and dst.kind is NodeKind.FRAGMENT:
        return EdgeKind.E3
    raise ReproError(
        f"raw transition {src} -> {dst} must be normalised before insertion"
    )


class AFTM:
    """A mutable finite-state model of one app's UI structure."""

    def __init__(self, package: str, entry: Optional[Node] = None) -> None:
        self.package = package
        self._nodes: Set[Node] = set()
        self._edges: Set[Transition] = set()
        self._out: Dict[Node, List[Transition]] = {}
        self._visited: Set[Node] = set()
        self.entry: Optional[Node] = None
        if entry is not None:
            self.set_entry(entry)

    # -- construction --------------------------------------------------------

    def set_entry(self, node: Node) -> None:
        if node.kind is not NodeKind.ACTIVITY:
            raise ReproError("the entry node A0 must be an Activity")
        self.add_node(node)
        self.entry = node

    def add_node(self, node: Node) -> bool:
        """Returns True when the node is new (triggers queue updates)."""
        if node in self._nodes:
            return False
        self._nodes.add(node)
        self._out.setdefault(node, [])
        return True

    def add_transition(
        self,
        src: Node,
        dst: Node,
        host: Optional[str] = None,
        trigger: str = "static",
    ) -> bool:
        """Insert one of the three basic edges; returns True if new.

        Existing edges are never duplicated even with different triggers —
        but a dynamic trigger *upgrades* a static one, because the paper
        prefers explicit click paths over reflection when both exist
        (Section VI-A, Case 2).
        """
        kind = _classify(src, dst)
        if kind is not EdgeKind.E1 and host is None:
            host = src.name if src.kind is NodeKind.ACTIVITY else None
            if host is None:
                raise ReproError(
                    f"host activity required for inner edge {src} -> {dst}"
                )
        # Look the edge up before building anything: a repeated match
        # (most static ones) changes nothing unless it upgrades.
        existing = self._find_edge(src, dst, host)
        if existing is not None:
            if existing.trigger in ("static", "reflection") and trigger not in (
                "static",
                "reflection",
            ):
                self._remove_edge(existing)
            else:
                return False
        transition = Transition(src, dst, kind, host=host, trigger=trigger)
        self.add_node(src)
        self.add_node(dst)
        self._edges.add(transition)
        self._out[src].append(transition)
        return True

    def add_raw_transition(
        self,
        src: Node,
        dst: Node,
        src_host: Optional[str] = None,
        dst_host: Optional[str] = None,
        trigger: str = "static",
    ) -> bool:
        """Insert any of the seven raw transition types, applying the
        Section IV-A merge rules.  Returns True if anything changed."""
        changed = False
        if src.kind is NodeKind.FRAGMENT:
            if dst.kind is NodeKind.ACTIVITY:
                if src_host == dst.name:
                    # F -> A_i: implicit through the host; not an edge.
                    return False
                # F -> A_o re-roots at the host activity (A -> A).
                if src_host is None:
                    raise ReproError(f"F->A edge from {src} needs src_host")
                return self.add_transition(
                    activity_node(src_host), dst, trigger=trigger
                )
            # F -> F
            if src_host is not None and dst_host is not None and src_host != dst_host:
                # F -> F_o becomes A -> A_o plus A_o -> F_i.
                changed |= self.add_transition(
                    activity_node(src_host), activity_node(dst_host),
                    trigger=trigger,
                )
                changed |= self.add_transition(
                    activity_node(dst_host), dst, host=dst_host, trigger=trigger
                )
                return changed
            return self.add_transition(src, dst, host=src_host or dst_host,
                                       trigger=trigger)
        # src is an Activity
        if dst.kind is NodeKind.FRAGMENT:
            if dst_host is not None and dst_host != src.name:
                # A -> F_o splits into A -> A_o and A_o -> F_i.
                changed |= self.add_transition(
                    src, activity_node(dst_host), trigger=trigger
                )
                changed |= self.add_transition(
                    activity_node(dst_host), dst, host=dst_host, trigger=trigger
                )
                return changed
            return self.add_transition(src, dst, host=src.name, trigger=trigger)
        return self.add_transition(src, dst, trigger=trigger)

    def _find_edge(self, src: Node, dst: Node,
                   host: Optional[str]) -> Optional[Transition]:
        for edge in self._out.get(src, ()):
            if edge.dst == dst and edge.host == host:
                return edge
        return None

    def _remove_edge(self, edge: Transition) -> None:
        self._edges.discard(edge)
        self._out[edge.src].remove(edge)

    # -- queries ---------------------------------------------------------------

    @property
    def activities(self) -> Set[Node]:
        return {n for n in self._nodes if n.kind is NodeKind.ACTIVITY}

    @property
    def fragments(self) -> Set[Node]:
        return {n for n in self._nodes if n.kind is NodeKind.FRAGMENT}

    @property
    def nodes(self) -> Set[Node]:
        return set(self._nodes)

    @property
    def edges(self) -> Set[Transition]:
        return set(self._edges)

    # The ``nodes``/``edges``/``visited`` properties return defensive set
    # copies — right for callers that mutate the model while looping, but
    # an O(n) allocation per access in hot loops.  The ``iter_*`` views
    # and counts below read the internal sets directly; callers must not
    # mutate the model while consuming them.

    def iter_nodes(self) -> Iterator[Node]:
        """Non-copying view of the node set (unordered)."""
        return iter(self._nodes)

    def iter_edges(self) -> Iterator[Transition]:
        """Non-copying view of the edge set (unordered)."""
        return iter(self._edges)

    def iter_visited(self) -> Iterator[Node]:
        """Non-copying view of the visited set (unordered)."""
        return iter(self._visited)

    def is_visited(self, node: Node) -> bool:
        """Membership probe that skips the ``visited`` copy."""
        return node in self._visited

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def visited_count(self) -> int:
        return len(self._visited)

    def edges_of_kind(self, kind: EdgeKind) -> List[Transition]:
        return sorted(e for e in self._edges if e.kind is kind)

    def successors(self, node: Node) -> List[Transition]:
        return list(self._out.get(node, ()))

    def predecessors(self, node: Node) -> List[Transition]:
        return sorted(e for e in self._edges if e.dst == node)

    def node(self, name: str) -> Optional[Node]:
        for candidate in self._nodes:
            if candidate.name == name or candidate.simple_name == name:
                return candidate
        return None

    def host_of(self, fragment: Node) -> Optional[str]:
        """The host Activity of a fragment node, if any edge records it."""
        for edge in self.predecessors(fragment):
            if edge.host is not None:
                return edge.host
        return None

    def isolated_nodes(self) -> Set[Node]:
        """Nodes linked by no edge at all (to be filtered as non-working)."""
        linked: Set[Node] = set()
        for edge in self._edges:
            linked.add(edge.src)
            linked.add(edge.dst)
        isolated = self._nodes - linked
        if self.entry is not None:
            isolated.discard(self.entry)
        return isolated

    def prune_isolated(self) -> Set[Node]:
        """Remove and return isolated nodes (Section IV-B.2)."""
        isolated = self.isolated_nodes()
        for node in isolated:
            self._nodes.discard(node)
            self._out.pop(node, None)
            self._visited.discard(node)
        return isolated

    # -- traversal ---------------------------------------------------------------

    def bfs_order(self, start: Optional[Node] = None) -> List[Node]:
        """Breadth-first node order from the entry (the queue-seeding
        traversal of Section III)."""
        origin = start or self.entry
        if origin is None or origin not in self._nodes:
            return []
        order: List[Node] = [origin]
        seen: Set[Node] = {origin}
        frontier = [origin]
        while frontier:
            next_frontier: List[Node] = []
            for node in frontier:
                for edge in sorted(self._out.get(node, ()),
                                   key=lambda e: e.dst):
                    if edge.dst not in seen:
                        seen.add(edge.dst)
                        order.append(edge.dst)
                        next_frontier.append(edge.dst)
            frontier = next_frontier
        return order

    def path_to(self, target: Node) -> Optional[List[Transition]]:
        """Shortest transition path from the entry to ``target``."""
        if self.entry is None:
            return None
        if target == self.entry:
            return []
        parents: Dict[Node, Transition] = {}
        seen: Set[Node] = {self.entry}
        frontier = [self.entry]
        while frontier:
            next_frontier: List[Node] = []
            for node in frontier:
                for edge in sorted(self._out.get(node, ()),
                                   key=lambda e: e.dst):
                    if edge.dst in seen:
                        continue
                    seen.add(edge.dst)
                    parents[edge.dst] = edge
                    if edge.dst == target:
                        return self._unwind(parents, target)
                    next_frontier.append(edge.dst)
            frontier = next_frontier
        return None

    @staticmethod
    def _unwind(parents: Dict[Node, Transition],
                target: Node) -> List[Transition]:
        path: List[Transition] = []
        node = target
        while node in parents:
            edge = parents[node]
            path.append(edge)
            node = edge.src
        path.reverse()
        return path

    def reachable_from_entry(self) -> Set[Node]:
        return set(self.bfs_order())

    # -- visit bookkeeping ---------------------------------------------------------

    def mark_visited(self, node: Node) -> bool:
        """Record a dynamic visit; returns True on first visit."""
        self.add_node(node)
        if node in self._visited:
            return False
        self._visited.add(node)
        return True

    @property
    def visited(self) -> Set[Node]:
        return set(self._visited)

    def unvisited(self) -> Set[Node]:
        return self._nodes - self._visited

    def unvisited_activities(self) -> List[Node]:
        return sorted(n for n in self.unvisited()
                      if n.kind is NodeKind.ACTIVITY)

    def is_complete(self) -> bool:
        """Termination condition: every node visited (Section VI-C)."""
        return not self.unvisited()

    # -- presentation ---------------------------------------------------------------

    def summary(self) -> str:
        return (
            f"AFTM[{self.package}] "
            f"|A|={len(self.activities)} |F|={len(self.fragments)} "
            f"E1={len(self.edges_of_kind(EdgeKind.E1))} "
            f"E2={len(self.edges_of_kind(EdgeKind.E2))} "
            f"E3={len(self.edges_of_kind(EdgeKind.E3))} "
            f"visited={len(self._visited)}/{len(self._nodes)}"
        )

    def to_dot(self) -> str:
        """Graphviz rendering, for documentation and the quickstart."""
        lines = [f'digraph "{self.package}" {{']
        for node in sorted(self._nodes):
            shape = "box" if node.kind is NodeKind.ACTIVITY else "ellipse"
            style = ', style=filled, fillcolor="#d0e0ff"' \
                if node in self._visited else ""
            lines.append(
                f'    "{node.simple_name}" [shape={shape}{style}];'
            )
        for edge in sorted(self._edges):
            label = edge.kind.name
            lines.append(
                f'    "{edge.src.simple_name}" -> "{edge.dst.simple_name}"'
                f' [label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __contains__(self, node: Node) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(sorted(self._nodes))

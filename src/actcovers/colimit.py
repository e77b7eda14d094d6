"""Directed colimits of finite systems of acts.

A directed system is a finite poset of nodes, an act per node, and a
coherent family of act maps along the order.  A finite directed order
has a greatest node, the top: the colimit is the quotient of the
disjoint union of the node acts (acts.disjoint_union, tagged by node
position) by equal image in the top, and a cocone is fixed by its map
out of the top.  Universality is checked by enumerating every cocone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from .acts import (Act, ActMap, _canonical, _least_members, _trusted, disjoint_union, homs,
                   identity_map)
from .errors import IncoherentArrowsError, NotDirectedError, _quote


@dataclass(frozen=True)
class DirectedSystem:
    """Nodes with a reflexive-transitive directed order and coherent arrows.

    order lists the comparable pairs (i, j) meaning i <= j; reflexive
    pairs may be omitted.  arrows maps each strict comparable pair to
    the act map along it (identity arrows are implicit).  The system is
    validated when built, so every system has a top node and coherent
    arrows; acts and arrows are read-only views of private copies, so
    they stay as validated.
    """

    nodes: tuple
    order: frozenset
    acts: Mapping[object, Act]
    arrows: Mapping[Tuple[object, object], ActMap]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "order", frozenset((i, j) for i, j in self.order if i != j))
        object.__setattr__(self, "acts", MappingProxyType(dict(self.acts)))
        object.__setattr__(self, "arrows", MappingProxyType(dict(self.arrows)))
        validate_system(self)

    def __reduce__(self):
        # a mappingproxy does not pickle: rebuild from plain dicts
        return DirectedSystem, (self.nodes, self.order, dict(self.acts), dict(self.arrows))

    def leq(self, i, j) -> bool:
        return i == j or (i, j) in self.order

    def arrow(self, i, j) -> ActMap:
        if i == j:
            return identity_map(self.acts[i])
        return self.arrows[(i, j)]


def make_system(nodes, order_pairs, acts, arrows) -> DirectedSystem:
    return DirectedSystem(nodes, order_pairs, acts, arrows)


def validate_system(system: DirectedSystem) -> None:
    """Check poset laws, directedness, and arrow coherence exhaustively."""
    nodes = system.nodes
    if not nodes:
        raise ValueError("a system needs at least one node")
    if len(set(nodes)) != len(nodes):
        raise ValueError("node labels must be distinct")
    node_set = set(nodes)
    for i, j in system.order:
        if i not in node_set or j not in node_set:
            raise ValueError(f"order pair ({_quote(i)}, {_quote(j)}) uses unknown nodes")
        if (j, i) in system.order:
            raise ValueError(f"order is not antisymmetric at ({_quote(i)}, {_quote(j)})")
    for i, j in system.order:
        for k in nodes:
            if system.leq(j, k) and not system.leq(i, k):
                raise ValueError("order is not transitive at "
                                 f"({_quote(i)},{_quote(j)},{_quote(k)})")
    for i in nodes:
        if i not in system.acts:
            raise ValueError(f"node {_quote(i)} has no act")
    monoid = system.acts[nodes[0]].monoid
    for i in nodes:
        if system.acts[i].monoid != monoid:
            raise ValueError("all acts must share one monoid")
    for i in nodes:
        for j in nodes:
            if i != j and not system.leq(i, j):
                if not any(system.leq(i, k) and system.leq(j, k) for k in nodes):
                    raise NotDirectedError(i, j)
    for (i, j), f in system.arrows.items():
        if not system.leq(i, j) or i == j:
            raise ValueError(f"arrow for non-strict pair ({_quote(i)}, {_quote(j)})")
        if f.source != system.acts[i] or f.target != system.acts[j]:
            raise ValueError(f"arrow ({_quote(i)}, {_quote(j)}) has wrong endpoints")
    for i, j in system.order:
        if (i, j) not in system.arrows:
            raise ValueError(f"missing arrow for pair ({_quote(i)}, {_quote(j)})")
    for i in nodes:
        for j in nodes:
            for k in nodes:
                if i != j and j != k and system.leq(i, j) and system.leq(j, k):
                    left = system.arrow(j, k).after(system.arrow(i, j))
                    if left != system.arrow(i, k):
                        raise IncoherentArrowsError(i, j, k)


@dataclass(frozen=True)
class ColimitResult:
    act: Act
    injections: Dict[object, ActMap]


def _top(system: DirectedSystem):
    """The node every node lies below: a finite directed order has one."""
    return next(t for t in system.nodes if all(system.leq(i, t) for i in system.nodes))


def compute_colimit(system: DirectedSystem) -> ColimitResult:
    """The quotient of the disjoint union of the node acts by the arrows.

    The union tags each node's elements with the node's position in
    system.nodes, so labels never depend on node names.  x of node i
    falls in the class of arrow(i, top)(x), since every arrow ends below
    the top.  Each class is labelled by its least member and acts
    through it, and classes are ordered by it; the injections are
    slices of the class vector, and they commute with the arrows because
    the arrows are coherent.
    """
    top = _top(system)
    sizes = [system.acts[i].size for i in system.nodes]
    union = disjoint_union([system.acts[i] for i in system.nodes])
    start = dict(zip(system.nodes, itertools.accumulate(sizes, initial=0)))
    cls = _canonical(y for i in system.nodes for y in system.arrow(i, top).image)
    reps = _least_members(cls)
    act = _trusted(Act, union.monoid, tuple(union.elements[r] for r in reps),
                   tuple(tuple([cls[y] for y in union.action[r]]) for r in reps))
    injections = {
        i: _trusted(ActMap, system.acts[i], act, cls[start[i]:start[i] + n])
        for i, n in zip(system.nodes, sizes)
    }
    return ColimitResult(act, injections)


def cocones(system: DirectedSystem, probe: Act):
    """All families (f_i: acts[i] -> probe) commuting with the arrows.
    f_i is f_top after arrow(i, top), so they come in the hom order of
    the top; each commutes, since f_j after arrow(i, j) is f_top after
    arrow(j, top) after arrow(i, j), which coherence makes f_i."""
    top = _top(system)
    return [{i: h.after(system.arrow(i, top)) for i in system.nodes}
            for h in homs(system.acts[top], probe)]


def verify_universality(system: DirectedSystem, result: ColimitResult, probe: Act) -> bool:
    """Every cocone to the probe factors through exactly one map from
    the colimit act."""
    mediators = homs(result.act, probe)
    for family in cocones(system, probe):
        matching = [
            h for h in mediators
            if all(h.after(result.injections[i]) == family[i] for i in system.nodes)
        ]
        if len(matching) != 1:
            return False
    return True

"""Directed colimits of finite systems of acts.

A directed system is a finite poset of nodes, an act per node, and a
coherent family of act maps along the order.  The colimit is computed
by union-find on the tagged disjoint union: (i, x) is merged with
(j, arrow(x)) for every arrow i -> j.  Universality is then checked
directly against probe acts by enumerating every cocone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .acts import DEFAULT_BUDGET, Act, ActMap, _find, _trusted, _union, homs, identity_map
from .errors import BudgetExceededError, IncoherentArrowsError, NotDirectedError


@dataclass(frozen=True)
class DirectedSystem:
    """Nodes with a reflexive-transitive directed order and coherent arrows.

    order lists the comparable pairs (i, j) meaning i <= j; reflexive
    pairs may be omitted.  arrows maps each strict comparable pair to
    the act map along it (identity arrows are implicit).
    """

    nodes: tuple
    order: frozenset
    acts: Dict[object, Act]
    arrows: Dict[Tuple[object, object], ActMap]

    def leq(self, i, j) -> bool:
        return i == j or (i, j) in self.order

    def arrow(self, i, j) -> ActMap:
        if i == j:
            return identity_map(self.acts[i])
        return self.arrows[(i, j)]


def make_system(nodes, order_pairs, acts, arrows) -> DirectedSystem:
    system = DirectedSystem(
        tuple(nodes),
        frozenset((i, j) for i, j in order_pairs if i != j),
        dict(acts),
        dict(arrows),
    )
    validate_system(system)
    return system


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
            raise ValueError(f"order pair ({i!r}, {j!r}) uses unknown nodes")
        if (j, i) in system.order:
            raise ValueError(f"order is not antisymmetric at ({i!r}, {j!r})")
    for i, j in system.order:
        for k in nodes:
            if system.leq(j, k) and not system.leq(i, k):
                raise ValueError(f"order is not transitive at ({i!r},{j!r},{k!r})")
    for i in nodes:
        if i not in system.acts:
            raise ValueError(f"node {i!r} has no act")
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
            raise ValueError(f"arrow for non-strict pair ({i!r}, {j!r})")
        if f.source != system.acts[i] or f.target != system.acts[j]:
            raise ValueError(f"arrow ({i!r}, {j!r}) has wrong endpoints")
    for i, j in system.order:
        if (i, j) not in system.arrows:
            raise ValueError(f"missing arrow for pair ({i!r}, {j!r})")
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


def compute_colimit(system: DirectedSystem) -> ColimitResult:
    """Union-find over the tagged disjoint union of all node acts.

    Classes are ordered by their least tagged element (node position,
    element index) and labelled by it; injections send each node's
    elements to their classes and commute with the arrows.
    """
    tags = []
    offset = {}
    for i in system.nodes:
        offset[i] = len(tags)
        tags += [(i, x) for x in range(system.acts[i].size)]
    parent = list(range(len(tags)))
    for (i, j), f in system.arrows.items():
        for x in range(f.source.size):
            _union(parent, offset[i] + x, offset[j] + f.image[x])

    roots = sorted({_find(parent, a) for a in range(len(tags))})
    class_index = {r: c for c, r in enumerate(roots)}
    monoid = system.acts[system.nodes[0]].monoid

    def cls(i, x) -> int:
        return class_index[_find(parent, offset[i] + x)]

    labels = []
    for r in roots:
        i, x = tags[r]
        labels.append(f"{i}:{system.acts[i].elements[x]}")
    action = []
    for r in roots:
        i, x = tags[r]
        a = system.acts[i]
        action.append(tuple(cls(i, a.action[x][s]) for s in range(monoid.order)))
    # The arrows are equivariant, so the classes form an act; only the
    # labels, built from node names, can collide.
    if len(set(labels)) != len(labels):
        raise ValueError("act element labels must be distinct")
    act = _trusted(Act, monoid, tuple(labels), tuple(action))
    injections = {
        i: _trusted(ActMap, system.acts[i], act,
                    tuple(cls(i, x) for x in range(system.acts[i].size)))
        for i in system.nodes
    }
    for (i, j), f in system.arrows.items():
        if injections[j].after(f) != injections[i]:
            raise AssertionError("injections fail to commute with an arrow")
    return ColimitResult(act, injections)


def cocones(system: DirectedSystem, probe: Act, budget: int = DEFAULT_BUDGET):
    """All families (f_i: acts[i] -> probe) commuting with the arrows."""
    per_node = [homs(system.acts[i], probe, budget) for i in system.nodes]
    total = 1
    for h in per_node:
        total *= max(len(h), 1)
    if total > budget:
        raise BudgetExceededError(total, budget)
    out = []
    for combo in itertools.product(*per_node):
        family = dict(zip(system.nodes, combo))
        if all(
            family[j].after(system.arrow(i, j)) == family[i]
            for i, j in system.order
        ):
            out.append(family)
    return out


def verify_universality(
    system: DirectedSystem,
    result: ColimitResult,
    probe: Act,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Every cocone to the probe factors through exactly one map from
    the colimit act."""
    mediators = homs(result.act, probe, budget)
    for family in cocones(system, probe, budget):
        matching = [
            h for h in mediators
            if all(h.after(result.injections[i]) == family[i] for i in system.nodes)
        ]
        if len(matching) != 1:
            return False
    return True

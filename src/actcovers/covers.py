"""Coessential epimorphisms and covers relative to a finite family.

An epimorphism g: P -> A is coessential when no proper subact of P is
still mapped onto A (read off the orbits of the elements of P, with no
search).  Relative to a finite family F of acts (standing in for a
class of interest that is too big to quantify over):

* g is a precover wrt F when every map g': P' -> A with P' in F
  factors as g' = g o f for some f: P' -> P;
* g is a cover wrt F when it is a precover and every endomorphism f of
  P with g o f = g is bijective.

The search routine takes one candidate congruence per idempotent e of
the monoid, the kernel of left translation by e: these are exactly the
sigma with S/sigma strongly flat (see flatness).  It builds S/sigma for
each and keeps those with a coessential epimorphism onto the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .acts import (
    Act,
    ActMap,
    RightCongruence,
    _require_monoid,
    cyclic_iso_witness,
    generating_set,
    homs,
    quotient_act,
    subact_closure,
)
from .errors import NotEpimorphismError, OrderTooLargeError
from .flatness import _strongly_flat_congruences
from .monoid import Monoid

SEARCH_ORDER_BOUND = 8


@dataclass(frozen=True)
class CoverReport:
    verdict: bool
    witness: Optional[object]


def is_coessential(g: ActMap) -> CoverReport:
    """Decide coessentiality of an epimorphism.

    A choice of one preimage per target element generates the union of
    the orbits x*S of the chosen x, a subact still mapped onto the
    target.  So g is coessential iff every source element p is forced:
    some fiber lies inside {x : p in x*S}.  The witness is the subact
    generated by the least choice (fibers in target order, preimages in
    source order) missing some p: over the unforced p, the least of the
    choices of each fiber's least x with p outside x*S.
    """
    src, tgt = g.source, g.target
    fibers = [[x for x in range(src.size) if g.image[x] == t] for t in range(tgt.size)]
    for t, fiber in enumerate(fibers):
        if not fiber:
            raise NotEpimorphismError(t)
    rows = src.action
    forced = set().union(*(set(rows[fiber[0]]).intersection(*(rows[x] for x in fiber[1:]))
                           for fiber in fibers))
    refuting = [[next(x for x in fiber if p not in rows[x]) for fiber in fibers]
                for p in range(src.size) if p not in forced]
    witness = subact_closure(src, min(refuting)) if refuting else None
    return CoverReport(witness is None, witness)


def is_precover_wrt(g: ActMap, family: Sequence[Act]) -> CoverReport:
    """Factorisation test against every map from the family into the
    target; witness is (family index, unfactorable map image)."""
    for idx, probe in enumerate(family):
        candidates = homs(probe, g.source)
        for gp in homs(probe, g.target):
            if not any(g.after(f) == gp for f in candidates):
                return CoverReport(False, (idx, gp.image))
    return CoverReport(True, None)


def is_cover_wrt(g: ActMap, family: Sequence[Act]) -> CoverReport:
    """Precover whose g-compatible endomorphisms are all bijective;
    witness is either the precover witness or a non-bijective image."""
    pre = is_precover_wrt(g, family)
    if not pre.verdict:
        return CoverReport(False, pre.witness)
    for f in homs(g.source, g.source):
        if g.after(f) == g and not f.is_bijective:
            return CoverReport(False, f.image)
    return CoverReport(True, None)


def search_sf_coessential_covers(
    m: Monoid, target: Act, max_order: int = SEARCH_ORDER_BOUND
) -> list[tuple[RightCongruence, ActMap]]:
    """All right congruences sigma with S/sigma strongly flat and
    coessentially epimorphic onto the target (a cyclic act).

    Returns (sigma, g) pairs in class-vector order, the order of
    all_right_congruences, g being the first coessential epimorphism in
    hom order.  The strongly flat S/sigma are read off the idempotents e
    of the monoid, sigma = ker lambda_e, so there are at most |S| of
    them, and only these get a quotient act and the hom and
    coessentiality scans.  A hom out of a cyclic quotient is fixed by
    the image of its one generator, so each hom scan tries at most
    |target| candidates.  SEARCH_ORDER_BOUND is no longer a cost limit:
    it stands until it is raised along with the scenario bounds.
    """
    if m.order > max_order:
        raise OrderTooLargeError(m.order, max_order)
    if len(generating_set(target)) != 1:
        raise ValueError("target must be cyclic")
    found = []
    for sigma in _strongly_flat_congruences(m):
        for g in homs(quotient_act(m, sigma), target):
            if g.is_epimorphism and is_coessential(g).verdict:
                found.append((sigma, g))
                break
    return found


def unique_up_to_iso(m: Monoid, congruences: Sequence[RightCongruence]) -> bool:
    """Whether all the listed cyclic quotients are isomorphic: each is compared
    with the first alone (isomorphism is an equivalence relation) by
    cyclic_iso_witness, which also checks the monoid of each entry."""
    if len(congruences) == 1:
        _require_monoid(m, congruences[0])
    return all(cyclic_iso_witness(m, congruences[0], s) is not None
               for s in congruences[1:])

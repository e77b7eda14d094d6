"""Strong flatness of finite acts via the interpolation conditions.

A finite act A is strongly flat exactly when it satisfies both:

condition (P):  whenever a*s = a'*s' there are a'' and u, v with
                a = a''*u,  a' = a''*v,  u*s = v*s';
condition (E):  whenever a*s = a*s' there are a'' and u with
                a = a''*u  and  u*s = u*s'.

Interpolants need only come from generators.  If (a'', u, v) is an
interpolant and a'' = g*r with g in generating_set(A), then (g, r*u,
r*v) is one too, since (r*u)*s = r*(u*s) = r*(v*s') = (r*v)*s'; the
same holds for (E).  So both checks read only the preimage lists
{u : g*u = a} of the generators g.

Both checks are exhaustive and keep the lexicographic witness: they
scan a, a' and s in order and decide all s' at once with one bitmask
over S, the s' with a*s = a'*s' and no interpolant; its lowest set bit
is the least failing s'.  For (P) a pair (u, v) of preimages of a and
a' under one generator covers the s' with v*s' = u*s; for (E) a
preimage u of a under any generator covers the s' with u*s' = u*s.

For a cyclic act the two conditions together reduce to a statement
about its congruence: S/sigma is strongly flat exactly when sigma is
ker lambda_e = {(x, y) : e*x = e*y} for some idempotent e, and then
S/sigma is isomorphic to e*S, a cyclic projective (Kilp, Knauer and
Mikhalev, *Monoids, Acts and Categories*, ch. III).  By that chapter's
criterion, S/sigma is strongly flat exactly when every pair x sigma y
has some u sigma 1 with u*x = u*y.

(=>) Let P = [1]_sigma.  If u, v lie in P then uv sigma v sigma 1, so
P is a submonoid, and the criterion applied to u sigma 1 and v sigma 1
gives some w in P with wu = wv: P is left collapsible.  Folding the
collapsing elements over the finite P gives e in P with e*u = e for
every u in P; in particular e*e = e.  The criterion gives sigma within
sigma_P = {(x, y) : u*x = u*y for some u in P}, and conversely, if
u sigma 1 and u*x = u*y, then x sigma u*x = u*y sigma y; so
sigma = sigma_P.  If u*x = u*y with u in P, then
e*x = e*u*x = e*u*y = e*y; and e lies in P.  So sigma_P = ker lambda_e.
(<=) ker lambda_e is a right congruence, and for each of its pairs
u = e lies in [1] (e*e = e*1) and has e*x = e*y.

So the cover search needs one candidate per idempotent instead of one
per right congruence (_strongly_flat_congruences), and the rightzero
and qiao-wei scenarios decide a quotient by looking its congruence up
there, scanning (P)/(E) only for a failing quotient's witness.
is_strongly_flat on the built quotients of every congruence is the
lookup's oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .acts import Act, RightCongruence, _value_masks, generating_set, left_kernel
from .monoid import Monoid


@dataclass(frozen=True)
class FlatnessReport:
    condition_p: bool
    p_witness: Optional[tuple[int, int, int, int]]
    condition_e: bool
    e_witness: Optional[tuple[int, int, int]]

    @property
    def strongly_flat(self) -> bool:
        return self.condition_p and self.condition_e


def _generator_preimages(a: Act) -> list[list[list[int]]]:
    """pre[k][x]: the u with g*u = x, in increasing order, for the k-th
    g of generating_set(a)."""
    out = []
    for g in generating_set(a):
        pre = [[] for _ in range(a.size)]
        for u, x in enumerate(a.action[g]):
            pre[x].append(u)
        out.append(pre)
    return out


def _condition_p(a: Act, pres):
    """(verdict, witness); witness is the least (a, a', s, s') with
    a*s = a'*s' admitting no interpolant (a'', u, v)."""
    nx, ns = a.size, a.monoid.order
    act, t = a.action, a.monoid.table
    where = [_value_masks((row,), nx) for row in act]
    # reach[y][k][w]: the s' with v*s' = w for some v in pre[k][y]
    reach = [[_value_masks([t[v] for v in pre[y]], ns) for pre in pres]
             for y in range(nx)]
    for x in range(nx):
        ax = act[x]
        # hits[s]: the (k, u*s) over the u in pre[k][x]
        hits = [{(k, t[u][s]) for k, pre in enumerate(pres) for u in pre[x]}
                for s in range(ns)]
        for y in range(nx):
            wy, ry = where[y], reach[y]
            for s in range(ns):
                need = wy[ax[s]]
                if not need:
                    continue
                covered = 0
                for k, w in hits[s]:
                    covered |= ry[k][w]
                bad = need & ~covered
                if bad:
                    return False, (x, y, s, (bad & -bad).bit_length() - 1)
    return True, None


def _condition_e(a: Act, pres):
    """(verdict, witness); witness is the least (a, s, s') with
    a*s = a*s' admitting no interpolant (a'', u)."""
    nx, ns = a.size, a.monoid.order
    act, t = a.action, a.monoid.table
    tmask = [_value_masks((row,), ns) for row in t]
    for x in range(nx):
        row = act[x]
        where = _value_masks((row,), nx)
        us = {u for pre in pres for u in pre[x]}
        for s in range(ns):
            covered = 0
            for u in us:
                covered |= tmask[u][t[u][s]]
            bad = where[row[s]] & ~covered
            if bad:
                return False, (x, s, (bad & -bad).bit_length() - 1)
    return True, None


def is_strongly_flat(a: Act) -> FlatnessReport:
    """(P) and (E), each with its least witness, in one generator pass."""
    pres = _generator_preimages(a)
    return FlatnessReport(*_condition_p(a, pres), *_condition_e(a, pres))


def _strongly_flat_congruences(m: Monoid) -> list[RightCongruence]:
    """The congruences sigma with S/sigma strongly flat, in class-vector
    order: the kernels of left translation by the idempotents."""
    kernels = [left_kernel(m, e) for e in range(m.order) if m.table[e][e] == e]
    unique = {k.class_of: k for k in kernels}
    return [unique[v] for v in sorted(unique)]

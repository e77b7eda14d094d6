"""Strong flatness of finite acts via the interpolation conditions.

A finite act A is strongly flat exactly when it satisfies both:

condition (P):  whenever a*s = a'*s' there are a'' and u, v with
                a = a''*u,  a' = a''*v,  u*s = v*s';
condition (E):  whenever a*s = a*s' there are a'' and u with
                a = a''*u  and  u*s = u*s'.

Both checks are exhaustive: equalities a*s = a'*s' are scanned in
lexicographic order and the first tuple with no interpolant is the
reported witness.

For a cyclic act S/sigma the two conditions together reduce to one
test on the congruence (Kilp, Knauer and Mikhalev, *Monoids, Acts and
Categories*, ch. III): S/sigma is strongly flat exactly when every pair
x sigma y has some u sigma 1 with u*x = u*y.  The cover search uses it
as a verdict-only filter, with is_strongly_flat as its oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .acts import Act, RightCongruence


@dataclass(frozen=True)
class FlatnessReport:
    act_elements: tuple[str, ...]
    condition_p: bool
    condition_e: bool
    p_witness: Optional[tuple[int, int, int, int]]
    e_witness: Optional[tuple[int, int, int]]

    @property
    def strongly_flat(self) -> bool:
        return self.condition_p and self.condition_e


def satisfies_condition_p(a: Act):
    """(verdict, witness); witness is the least (a, a', s, s') with
    a*s = a'*s' admitting no interpolant (a'', u, v)."""
    nx, ns = a.size, a.monoid.order
    act = a.action
    for x in range(nx):
        for y in range(nx):
            for s in range(ns):
                xs = act[x][s]
                for s2 in range(ns):
                    if xs != act[y][s2]:
                        continue
                    if not _p_interpolant(a, x, y, s, s2):
                        return False, (x, y, s, s2)
    return True, None


def _p_interpolant(a: Act, x: int, y: int, s: int, s2: int) -> bool:
    nx, ns = a.size, a.monoid.order
    act = a.action
    t = a.monoid.table
    for z in range(nx):
        row = act[z]
        for u in range(ns):
            if row[u] != x:
                continue
            for v in range(ns):
                if row[v] == y and t[u][s] == t[v][s2]:
                    return True
    return False


def satisfies_condition_e(a: Act):
    """(verdict, witness); witness is the least (a, s, s') with
    a*s = a*s' admitting no interpolant (a'', u)."""
    nx, ns = a.size, a.monoid.order
    act = a.action
    for x in range(nx):
        row = act[x]
        for s in range(ns):
            for s2 in range(ns):
                if row[s] != row[s2]:
                    continue
                if not _e_interpolant(a, x, s, s2):
                    return False, (x, s, s2)
    return True, None


def _e_interpolant(a: Act, x: int, s: int, s2: int) -> bool:
    nx, ns = a.size, a.monoid.order
    act = a.action
    t = a.monoid.table
    for z in range(nx):
        row = act[z]
        for u in range(ns):
            if row[u] == x and t[u][s] == t[u][s2]:
                return True
    return False


def is_strongly_flat(a: Act) -> FlatnessReport:
    p_ok, p_wit = satisfies_condition_p(a)
    e_ok, e_wit = satisfies_condition_e(a)
    return FlatnessReport(a.elements, p_ok, e_ok, p_wit, e_wit)


def _cyclic_strongly_flat(sigma: RightCongruence) -> bool:
    """Whether S/sigma is strongly flat: every pair x sigma y needs some
    u sigma 1 with u*x = u*y.  The class of 1 is the first class."""
    t = sigma.monoid.table
    rows = [t[u] for u in sigma.classes[0]]
    return all(any(r[x] == r[y] for r in rows)
               for c in sigma.classes for x, y in itertools.combinations(c, 2))

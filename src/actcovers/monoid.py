"""Finite monoids as validated multiplication tables.

A monoid is stored as a tuple of element labels plus an n x n table of
element indices.  The identity always sits at index 0; the constructor
checks the identity law, associativity, and index bounds before handing
the table out, so any Monoid in circulation is a genuine monoid.

Three builds here skip those checks, monoids by construction (the
tests rebuild each through the checks): the tables of
``enumerate_monoids``, whose per-cell scan has already proved
associativity, and two families from the cover-theory scenarios:

* ``right_zero_adjoin_one(n)``: a right-zero semigroup {z1..zn} with an
  identity adjoined (x * zj = zj for every x).
* ``qiao_wei_truncated(n, cap)``: the monoid with generators x0..xn and
  relations  x0*xk = xk*x0 = x0 (k>=1),  xk^k = xk^(k+1) (k>=1),
  xi*xj = xj^2 (i,j>=1),  cut down to a finite table by adding the
  relation x0^cap = x0^(cap+1).  Normal forms are computed from the
  relations; note that xj^3 = xj^2 already follows from them for every
  j >= 1 (derivation: xj^3 = (x1*xj)*xj = x1*(x1*xj) = (x1*x1)*xj =
  x1*xj = xj^2), so powers of xj stabilise at xj^2, and at x1 itself
  for j = 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import (
    BadIndexError,
    EmptySemigroupError,
    NoIdentityError,
    NotAssociativeError,
    OrderTooLargeError,
    _quote,
)

ENUMERATION_BOUND = 4


@dataclass(frozen=True)
class Monoid:
    """Immutable finite monoid; identity at index 0."""

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.elements)
        if n == 0:
            raise EmptySemigroupError("a monoid needs at least the identity")
        if len(set(self.elements)) != n:
            raise ValueError("element labels must be distinct")
        if len(self.table) != n:
            raise ValueError("table must have one row per element")
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise ValueError("table rows must have one entry per element")
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise BadIndexError(i, j, v)
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise NoIdentityError(0)
        t = self.table
        for a in range(n):
            ta = t[a]
            for b in range(n):
                ab = ta[b]
                tb = t[b]
                tab = t[ab]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise NotAssociativeError(a, b, c)

    @functools.cached_property
    def _index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def power(self, a: int, k: int) -> int:
        """a multiplied with itself k times; k = 0 gives the identity."""
        acc = 0
        for _ in range(k):
            acc = self.table[acc][a]
        return acc

    def index(self, label: str) -> int:
        return self._index[label]

    def label(self, i: int) -> str:
        return self.elements[i]

    def submonoid_closure(self, seed: tuple[int, ...]) -> tuple[int, ...]:
        """Indices of the submonoid generated by seed (identity included)."""
        _require_indices(self.order, "seed element", seed)
        seen = {0}
        seen.update(seed)
        frontier = list(seen)
        while frontier:
            a = frontier.pop()
            for b in tuple(seen):
                for c in (self.table[a][b], self.table[b][a]):
                    if c not in seen:
                        seen.add(c)
                        frontier.append(c)
        return tuple(sorted(seen))


def _require_indices(n: int, what: str, values) -> None:
    """Raise at the first value that is not an int in range(n)."""
    for s in values:
        if not (isinstance(s, int) and 0 <= s < n):
            raise ValueError(f"{what} {_quote(s)} out of range")


def build_from_table(elements, table) -> Monoid:
    """Validate a raw labels/table pair and wrap it as a Monoid."""
    return Monoid(tuple(elements), tuple(tuple(row) for row in table))


def _trusted_monoid(elements, table) -> Monoid:
    """The Monoid of a table that is one by construction, unchecked."""
    m = object.__new__(Monoid)
    m.__dict__.update(elements=tuple(elements), table=tuple(map(tuple, table)))
    return m


def _first_violated(m: Monoid, assignment: tuple[int, ...], relations) -> Optional[tuple]:
    """First (lhs, rhs) pair of words, tuples of generator indices with
    generator i read as assignment[i], whose words name different
    elements of m; None when every relation holds."""

    def value(word: tuple[int, ...]) -> int:
        return functools.reduce(m.mul, (assignment[sym] for sym in word), 0)

    return next(((lhs, rhs) for lhs, rhs in relations if value(lhs) != value(rhs)), None)


def right_zero_adjoin_one(n: int) -> Monoid:
    """Right-zero semigroup {z1..zn} with a fresh identity adjoined."""
    if n < 1:
        raise EmptySemigroupError("need at least one right zero")
    labels = ("1",) + tuple(f"z{i}" for i in range(1, n + 1))
    size = n + 1
    table = [[0] * size for _ in range(size)]
    for j in range(size):
        table[0][j] = j
    for i in range(1, size):
        table[i][0] = i
        for j in range(1, size):
            table[i][j] = j
    return _trusted_monoid(labels, table)


def qiao_wei_presentation(n: int, cap: int) -> tuple:
    """Defining relations of the truncated monoid on generators x0..xn,
    as (lhs, rhs) pairs of words; generator i of a word is xi.  The
    truncation relation x0^cap = x0^(cap+1) is included.
    """
    rels = []
    for k in range(1, n + 1):
        rels.append(((0, k), (0,)))
        rels.append(((k, 0), (0,)))
        rels.append(((k,) * k, (k,) * (k + 1)))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rels.append(((i, j), (j, j)))
    rels.append(((0,) * cap, (0,) * (cap + 1)))
    return tuple(rels)


def qiao_wei_truncated(n: int, cap: Optional[int] = None) -> Monoid:
    """Finite quotient of the x0..xn monoid described in the module doc.

    cap fixes where the free powers of x0 stabilise (default n + 1).
    Elements are the normal forms 1, x0^1..x0^cap, and xk^m for
    1 <= m <= min(k, 2); products follow the relations exactly, which
    the qiao-wei scenario asserts on every run.
    """
    if n < 1:
        raise EmptySemigroupError("need at least generators x0 and x1")
    if cap is None:
        cap = n + 1
    if cap < 1:
        raise ValueError("cap must be at least 1")

    def stable(k: int) -> int:
        if k == 0:
            return cap
        return 1 if k == 1 else 2

    # Elements as (generator, exponent) pairs; None stands for the identity.
    forms: list[Optional[tuple[int, int]]] = [None]
    forms += [(0, m) for m in range(1, cap + 1)]
    for k in range(1, n + 1):
        forms += [(k, m) for m in range(1, stable(k) + 1)]

    def name(form: Optional[tuple[int, int]]) -> str:
        if form is None:
            return "1"
        k, m = form
        return f"x{k}^{m}"

    def mul(a: Optional[tuple[int, int]], b) -> Optional[tuple[int, int]]:
        if a is None:
            return b
        if b is None:
            return a
        (i, p), (j, q) = a, b
        if i == 0 and j == 0:
            return (0, min(p + q, cap))
        if i == 0:
            return (0, p)
        if j == 0:
            return (0, q)
        return (j, min(p + q, stable(j)))

    index = {form: i for i, form in enumerate(forms)}
    size = len(forms)
    table = [[index[mul(forms[i], forms[j])] for j in range(size)] for i in range(size)]
    return _trusted_monoid([name(f) for f in forms], table)


def is_cancellative(m: Monoid, side: str):
    """Whether multiplication on the given side can be cancelled.

    side = "right": u*s = v*s forces u = v; a failure is reported as the
    lexicographically least triple (u, v, s) with u < v and u*s = v*s.
    side = "left": s*u = s*v forces u = v; failure witness is the least
    (s, u, v) with u < v and s*u = s*v.  Returns (verdict, witness).
    """
    n = m.order
    t = m.table
    if side == "right":
        for u in range(n):
            for v in range(u + 1, n):
                for s in range(n):
                    if t[u][s] == t[v][s]:
                        return False, (u, v, s)
        return True, None
    if side == "left":
        for s in range(n):
            row = t[s]
            for u in range(n):
                for v in range(u + 1, n):
                    if row[u] == row[v]:
                        return False, (s, u, v)
        return True, None
    raise ValueError("side must be 'left' or 'right'")


def is_group(m: Monoid) -> bool:
    """True when every element has a two-sided inverse, that is, when
    every row of the table holds the identity.

    A right inverse is two-sided in a finite monoid: ab = 1 makes
    x -> bx injective, so onto, so bc = 1 for some c and a = abc = c.
    """
    return all(0 in row for row in m.table)


def enumerate_monoids(order: int) -> Iterator[Monoid]:
    """All monoid tables of the given order with identity fixed at 0.

    The identity row and column are forced, the remaining (order-1)^2
    cells are filled depth-first in row-major order, so tables come out
    in lexicographic order.  Filling a cell checks associativity only on
    the triples that read it, so each finished table is associative and
    is emitted unchecked.  No isomorphism reduction is applied.
    """
    if order < 1:
        raise EmptySemigroupError("order must be positive")
    if order > ENUMERATION_BOUND:
        raise OrderTooLargeError(order, ENUMERATION_BOUND)
    labels = ("1",) + tuple(f"e{i}" for i in range(1, order))
    n = order
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    # An unfilled cell holds n, and row n and column n hold only n: a
    # product that reads an unfilled cell is n, so "x < n" says it is
    # known.  The finished table is rows and columns 0..n-1.
    table = [[j if i == 0 else (i if j == 0 else n) for j in range(n)] + [n]
             for i in range(n)] + [[n] * (n + 1)]
    # A triple with the identity in it holds by the forced row and column.
    r = range(1, n)

    def consistent(i: int, j: int, v: int) -> bool:
        # Only the triples (a, b, c) that read the new cell i*j = v as a*b,
        # b*c, (a*b)*c or a*(b*c): any other triple whose four products
        # are known was checked when the last of its cells was filled.
        ti, tj, tv = table[i], table[j], table[v]
        for c in r:  # (i, j, c): v*c against i*(j*c)
            if n > tv[c] != ti[tj[c]] < n:
                return False
        for a in r:  # (a, i, j): (a*i)*j against a*v
            ta = table[a]
            if n > table[ta[i]][j] != ta[v] < n:
                return False
        for a in r:  # (a, b, j) with a*b = i: a*(b*j) against v
            ta = table[a]
            for b in r:
                if ta[b] == i and n > ta[table[b][j]] != v:
                    return False
        for b in r:  # (i, b, c) with b*c = j: (i*b)*c against v
            tb, tib = table[b], table[ti[b]]
            for c in r:
                if tb[c] == j and n > tib[c] != v:
                    return False
        return True

    def fill(pos: int) -> Iterator[Monoid]:
        if pos == len(cells):
            yield _trusted_monoid(labels, [row[:n] for row in table[:n]])
            return
        i, j = cells[pos]
        row = table[i]
        for v in range(n):
            row[j] = v
            if consistent(i, j, v):
                yield from fill(pos + 1)
        row[j] = n

    yield from fill(0)

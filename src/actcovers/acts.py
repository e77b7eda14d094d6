"""Right acts over a finite monoid, their maps, and right congruences.

An act is a finite set X with an action X x S -> X satisfying
x*1 = x and x*(s*t) = (x*s)*t.  Act maps are equivariant functions.
Right congruences are equivalence relations on the monoid itself that
are stable under right multiplication; their quotients are the cyclic
acts S/sigma, the main raw material for the cover scenarios.

Binary relations on S and right congruences are kept as distinct
types: several constructions (for instance the p*s = q*t relation
induced by a submonoid) produce relations that are not transitive, and
the failure itself is informative, so converting to a congruence is an
explicit, validated step.  A relation is kept as row masks (bit t of
rows[s] set iff s ~ t), read bit by bit: each pass costs O(pairs).  A
right congruence is kept as its canonical class vector alone (class_of[s]
is the number of the class of s, classes numbered by least member);
class lists are derived from it on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError, EmptySeedError, _quote
from .monoid import Monoid, _require_indices

DEFAULT_BUDGET = 10**6


def _trusted(cls, *fields):
    """Instance of a slotted frozen dataclass with its slots filled in
    field order, unchecked.

    For objects the library builds from parts it has already validated;
    the public constructors keep every check.
    """
    obj = object.__new__(cls)
    for fill, value in zip(_FILL[cls], fields):
        fill(obj, value)
    return obj


@dataclass(frozen=True, slots=True)
class Act:
    """Finite right act; action[x][s] is the index of x acted on by s."""

    monoid: Monoid
    elements: tuple[str, ...]
    action: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        nx = len(self.elements)
        ns = self.monoid.order
        if nx == 0:
            raise ValueError("an act needs at least one element")
        if len(set(self.elements)) != nx:
            raise ValueError("act element labels must be distinct")
        if len(self.action) != nx or any(len(row) != ns for row in self.action):
            raise ValueError("action table shape must be |X| x |S|")
        for x, row in enumerate(self.action):
            for s, y in enumerate(row):
                if not isinstance(y, int) or not 0 <= y < nx:
                    raise ValueError(f"action[{x}][{s}] = {_quote(y)} out of range")
        t = self.monoid.table
        for x in range(nx):
            if self.action[x][0] != x:
                raise ValueError(f"identity must fix element {x}")
            for s in range(ns):
                xs = self.action[x][s]
                for u in range(ns):
                    if self.action[x][t[s][u]] != self.action[xs][u]:
                        raise ValueError(
                            f"action law fails at x={x}, s={s}, u={u}"
                        )

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, slots=True)
class ActMap:
    """Equivariant map between two acts over the same monoid."""

    source: Act
    target: Act
    image: tuple[int, ...]

    def __post_init__(self):
        if self.source.monoid != self.target.monoid:
            raise ValueError("source and target must share the monoid")
        if len(self.image) != self.source.size:
            raise ValueError("image must list one target index per source element")
        for x, y in enumerate(self.image):
            if not isinstance(y, int) or not 0 <= y < self.target.size:
                raise ValueError(f"image[{x}] = {_quote(y)} out of range")
        for x in range(self.source.size):
            for s in range(self.source.monoid.order):
                if self.image[self.source.action[x][s]] != self.target.action[self.image[x]][s]:
                    raise ValueError(f"map is not equivariant at x={x}, s={s}")

    def after(self, inner: "ActMap") -> "ActMap":
        """Composite self o inner."""
        if inner.target != self.source:
            raise ValueError("composition mismatch")
        return _trusted(ActMap, inner.source, self.target,
                        tuple(self.image[y] for y in inner.image))

    @property
    def is_epimorphism(self) -> bool:
        return len(set(self.image)) == self.target.size

    @property
    def is_bijective(self) -> bool:
        return (self.source.size == self.target.size
                and len(set(self.image)) == self.target.size)


def identity_map(a: Act) -> ActMap:
    return _trusted(ActMap, a, a, tuple(range(a.size)))


@dataclass(frozen=True, slots=True)
class Relation:
    """Binary relation on a monoid: bit t of rows[s] is set iff s ~ t."""

    monoid: Monoid
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        n = self.monoid.order
        if len(self.rows) != n:
            raise ValueError(f"a relation needs {n} rows, got {len(self.rows)}")
        for s, row in enumerate(self.rows):
            if not isinstance(row, int) or not 0 <= row < 1 << n:
                raise ValueError(f"relation row {s} = {_quote(row)} out of range")

    @property
    def pairs(self) -> frozenset:
        return frozenset(_pairs(self.rows))

    def holds(self, s: int, t: int) -> bool:
        return 0 <= s < len(self.rows) and t >= 0 and bool(self.rows[s] >> t & 1)


@dataclass(frozen=True, slots=True)
class RightCongruence:
    """Partition of S stable under right multiplication, as its class
    vector: class_of[s] numbers the class of s, classes numbered in
    order of their least member (a restricted growth string).

    The constructor validates the vector's length, its canonical
    numbering and right compatibility; congruence_from_partition builds
    one from class lists.  Congruences the library computes itself are
    built without the re-check.
    """

    monoid: Monoid
    class_of: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "class_of", tuple(self.class_of))
        n = self.monoid.order
        if len(self.class_of) != n:
            raise ValueError(f"a class vector needs {n} entries, got {len(self.class_of)}")
        top = -1
        for s, c in enumerate(self.class_of):
            if not isinstance(c, int) or not 0 <= c <= top + 1:
                raise ValueError(f"class_of[{s}] = {_quote(c)} is not canonical")
            top = max(top, c)
        bad = _compatibility_failure(self.monoid.table, self.class_of)
        if bad is not None:
            rep, x, u = bad
            raise ValueError(
                f"not right compatible: pair ({rep},{x}) breaks at u={u}"
            )

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Canonical class lists: members ascending, classes ordered by
        least member."""
        classes: list[list[int]] = [[] for _ in range(max(self.class_of) + 1)]
        for x, c in enumerate(self.class_of):
            classes[c].append(x)
        return tuple(map(tuple, classes))

    def together(self, s: int, t: int) -> bool:
        cls = self.class_of
        return 0 <= s < len(cls) and 0 <= t < len(cls) and cls[s] == cls[t]

    def relation(self) -> Relation:
        cls = self.class_of
        masks = [0] * (max(cls) + 1)
        for x, c in enumerate(cls):
            masks[c] |= 1 << x
        return _trusted(Relation, self.monoid, tuple(map(masks.__getitem__, cls)))


# each class's slot setters in field order; they bypass the frozen __setattr__
_FILL = {c: tuple(c.__dict__[f].__set__ for f in c.__dataclass_fields__)
         for c in (Act, ActMap, Relation, RightCongruence)}


def _compatibility_failure(table, class_of) -> Optional[tuple[int, int, int]]:
    """First (rep, x, u) with x in the class of its least member rep but
    rep*u and x*u in different classes, or None when the partition given
    by the class vector is right compatible.  Classes are scanned in
    canonical order, members ascending.
    """
    n = len(class_of)
    reps: dict[int, int] = {}
    for x in sorted(range(n), key=class_of.__getitem__):
        rep = reps.setdefault(class_of[x], x)
        if rep != x:
            t_rep, t_x = table[rep], table[x]
            for u in range(n):
                if class_of[t_rep[u]] != class_of[t_x[u]]:
                    return rep, x, u
    return None


def _canonical(keys: Iterable) -> tuple[int, ...]:
    """Class vector of the partition by equal key, classes numbered in
    order of their least member."""
    number: dict = {}
    return tuple(number.setdefault(k, len(number)) for k in keys)


def _least_members(class_of) -> list[int]:
    """The least member of each class of a canonical class vector, in
    class order."""
    return [class_of.index(c) for c in range(max(class_of) + 1)]


def congruence_from_partition(m: Monoid, classes: Iterable[Iterable[int]]) -> RightCongruence:
    """Validated congruence from class lists in any order."""
    classes = [tuple(c) for c in classes]
    if not all(classes):
        raise ValueError("empty congruence class")
    if sorted(x for c in classes for x in c) != list(range(m.order)):
        raise ValueError("classes must partition the monoid")
    least = [0] * m.order
    for c in classes:
        for x in c:
            least[x] = min(c)
    return RightCongruence(m, _canonical(least))


def full_congruence(m: Monoid) -> RightCongruence:
    return congruence_from_partition(m, [list(range(m.order))])


def _require_monoid(m: Monoid, obj) -> None:
    """Raise unless obj is over m; identity first, the common case."""
    if obj.monoid is not m and obj.monoid != m:
        raise ValueError(f"{type(obj).__name__} is over another monoid")


def _value_masks(rows, size: int) -> list[int]:
    """masks[w]: the positions i with row[i] = w in some row, as a bitmask."""
    masks = [0] * size
    for row in rows:
        for i, w in enumerate(row):
            masks[w] |= 1 << i
    return masks


def relation_from_subset(m: Monoid, members: Sequence[int]) -> Relation:
    """Relation  s ~ t  iff  p*s = q*t  for some p, q in the given set.

    The set must contain the identity.  The result is always reflexive
    and symmetric but need not be transitive; validate with
    is_right_congruence before treating it as a congruence.  Row s is
    the union over p of the t with q*t = p*s for some q.
    """
    _require_indices(m.order, "subset member", members)
    if 0 not in members:
        raise ValueError("the subset must contain the identity")
    member_rows = [m.table[p] for p in members]
    pre = _value_masks(member_rows, m.order)
    rows = [0] * m.order
    for row in member_rows:
        for s, w in enumerate(row):
            rows[s] |= pre[w]
    return _trusted(Relation, m, tuple(rows))


def _low(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _pairs(rows):
    """The (s, t) with bit t of rows[s] set, in lexicographic order."""
    for s, row in enumerate(rows):
        while row:
            low = row & -row
            yield s, low.bit_length() - 1
            row ^= low


def is_right_congruence(m: Monoid, rel: Relation):
    """Check the four congruence laws; (verdict, witness).

    The witness names the first broken law under lexicographic scan:
    ("reflexivity", (s,)), ("symmetry", (s, t)),
    ("transitivity", (s, t, u)) with s~t, t~u but not s~u, or
    ("compatibility", (s, t, u)) with s~t but not s*u ~ t*u.

    An equivalence is accepted in one pass: the rows are numbered by
    _canonical, and every row must equal the OR of its class's members
    (RightCongruence.relation); only compatibility is then scanned, on
    that class vector.  Any other relation breaks one of the first
    three laws, decided on the row masks, read bit by bit in
    lexicographic order: for each s~t, symmetry fails when row t lacks
    s, and transitivity at the lowest set bit of rows[t] & ~rows[s].
    """
    _require_monoid(m, rel)
    rows = rel.rows
    class_of = _canonical(rows)
    if _trusted(RightCongruence, m, class_of).relation().rows == rows:
        # with r < s related, (s, t, u) failing makes (r, s, u) or
        # (r, t, u) fail, so the class scan finds the lexicographic witness
        bad = _compatibility_failure(m.table, class_of)
        return (True, None) if bad is None else (False, ("compatibility", bad))
    for s, row in enumerate(rows):
        if not row >> s & 1:
            return False, ("reflexivity", (s,))
    for s, t in _pairs(rows):
        if not rows[t] >> s & 1:
            return False, ("symmetry", (s, t))
    # reflexive and symmetric but not an equivalence, so some s~t has
    # rows[t] not within rows[s]
    s, t = next((s, t) for s, t in _pairs(rows) if rows[t] & ~rows[s])
    return False, ("transitivity", (s, t, _low(rows[t] & ~rows[s])))


def relation_to_congruence(m: Monoid, rel: Relation) -> RightCongruence:
    ok, witness = is_right_congruence(m, rel)
    if not ok:
        raise ValueError(f"relation is not a right congruence: {witness}")
    return _checked_congruence(m, rel)


def _checked_congruence(m: Monoid, rel: Relation) -> RightCongruence:
    """Trusted congruence of a relation that passed is_right_congruence."""
    return _trusted(RightCongruence, m, _canonical(map(_low, rel.rows)))


def pullback_relation(m: Monoid, tau, u: int) -> Relation:
    """Relation  s ~ t  iff  (u*s, u*t) lies in tau.

    tau may be a Relation or a RightCongruence.  Pulling a right
    congruence back along left multiplication always yields a right
    congruence again; the raw Relation is returned so callers can
    compare structurally.  Row s is the union of the preimages under
    t -> u*t of the set bits of row u*s of tau.
    """
    _require_monoid(m, tau)
    _require_indices(m.order, "u =", (u,))
    rows = tau.rows if isinstance(tau, Relation) else tau.relation().rows
    pre = _value_masks((m.table[u],), m.order)
    lift = [0] * m.order
    for w, v in _pairs(rows):
        lift[w] |= pre[v]
    return _trusted(Relation, m, tuple(lift[w] for w in m.table[u]))


def left_kernel(m: Monoid, u: int) -> RightCongruence:
    """Kernel of left translation s -> u*s; always a right congruence,
    since u*s = u*t gives u*s*v = u*t*v."""
    _require_indices(m.order, "u =", (u,))
    return _trusted(RightCongruence, m, _canonical(m.table[u]))


def regular_act(m: Monoid) -> Act:
    """The monoid acting on itself by right multiplication."""
    return _trusted(Act, m, m.elements, m.table)


def one_element_act(m: Monoid) -> Act:
    return _trusted(Act, m, ("theta",), ((0,) * m.order,))


def disjoint_union(acts: Sequence[Act]) -> Act:
    """Coproduct of acts over one monoid: element x of the k-th act is
    labelled f"{k}:{x}".  The labels are distinct: a position has no
    colon, so the text before the first colon names the act, and the
    labels within one act are distinct already."""
    if not acts:
        raise ValueError("disjoint union needs at least one act")
    monoid = acts[0].monoid
    labels = []
    action = []
    for k, a in enumerate(acts):
        if a.monoid != monoid:
            raise ValueError("all acts must share the monoid")
        base = len(labels)
        labels += [f"{k}:{lab}" for lab in a.elements]
        action += [tuple([base + y for y in row]) for row in a.action]
    return _trusted(Act, monoid, tuple(labels), tuple(action))


def quotient_act(m: Monoid, sigma: RightCongruence) -> Act:
    """Cyclic act S/sigma; each class is labelled by its least member and
    acts through it."""
    _require_monoid(m, sigma)
    cls = sigma.class_of
    reps = _least_members(cls)
    return _trusted(Act, m, tuple(f"[{m.label(r)}]" for r in reps),
                    tuple(tuple([cls[y] for y in m.table[r]]) for r in reps))


def quotient_map(m: Monoid, sigma: RightCongruence) -> ActMap:
    """Projection from the regular act onto S/sigma."""
    return _trusted(ActMap, regular_act(m), quotient_act(m, sigma), sigma.class_of)


def canonical_projection(m: Monoid, sigma: RightCongruence, rho: RightCongruence) -> ActMap:
    """Projection S/sigma -> S/rho when sigma refines rho."""
    _require_monoid(m, sigma)
    _require_monoid(m, rho)
    image = tuple(rho.class_of[r] for r in _least_members(sigma.class_of))
    if any(image[c] != d for c, d in zip(sigma.class_of, rho.class_of)):
        raise ValueError("sigma does not refine rho")
    return _trusted(ActMap, quotient_act(m, sigma), quotient_act(m, rho), image)


def projection_to_one(a: Act) -> ActMap:
    return _trusted(ActMap, a, one_element_act(a.monoid), (0,) * a.size)


def subact_closure(a: Act, seed: Iterable[int]) -> tuple[int, ...]:
    """Indices of the least subact containing the seed elements: the
    union of the orbits x*S, each a subact already since x*1 = x and
    (x*s)*t = x*(s*t)."""
    seed = list(seed)
    if not seed:
        raise EmptySeedError("subact closure needs a nonempty seed")
    _require_indices(a.size, "seed element", seed)
    return tuple(sorted(set().union(*(a.action[x] for x in seed))))


def generating_set(a: Act) -> tuple[int, ...]:
    """Small generating set, found by greedy removal in index order.

    The subact generated by a set is the union of the orbits g*S of its
    members, so x may be dropped exactly when it lies in the orbit of
    another element still kept.
    """
    orbits = [set(row) for row in a.action]
    gens = list(range(a.size))
    for x in range(a.size):
        if len(gens) == 1:
            break
        if x in gens and any(x in orbits[g] for g in gens if g != x):
            gens.remove(x)
    return tuple(gens)


def _extend(a: Act, b: Act, gens: tuple[int, ...], images: tuple[int, ...]):
    """Grow generator images to a full equivariant map, or None.  gens
    must be distinct and generate a, as generating_set(a) does."""
    f: list[Optional[int]] = [None] * a.size
    for g, y in zip(gens, images):
        f[g] = y
    work = list(gens)
    while work:
        x = work.pop()
        fx = f[x]
        for s in range(a.monoid.order):
            y = a.action[x][s]
            fy = b.action[fx][s]
            if f[y] is None:
                f[y] = fy
                work.append(y)
            elif f[y] != fy:
                return None
    return tuple(f)


def homs(a: Act, b: Act) -> list[ActMap]:
    """All equivariant maps a -> b, in deterministic order.

    Backtracks over images of a greedy generating set of a; candidates
    are enumerated lexicographically, so the list order is stable.
    """
    if a.monoid != b.monoid:
        raise ValueError("acts must share the monoid")
    return [_trusted(ActMap, a, b, f) for f in _hom_images(a, b)]


def _hom_images(a: Act, b: Act):
    """Image tuples of the maps a -> b, in lexicographic order of the
    generator images; more than DEFAULT_BUDGET candidates raise before
    any is tried."""
    gens = generating_set(a)
    needed = b.size ** len(gens)
    if needed > DEFAULT_BUDGET:
        raise BudgetExceededError(needed, DEFAULT_BUDGET)
    for images in itertools.product(range(b.size), repeat=len(gens)):
        f = _extend(a, b, gens, images)
        if f is not None:
            yield f


def _translation_profile(a: Act):
    """Cheap isomorphism invariants, by monoid element."""
    profile = []
    for s in range(a.monoid.order):
        col = [a.action[x][s] for x in range(a.size)]
        fixed = sum(1 for x, y in enumerate(col) if x == y)
        profile.append((len(set(col)), fixed))
    return tuple(profile)


def are_isomorphic(a: Act, b: Act) -> Optional[ActMap]:
    """First bijective equivariant map a -> b, or None.

    Uses translation-image and fixed-point counts as a quick filter,
    then the same deterministic backtracking as homs.
    """
    if a.monoid != b.monoid:
        raise ValueError("acts must share the monoid")
    if a.size != b.size:
        return None
    if _translation_profile(a) != _translation_profile(b):
        return None
    f = next((f for f in _hom_images(a, b) if len(set(f)) == a.size), None)
    return None if f is None else _trusted(ActMap, a, b, f)


def cyclic_iso_witness(m: Monoid, sigma: RightCongruence, tau: RightCongruence) -> Optional[int]:
    """Least u certifying S/sigma isomorphic to S/tau, or None.

    The certificate is: pulling tau back along left multiplication by u
    gives exactly sigma, and the class of u generates S/tau.  The first
    condition makes [s] -> [u*s] well defined and injective, the second
    makes it onto, so existence of such a u is equivalent to the two
    cyclic acts being isomorphic.
    """
    _require_monoid(m, sigma)
    qt = quotient_act(m, tau)
    cls, want = tau.class_of, sigma.class_of
    for u in range(m.order):
        if _canonical([cls[v] for v in m.table[u]]) != want:
            continue
        if len(subact_closure(qt, [cls[u]])) == qt.size:
            return u
    return None


def all_right_congruences(m: Monoid) -> list[RightCongruence]:
    """Every right congruence, as class vectors in lexicographic order.

    Backtracks over restricted growth strings, which are exactly the
    canonical class vectors, so the output order is deterministic and
    needs no sort.  Each compatibility check (x, y, x*u, y*u), with
    x < y and x*u != y*u, is filed under the largest of its four
    elements, i; checks whose products are x and y again (u = 1 among
    them) always hold and are dropped.  Once the prefix below i is
    fixed, a check with y = i forbids i the class of x when the
    products, with i in that class, lie apart; a check with a product
    equal to i forces i into the class of the other product when x and
    y are together.  Each node works out its forbidden classes and its
    forced class once, then tries the allowed classes in ascending
    order.  The last position is done in one loop per parent, which
    freezes the prefix once and emits prefix + (v,) for each allowed v.
    Intended for monoids of desk size.
    """
    n = m.order
    if n == 1:
        return [_trusted(RightCongruence, m, (0,))]
    t = m.table
    forbid = [set() for _ in range(n)]
    force = [set() for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            for xu, yu in zip(t[x], t[y]):
                p, q = min(xu, yu), max(xu, yu)
                if p == q or (p, q) == (x, y):
                    continue
                if q > y:
                    force[q].add((x, y, p))
                else:
                    forbid[y].add((x, p, x if q == y else q))
    last = n - 1
    rgs = [0] * n
    found = []
    new, (monoid_, class_of_) = object.__new__, _FILL[RightCongruence]

    def rec(i: int, top: int):
        allowed = range(top + 2)
        if force[i] or forbid[i]:
            forced = {rgs[p] for x, y, p in force[i] if rgs[x] == rgs[y]}
            if len(forced) > 1:
                return
            banned = {rgs[x] for x, p, q in forbid[i] if rgs[p] != rgs[q]}
            allowed = [v for v in forced or allowed if v not in banned]
        if i == last:
            vec = tuple(rgs[:last])
            for v in allowed:
                c = new(RightCongruence)
                monoid_(c, m)
                class_of_(c, vec + (v,))
                found.append(c)
            return
        for v in allowed:
            rgs[i] = v
            rec(i + 1, max(v, top))

    rec(1, 0)
    return found

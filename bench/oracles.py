"""Reference computations the benchmark checks the library against.

None of these call into actcovers: each works on plain tuples (a
multiplication table, an action table, an image vector) with an
algorithm of its own, so a defect in a library code path cannot hide
by being repeated in its own reference.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    """Number of set partitions of an n-element set (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def rgs_of_classes(classes) -> tuple[int, ...]:
    """Restricted growth string of a partition given as classes."""
    n = sum(len(c) for c in classes)
    out = [0] * n
    for ci, c in enumerate(sorted(classes, key=min)):
        for x in c:
            out[x] = ci
    return tuple(out)


def _canonical_rgs(labels) -> tuple[int, ...]:
    renumber = {}
    return tuple(renumber.setdefault(v, len(renumber)) for v in labels)


def _principal(table, a: int, b: int) -> tuple[int, ...]:
    """Least right congruence identifying a and b, as an RGS."""
    n = len(table)
    cls = list(range(n))
    members = {x: [x] for x in range(n)}
    work = [(a, b)]
    while work:
        s, t = work.pop()
        cs, ct = cls[s], cls[t]
        if cs == ct:
            continue
        if len(members[cs]) < len(members[ct]):
            cs, ct = ct, cs
        for x in members.pop(ct):
            cls[x] = cs
            members[cs].append(x)
        work.extend((table[s][u], table[t][u]) for u in range(n))
    return _canonical_rgs(cls)


def _join(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Equivalence join of two partitions given as RGS vectors.

    The join of two right congruences is their join as equivalences,
    because right compatibility survives union and transitive closure.
    """
    n = len(p)
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for vec in (p, q):
        first = {}
        for x, c in enumerate(vec):
            if c in first:
                ra, rb = root(first[c]), root(x)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            else:
                first[c] = x
    return _canonical_rgs(root(x) for x in range(n))


def right_congruences(table) -> list[tuple[int, ...]]:
    """Every right congruence of the monoid, as RGS vectors in
    lexicographic order, by closing the principal ones under joins."""
    n = len(table)
    principals = sorted({_principal(table, a, b)
                         for a in range(n) for b in range(a + 1, n)})
    found = {tuple(range(n))}
    frontier = list(found)
    while frontier:
        nxt = []
        for c in frontier:
            for p in principals:
                j = _join(c, p)
                if j not in found:
                    found.add(j)
                    nxt.append(j)
        frontier = nxt
    return sorted(found)


def quotient_action(table, rgs) -> tuple[tuple[int, ...], ...]:
    """Action table of the cyclic act S/sigma, classes in RGS order."""
    reps = {}
    for x, c in enumerate(rgs):
        reps.setdefault(c, x)
    return tuple(tuple(rgs[table[reps[c]][u]] for u in range(len(table)))
                 for c in range(len(reps)))


def closure(action, seed) -> frozenset:
    """Least subset containing seed that is closed under the action."""
    seen = set(seed)
    stack = list(seen)
    while stack:
        x = stack.pop()
        for y in action[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def strongly_flat(table, action) -> bool:
    """Conditions (P) and (E), each checked from its definition.

    For every element z the pairs (z*u, u) are listed once, so each
    equality x*s = y*t is tested against every (z, u, v) directly.
    """
    nx, ns = len(action), len(table)
    below = [[(z, u) for z in range(nx) for u in range(ns) if action[z][u] == x]
             for x in range(nx)]
    for x, y in itertools.product(range(nx), repeat=2):
        for s, t in itertools.product(range(ns), repeat=2):
            if action[x][s] != action[y][t]:
                continue
            if not any(z == z2 and table[u][s] == table[v][t]
                       for z, u in below[x] for z2, v in below[y]):
                return False
            if x == y and not any(table[u][s] == table[u][t]
                                  for _, u in below[x]):
                return False
    return True


def coessential(source_action, image, target_size) -> bool:
    """No proper closed subset of the source still maps onto the target,
    by enumerating every subset of the source."""
    n = len(source_action)
    for r in range(1, n):
        for sub in itertools.combinations(range(n), r):
            if closure(source_action, sub) != frozenset(sub):
                continue
            if len({image[x] for x in sub}) == target_size:
                return False
    return True


def is_equivariant(src_action, tgt_action, image) -> bool:
    return all(image[src_action[x][s]] == tgt_action[image[x]][s]
               for x in range(len(src_action))
               for s in range(len(src_action[0])))


def is_isomorphism(src_action, tgt_action, image) -> bool:
    return (len(src_action) == len(tgt_action)
            and sorted(image) == list(range(len(tgt_action)))
            and is_equivariant(src_action, tgt_action, image))


def translation_iso(table, rgs_a, rgs_b, u) -> bool:
    """Whether [s] -> [u*s] is an isomorphism S/a -> S/b."""
    act_a = quotient_action(table, rgs_a)
    act_b = quotient_action(table, rgs_b)
    image = [None] * len(act_a)
    for s in range(len(table)):
        y = rgs_b[table[u][s]]
        if image[rgs_a[s]] not in (None, y):
            return False
        image[rgs_a[s]] = y
    return is_isomorphism(act_a, act_b, image)


def isomorphic(act_a, act_b) -> bool:
    """Brute-force search over all bijections."""
    if len(act_a) != len(act_b):
        return False
    return any(is_equivariant(act_a, act_b, perm)
               for perm in itertools.permutations(range(len(act_b))))


def knormal(word) -> tuple[int, ...]:
    """Kruml normal form by insertion: prepending a_m to a normal word
    moves it right past every smaller letter, lowering m by one each
    step (a_m a_i = a_i a_(m-1) for m > i)."""
    out: list[int] = []
    for m in reversed(word):
        pos = 0
        while pos < len(out) and m > out[pos]:
            m -= 1
            pos += 1
        out.insert(pos, m)
    return tuple(out)


def kruml_transition(ground, small, large, word) -> tuple[int, ...]:
    """Push a word from the copy at `small` into the copy at `large`:
    each label inserted, in ground order, prepends the generator indexed
    by how many current members precede it."""
    rank = {lab: i for i, lab in enumerate(ground)}
    current = set(small)
    w = knormal(word)
    for z in sorted(set(large) - current, key=rank.get):
        i = sum(1 for y in current if rank[y] < rank[z])
        w = knormal((i,) + w)
        current.add(z)
    return w

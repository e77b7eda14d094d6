"""Acts, act maps, right congruences, quotients, homs, isomorphism.

Hom sets and congruence lists are cross-checked against raw brute-force
enumerations (all functions / all set partitions), computed before the
frozen literals below were written down.  The congruence search, which
prunes each prefix by the classes its checks forbid or force, is also
checked against the whole-string scan it replaced: every restricted
growth string, kept when the library's compatibility check passes.
"""

import copy
import dataclasses
import itertools
import pickle
import random
import re

import pytest

from actcovers import (
    Act,
    ActMap,
    BudgetExceededError,
    EmptySeedError,
    Relation,
    RightCongruence,
    all_right_congruences,
    are_isomorphic,
    build_from_table,
    canonical_projection,
    compute_colimit,
    congruence_from_partition,
    cyclic_iso_witness,
    disjoint_union,
    enumerate_monoids,
    full_congruence,
    generating_set,
    homs,
    identity_map,
    is_group,
    is_right_congruence,
    one_element_act,
    projection_to_one,
    pullback_relation,
    qiao_wei_truncated,
    quotient_act,
    quotient_map,
    regular_act,
    relation_from_subset,
    relation_to_congruence,
    right_zero_adjoin_one,
    run_qiao_wei,
    run_rightzero,
    subact_closure,
    unique_up_to_iso,
)
from actcovers.acts import _canonical, _checked_congruence, _compatibility_failure, _trusted
from actcovers.scenarios import left_kernel, qiao_rho, qiao_sigmas
from test_acceptance import scenario_systems
from test_flatness import rz2_acts, sigma

RZ2 = right_zero_adjoin_one(2)
RZ3 = right_zero_adjoin_one(3)
Q23 = qiao_wei_truncated(2, 3)
SEMILATTICE = build_from_table(("1", "e"), [[0, 1], [1, 1]])


def relation_of_pairs(m, pairs):
    """Relation through the public constructor, its rows read off a set
    of pairs."""
    rows = [0] * m.order
    for s, t in pairs:
        rows[s] |= 1 << t
    return Relation(m, tuple(rows))


def reference_relation_from_subset(m, members):
    """The pairs relation_from_subset built before relations were rows:
    s ~ t when {p*s} and {q*t}, p and q among the members, meet."""
    n = m.order
    reach = [frozenset(m.table[p][s] for p in members) for s in range(n)]
    return frozenset((s, t) for s in range(n) for t in range(n) if reach[s] & reach[t])


def reference_pullback_relation(m, tau, u):
    """The pairs pullback_relation built by the holds scan: (s, t) with
    (u*s, u*t) in tau."""
    holds = tau.together if isinstance(tau, RightCongruence) else tau.holds
    n, row = m.order, m.table[u]
    return frozenset((s, t) for s in range(n) for t in range(n) if holds(row[s], row[t]))


def reference_relation(c):
    """The pairs RightCongruence.relation built: every pair in a class."""
    return frozenset((s, t) for cls in c.classes for s in cls for t in cls)


def subset_relations(m):
    """relation_from_subset of every member set P with 0 in P."""
    for r in range(m.order):
        for rest in itertools.combinations(range(1, m.order), r):
            yield relation_from_subset(m, (0,) + rest)


def brute_homs(a, b):
    out = []
    for img in itertools.product(range(b.size), repeat=a.size):
        if all(
            img[a.action[x][s]] == b.action[img[x]][s]
            for x in range(a.size)
            for s in range(a.monoid.order)
        ):
            out.append(img)
    return out


def brute_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in brute_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [[first] + p[i]] + p[i + 1:]
        yield [[first]] + p


def brute_right_congruences(m):
    out = []
    for p in brute_partitions(list(range(m.order))):
        cls = {x: i for i, blk in enumerate(p) for x in blk}
        if all(
            cls[m.table[a][s]] == cls[m.table[b][s]]
            for blk in p for a in blk for b in blk for s in range(m.order)
        ):
            out.append(tuple(sorted(tuple(sorted(b)) for b in p)))
    return sorted(out)


def restricted_growth_strings(n):
    """Every canonical class vector of length n, in lexicographic order."""
    rgs = [0] * n

    def rec(i, top):
        if i == n:
            yield tuple(rgs)
            return
        for v in range(top + 2):
            rgs[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)


def scan_right_congruences(m):
    """Class vectors of every right congruence by the whole-string scan:
    each restricted growth string, kept when it is right compatible."""
    return [v for v in restricted_growth_strings(m.order)
            if _compatibility_failure(m.table, v) is None]


def closure_generating_set(a):
    """generating_set by closing the other kept elements each time."""
    gens = list(range(a.size))
    for x in range(a.size):
        if len(gens) == 1:
            break
        rest = [g for g in gens if g != x]
        if x in gens and len(subact_closure(a, rest)) == a.size:
            gens = rest
    return tuple(gens)


def classes_of(class_of):
    return tuple(tuple(x for x, c in enumerate(class_of) if c == k)
                 for k in range(max(class_of) + 1))


class TestActValidation:
    def test_regular_act(self):
        a = regular_act(RZ2)
        assert a.elements == RZ2.elements
        assert a.action == RZ2.table

    def test_identity_law_checked(self):
        with pytest.raises(ValueError):
            Act(RZ2, ("p", "q"), ((1, 0, 1), (1, 1, 1)))

    def test_compatibility_checked(self):
        # x*(z1*z2) must equal (x*z1)*z2
        with pytest.raises(ValueError):
            Act(RZ2, ("p", "q"), ((0, 0, 1), (1, 1, 0)))

    def test_one_element_act(self):
        th = one_element_act(RZ2)
        assert th.elements == ("theta",)
        assert th.action == ((0, 0, 0),)

    def test_actmap_equivariance_checked(self):
        q1 = quotient_act(RZ2, sigma(RZ2, 1))
        with pytest.raises(ValueError):
            ActMap(q1, q1, (1, 1))

    def test_after_composes(self):
        S = regular_act(RZ2)
        th = one_element_act(RZ2)
        p = projection_to_one(S)
        assert p.after(identity_map(S)).image == p.image


class TestRelations:
    def test_subset_relation_two_elements(self):
        rel = relation_from_subset(RZ2, (0, 1))
        assert sorted(rel.pairs) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]

    def test_subset_relation_whole_monoid_not_transitive(self):
        rel = relation_from_subset(RZ2, (0, 1, 2))
        ok, why = is_right_congruence(RZ2, rel)
        assert not ok
        assert why == ("transitivity", (1, 0, 2))

    def test_subset_relation_requires_identity(self):
        with pytest.raises(ValueError):
            relation_from_subset(RZ2, (1, 2))

    @pytest.mark.parametrize("members", [(0, -1), (0, 3), (0, 1.0)])
    def test_subset_relation_rejects_out_of_range_member(self, members):
        # -1 would otherwise index the last element, z2
        with pytest.raises(ValueError, match=f"subset member {members[-1]!r} out of range"):
            relation_from_subset(RZ2, members)

    def test_trivial_subset_gives_diagonal(self):
        rel = relation_from_subset(RZ2, (0,))
        assert relation_to_congruence(RZ2, rel).classes == ((0,), (1,), (2,))

    def test_congruence_partition_is_canonical(self):
        c = congruence_from_partition(RZ2, ((2, 1), (0,)))
        assert c.classes == ((0,), (1, 2))

    @pytest.mark.parametrize("classes, match", [
        (((0, 1), (), (2,)), "empty congruence class"),
        (((0, 1),), "classes must partition the monoid"),
        (((0, 1), (1, 2)), "classes must partition the monoid"),
        (((0, 1), (2, 3)), "classes must partition the monoid"),
    ])
    def test_partition_errors(self, classes, match):
        with pytest.raises(ValueError, match=match):
            congruence_from_partition(RZ2, classes)

    def test_right_compatibility_rejected(self):
        # {1, z1} both-sided with {z2} alone is fine, but {1} {z1} {z2}
        # merged wrongly is not: {1, z2} with z1 is a congruence too, so
        # use a genuinely incompatible partition on Q23: 1 with x0.
        bad = ((0, 1), tuple(range(2, Q23.order)))
        with pytest.raises(ValueError):
            congruence_from_partition(Q23, bad)

    def test_together_agrees_with_relation(self):
        for c in (congruence_from_partition(RZ2, [[0], [1], [2]]), sigma(RZ2, 1),
                  full_congruence(RZ2)):
            rel = c.relation()
            for s in range(-4, 5):
                for t in range(-4, 5):
                    assert c.together(s, t) == rel.holds(s, t), (c, s, t)

    @pytest.mark.parametrize("class_of, match", [
        ((0, 0), "needs 3 entries, got 2"),
        ((0, 0, 0, 0), "needs 3 entries, got 4"),
        ((0, "0", 1), r"class_of\[1\] = '0' is not canonical"),
        ((0, 1.0, 1), r"class_of\[1\] = 1.0 is not canonical"),
        ((1, 0, 0), r"class_of\[0\] = 1 is not canonical"),
        ((0, 2, 1), r"class_of\[1\] = 2 is not canonical"),
        ((0, -1, 0), r"class_of\[1\] = -1 is not canonical"),
    ])
    def test_constructor_rejects_bad_vectors(self, class_of, match):
        with pytest.raises(ValueError, match=match):
            RightCongruence(RZ2, class_of)

    def test_constructor_rejects_incompatible_vector(self):
        # every partition of RZ2 is a right congruence; on Q23, 1 with x0
        # apart from the rest breaks at u = x0: 1*x0 = x0 but x0*x0 = x0^2
        with pytest.raises(ValueError, match=r"pair \(0,1\) breaks at u=1"):
            RightCongruence(Q23, (0, 0, 1, 1, 1, 1, 1))

    def test_constructor_takes_the_class_vector(self):
        assert [f.name for f in dataclasses.fields(RightCongruence)] == ["monoid", "class_of"]
        c = RightCongruence(RZ2, [0, 1, 1])
        assert c.class_of == (0, 1, 1) and c.classes == ((0,), (1, 2))
        assert c == congruence_from_partition(RZ2, ((2, 1), (0,)))

    def test_diagonal_and_full(self):
        diag = congruence_from_partition(RZ2, [[i] for i in range(RZ2.order)])
        assert diag.classes == ((0,), (1,), (2,))
        assert full_congruence(RZ2).classes == ((0, 1, 2),)

    def test_relation_rows(self):
        rel = Relation(RZ2, (0b011, 0b011, 0b100))
        assert rel.pairs == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}
        assert rel.holds(1, 0) and not rel.holds(0, 2)
        assert not any(rel.holds(s, t) for s, t in [(-1, 2), (2, -1), (3, 0), (0, 3)])
        assert rel == relation_from_subset(RZ2, (0, 1))
        assert Relation(RZ2, (0, 0, 0)).pairs == frozenset()
        listed = Relation(RZ2, [0b011, 0b011, 0b100])
        assert listed.rows == rel.rows and listed == rel and hash(listed) == hash(rel)

    @pytest.mark.parametrize("rows", [
        (1, 2), (1, 2, 4, 8), (), (1, 0b1000, 4), (1, -1, 4), (1, 2.0, 4), (1, "2", 4),
        (1, None, 4),
    ], ids=["too-few", "too-many", "empty", "mask-2**n", "negative", "float", "str",
            "none"])
    def test_relation_constructor_rejects(self, rows):
        with pytest.raises(ValueError):
            Relation(RZ2, rows)


def scan_compatibility_witness(m, rel):
    """The lexicographic scan is_right_congruence ran before it used the
    class scan: the first (s, t, u) with s~t but not s*u ~ t*u, or None."""
    t_ = m.table
    for s in range(m.order):
        for t in range(m.order):
            if rel.holds(s, t):
                for u in range(m.order):
                    if not rel.holds(t_[s][u], t_[t][u]):
                        return s, t, u
    return None


def reference_class_vector(m, rel):
    """Class vector of an equivalence relation, keyed by the least
    related element found by asking holds for each t in turn."""
    n = m.order
    number = {}
    return tuple(number.setdefault(next(t for t in range(n) if rel.holds(s, t)),
                                   len(number)) for s in range(n))


def reference_is_right_congruence(m, rel):
    """The holds scan is_right_congruence ran before it used row masks:
    (verdict, witness), the first broken law under lexicographic scan."""
    n = m.order
    holds = rel.holds
    for s in range(n):
        if not holds(s, s):
            return False, ("reflexivity", (s,))
    for s in range(n):
        for t in range(n):
            if holds(s, t) and not holds(t, s):
                return False, ("symmetry", (s, t))
    for s in range(n):
        for t in range(n):
            if not holds(s, t):
                continue
            for u in range(n):
                if holds(t, u) and not holds(s, u):
                    return False, ("transitivity", (s, t, u))
    bad = _compatibility_failure(m.table, reference_class_vector(m, rel))
    if bad is not None:
        return False, ("compatibility", bad)
    return True, None


class TestAgainstHoldsScan:
    def test_subset_relations_of_small_monoids(self):
        # relation_from_subset is reflexive and symmetric by construction,
        # so only transitivity fails here; test_properties.py reaches the
        # other laws on arbitrary pair sets
        kinds = {}
        for n in range(1, 5):
            for m in enumerate_monoids(n):
                for r in range(n):
                    for rest in itertools.combinations(range(1, n), r):
                        rel = relation_from_subset(m, (0,) + rest)
                        assert rel.pairs == reference_relation_from_subset(m, (0,) + rest)
                        got = is_right_congruence(m, rel)
                        assert got == reference_is_right_congruence(m, rel)
                        kind = got[1] and got[1][0]
                        kinds[kind] = kinds.get(kind, 0) + 1
                        if got[0]:
                            assert (_checked_congruence(m, rel).class_of
                                    == reference_class_vector(m, rel))
        assert kinds == {None: 1083, "transitivity": 214}

    @pytest.mark.parametrize("pairs,kind,witness", [
        ({(0, 0), (1, 1)}, "reflexivity", (2,)),
        ({(0, 0), (1, 1), (2, 2), (2, 1)}, "symmetry", (2, 1)),
        ({(0, 0), (1, 1), (2, 2), (2, 0), (2, 1)}, "symmetry", (2, 0)),
        ({(0, 0), (1, 1), (2, 2), (0, 2), (2, 0), (1, 2), (2, 1)},
         "transitivity", (0, 2, 1)),
    ])
    def test_each_law_names_its_witness(self, pairs, kind, witness):
        rel = relation_of_pairs(RZ2, pairs)
        assert is_right_congruence(RZ2, rel) == (False, (kind, witness))
        assert reference_is_right_congruence(RZ2, rel) == (False, (kind, witness))

    def test_compatibility_witness(self):
        # every partition of RZ2 is right compatible; 1 ~ x0 in Q23 is not,
        # since 1*x0 = x0 and x0*x0 = x0^2 are apart
        rel = relation_of_pairs(Q23, {(s, s) for s in range(Q23.order)} | {(0, 1), (1, 0)})
        want = (False, ("compatibility", (0, 1, 1)))
        assert is_right_congruence(Q23, rel) == want
        assert reference_is_right_congruence(Q23, rel) == want


def random_equivalence(m, rng):
    """Relation of a random restricted growth string with at most a
    random number of classes."""
    cap = rng.randint(1, m.order)
    rgs = [0]
    for _ in range(1, m.order):
        rgs.append(rng.randrange(min(cap, max(rgs) + 2)))
    n = range(m.order)
    return relation_of_pairs(m, {(s, t) for s in n for t in n if rgs[s] == rgs[t]})


class TestCompatibilityWitness:
    MONOIDS = ([m for n in range(1, 5) for m in enumerate_monoids(n)]
               + [right_zero_adjoin_one(k) for k in range(1, 6)]
               + [qiao_wei_truncated(a, b) for a in range(1, 4) for b in range(1, 5)])

    @staticmethod
    def relations(m, rng):
        for _ in range(40):
            yield random_equivalence(m, rng)
        for r in range(m.order):
            for rest in itertools.combinations(range(1, m.order), r):
                yield relation_from_subset(m, (0,) + rest)

    def test_class_scan_gives_the_lexicographic_witness(self):
        rng = random.Random(9)
        tried = failing = 0
        for m in self.MONOIDS:
            for rel in self.relations(m, rng):
                ok, why = is_right_congruence(m, rel)
                if why is not None and why[0] != "compatibility":
                    continue  # not an equivalence relation
                want = scan_compatibility_witness(m, rel)
                assert (ok, why) == ((True, None) if want is None
                                     else (False, ("compatibility", want)))
                tried += 1
                failing += want is not None
        assert tried > 9000 and failing > 3000


class TestCongruenceEnumeration:
    # frozen counts from the independent partition oracle
    FROZEN = [(RZ2, 5), (RZ3, 15), (Q23, 27), (qiao_wei_truncated(1, 2), 6)]

    @pytest.mark.parametrize("m,count", FROZEN)
    def test_counts(self, m, count):
        assert len(all_right_congruences(m)) == count

    @pytest.mark.parametrize("m,count", FROZEN)
    def test_matches_partition_oracle(self, m, count):
        lib = sorted(c.classes for c in all_right_congruences(m))
        assert lib == brute_right_congruences(m)

    @pytest.mark.parametrize("m,count", [
        pytest.param(right_zero_adjoin_one(8), 21147, id="rightzero8"),  # Bell(9)
        pytest.param(qiao_wei_truncated(3, 4), 254, id="qiaowei(3,4)"),
        pytest.param(qiao_wei_truncated(4, 4), 3672, id="qiaowei(4,4)"),
        pytest.param(qiao_wei_truncated(4, 5), 4586, id="qiaowei(4,5)"),
    ])
    def test_counts_beyond_the_scan(self, m, count):
        assert len(all_right_congruences(m)) == count

    @pytest.mark.parametrize("monoids", [
        pytest.param([m for n in range(1, 5) for m in enumerate_monoids(n)],
                     id="order<=4"),
        pytest.param([right_zero_adjoin_one(k) for k in range(1, 9)],
                     id="rightzero1-8"),
        pytest.param([qiao_wei_truncated(n, cap) for n in range(1, 4)
                      for cap in range(1, 5)], id="qiaowei<=(3,4)"),
    ])
    def test_search_matches_scan_oracle(self, monoids):
        for m in monoids:
            want = scan_right_congruences(m)
            got = all_right_congruences(m)
            assert [c.class_of for c in got] == want, m.elements
            assert [c.classes for c in got] == [classes_of(v) for v in want]

    def test_rz2_exact_list(self):
        got = {c.classes for c in all_right_congruences(RZ2)}
        assert got == {
            ((0,), (1,), (2,)),
            ((0,), (1, 2)),
            ((0, 1), (2,)),
            ((0, 1, 2),),
            ((0, 2), (1,)),
        }


class TestPullback:
    def test_rz2_example(self):
        s1, s2 = sigma(RZ2, 1), sigma(RZ2, 2)
        assert pullback_relation(RZ2, s2, 1).pairs == s1.relation().pairs

    def test_pullback_along_identity(self):
        s1 = sigma(RZ2, 1)
        assert pullback_relation(RZ2, s1, 0).pairs == s1.relation().pairs

    @pytest.mark.parametrize("u", [-1, 3, None])
    def test_pullback_rejects_out_of_range_u(self, u):
        # -1 would otherwise pull back along z2
        with pytest.raises(ValueError, match=f"u = {u!r} out of range"):
            pullback_relation(RZ2, sigma(RZ2, 1), u)

    @pytest.mark.parametrize("u", [-1, 3, None])
    def test_left_kernel_rejects_out_of_range_u(self, u):
        # -1 would otherwise be the kernel of left translation by z2
        with pytest.raises(ValueError, match=f"u = {u!r} out of range"):
            left_kernel(RZ2, u)

    def test_composition_law(self):
        # pullback(pullback(tau, u), v) = pullback(tau, u*v)
        rng = random.Random(11)
        for m in (RZ2, Q23):
            congs = all_right_congruences(m)
            for _ in range(100):
                tau = rng.choice(congs)
                u = rng.randrange(m.order)
                v = rng.randrange(m.order)
                lhs = pullback_relation(m, pullback_relation(m, tau, u), v)
                rhs = pullback_relation(m, tau, m.mul(u, v))
                assert lhs.pairs == rhs.pairs

    def test_pullbacks_match_holds_scan(self):
        # every right congruence and every subset relation of every
        # monoid of order <= 4, and the order s <= t, which is not
        # symmetric, pulled back along every u
        pulled = 0
        for n in range(1, 5):
            for m in enumerate_monoids(n):
                congs = all_right_congruences(m)
                for c in congs:
                    assert c.relation().pairs == reference_relation(c)
                order = relation_of_pairs(m, {(s, t) for s in range(n) for t in range(s, n)})
                for tau in congs + list(subset_relations(m)) + [order]:
                    for u in range(n):
                        assert (pullback_relation(m, tau, u).pairs
                                == reference_pullback_relation(m, tau, u))
                        pulled += 1
        assert pulled == 9790

    def test_pullback_of_congruence_is_congruence(self):
        for m in (RZ2, RZ3, Q23):
            for tau in all_right_congruences(m):
                for u in range(m.order):
                    rel = pullback_relation(m, tau, u)
                    ok, why = is_right_congruence(m, rel)
                    assert ok, (m.elements, tau.classes, u, why)


class TestQuotients:
    def test_quotient_tables(self):
        q1 = quotient_act(RZ2, sigma(RZ2, 1))
        assert q1.elements == ("[1]", "[z2]")
        assert q1.action == ((0, 0, 1), (1, 0, 1))
        q2 = quotient_act(RZ2, sigma(RZ2, 2))
        assert q2.elements == ("[1]", "[z1]")
        assert q2.action == ((0, 1, 0), (1, 1, 0))

    def test_quotient_map_is_epi(self):
        qm = quotient_map(RZ2, sigma(RZ2, 1))
        assert qm.is_epimorphism

    def test_canonical_projection_requires_refinement(self):
        s1 = sigma(RZ2, 1)
        rho = full_congruence(RZ2)
        g = canonical_projection(RZ2, s1, rho)
        assert g.target.size == 1
        with pytest.raises(ValueError):
            canonical_projection(RZ2, rho, s1)

    def test_quotient_by_full_is_theta(self):
        q = quotient_act(RZ2, full_congruence(RZ2))
        assert q.size == 1


class TestSubactsAndGenerators:
    def test_closure_example(self):
        S = regular_act(RZ2)
        assert subact_closure(S, [1]) == (1, 2)
        assert subact_closure(S, [0]) == (0, 1, 2)

    @pytest.mark.parametrize("x", [-1, 3, "1"])
    def test_closure_rejects_bad_seed(self, x):
        # -1 would index the last element's orbit and 3 = a.size its end
        with pytest.raises(ValueError, match=f"^seed element {re.escape(repr(x))} out of range$"):
            subact_closure(regular_act(RZ2), [1, x])

    def test_closure_rejects_empty_seed(self):
        with pytest.raises(EmptySeedError):
            subact_closure(regular_act(RZ2), [])

    def test_closure_accepts_every_valid_seed(self):
        S = regular_act(RZ2)
        assert [subact_closure(S, [x]) for x in range(S.size)] == [
            (0, 1, 2), (1, 2), (1, 2)]

    def test_generating_set(self):
        S = regular_act(RZ2)
        assert generating_set(S) == (0,)
        th = one_element_act(RZ2)
        assert generating_set(th) == (0,)

    def test_generating_set_matches_closure_oracle(self):
        acts = list(rz2_acts(4))
        for n in range(1, 4):
            for m in enumerate_monoids(n):
                qs = [quotient_act(m, c) for c in all_right_congruences(m)]
                acts += [disjoint_union([a, b]) for a in qs for b in qs]
        sizes = [len(closure_generating_set(a)) for a in acts]
        assert [generating_set(a) for a in acts] == [
            closure_generating_set(a) for a in acts]
        assert (len(acts), sizes.count(1), max(sizes)) == (300, 11, 4)

    def test_disjoint_union_labels(self):
        S = regular_act(RZ2)
        u = disjoint_union([S, S])
        assert u.elements[:3] == ("0:1", "0:z1", "0:z2")
        assert u.elements[3:] == ("1:1", "1:z1", "1:z2")
        assert u.size == 6


class TestHoms:
    CASES = [
        ("q2->q1", 1), ("q1->q1", 1), ("theta->q1", 0),
        ("S->S", 3), ("theta->S", 0), ("q1->theta", 1), ("S->theta", 1),
    ]

    @staticmethod
    def _acts():
        S = regular_act(RZ2)
        th = one_element_act(RZ2)
        q1 = quotient_act(RZ2, sigma(RZ2, 1))
        q2 = quotient_act(RZ2, sigma(RZ2, 2))
        return {
            "q2->q1": (q2, q1), "q1->q1": (q1, q1), "theta->q1": (th, q1),
            "S->S": (S, S), "theta->S": (th, S), "q1->theta": (q1, th),
            "S->theta": (S, th),
        }

    @pytest.mark.parametrize("name,count", CASES)
    def test_frozen_counts(self, name, count):
        a, b = self._acts()[name]
        assert len(homs(a, b)) == count

    @pytest.mark.parametrize("name,count", CASES)
    def test_matches_function_oracle(self, name, count):
        a, b = self._acts()[name]
        assert sorted(h.image for h in homs(a, b)) == sorted(brute_homs(a, b))

    def test_q2_to_q1_sends_generator_to_other_class(self):
        a, b = self._acts()["q2->q1"]
        (h,) = homs(a, b)
        assert h.image == (1, 0)

    def test_budget(self, monkeypatch):
        # six generators with 30 possible images each: 30**6 candidates
        # exceed the default budget, which raises before any is tried
        S5 = regular_act(right_zero_adjoin_one(4))
        big = disjoint_union([S5] * 6)
        assert len(generating_set(big)) == 6 and big.size == 30
        tried = []
        monkeypatch.setattr("actcovers.acts._extend", lambda *args: tried.append(args))
        with pytest.raises(BudgetExceededError, match="needs 729000000 candidates"):
            homs(big, big)
        with pytest.raises(BudgetExceededError):
            are_isomorphic(big, big)
        assert tried == []


class TestIsomorphism:
    def test_the_two_quotients(self):
        q1 = quotient_act(RZ2, sigma(RZ2, 1))
        q2 = quotient_act(RZ2, sigma(RZ2, 2))
        f = are_isomorphic(q1, q2)
        assert f is not None and f.is_bijective

    def test_sizes_differ(self):
        q1 = quotient_act(RZ2, sigma(RZ2, 1))
        assert are_isomorphic(q1, one_element_act(RZ2)) is None

    def test_same_size_non_isomorphic(self):
        q1 = quotient_act(RZ2, sigma(RZ2, 1))
        qp = quotient_act(RZ2, congruence_from_partition(RZ2, ((0,), (1, 2))))
        assert are_isomorphic(q1, qp) is None


class TestCyclicIsoWitness:
    def test_rz2_witness_is_z1(self):
        assert cyclic_iso_witness(RZ2, sigma(RZ2, 1), sigma(RZ2, 2)) == 1

    def test_symmetric_direction(self):
        assert cyclic_iso_witness(RZ2, sigma(RZ2, 2), sigma(RZ2, 1)) == 2

    def test_generation_condition_required(self):
        # On the two-element semilattice, pullback(diagonal, e) equals
        # the full relation, but the class of e does not generate S
        # itself; without the generation requirement the witness would
        # wrongly certify theta = S/full vs S = S/diagonal.
        full = full_congruence(SEMILATTICE)
        diag = congruence_from_partition(
            SEMILATTICE, [[i] for i in range(SEMILATTICE.order)])
        pb = pullback_relation(SEMILATTICE, diag, 1)
        assert pb.pairs == full.relation().pairs  # the trap
        assert cyclic_iso_witness(SEMILATTICE, full, diag) is None
        assert are_isomorphic(
            quotient_act(SEMILATTICE, full),
            quotient_act(SEMILATTICE, diag)) is None

    def test_agrees_with_structural_iso_small_monoids(self):
        # the oracle of unique_up_to_iso, over every ordered pair of
        # cyclic quotients of every monoid of order <= 4; the least u is
        # also the one the class-count decision finds
        pairs = isomorphic = 0
        for n in range(1, 5):
            for m in enumerate_monoids(n):
                congs = all_right_congruences(m)
                quots = [quotient_act(m, c) for c in congs]
                for sa, qa in zip(congs, quots):
                    for sb, qb in zip(congs, quots):
                        w = cyclic_iso_witness(m, sa, sb)
                        iso = are_isomorphic(qa, qb)
                        assert (w is None) == (iso is None), (m.table, sa, sb)
                        assert w == iso_witness_by_class_count(m, sa, sb), (m.table, sa, sb)
                        pairs += 1
                        isomorphic += w is not None
        assert (pairs, isomorphic) == (6547, 1073)

    def test_witness_defines_the_isomorphism(self):
        # u certifies: [s] -> [u*s] is a well-defined bijection, the
        # pullback along u making it injective and generation onto; the
        # scenarios label their pairs with u alone, so the map is built
        # here through the validating ActMap, over every ordered
        # congruence pair of every monoid of order <= 4, of RZ2 and of Q23
        certified = 0
        for m in [*(k for n in range(1, 5) for k in enumerate_monoids(n)), RZ2, Q23]:
            congs = all_right_congruences(m)
            for sa in congs:
                for sb in congs:
                    u = cyclic_iso_witness(m, sa, sb)
                    if u is None:
                        continue
                    qa, qb = quotient_act(m, sa), quotient_act(m, sb)
                    image = tuple(
                        sb.class_of[m.mul(u, k[0])] for k in sa.classes)
                    f = ActMap(qa, qb, image)
                    assert f.is_bijective, (m.table, sa.class_of, sb.class_of, u)
                    certified += 1
        assert certified == 1073 + 7 + 33

    @pytest.mark.parametrize("monoids, pairs, isomorphic", [
        ([right_zero_adjoin_one(n) for n in range(1, 6)], 44167, 673),
        ([Q23], 729, 33),
    ], ids=["right-zero-1-5", "Q23"])
    def test_least_witness_equals_the_class_count_decision(self, monoids, pairs, isomorphic):
        # the same least u as the decision on class vectors alone, over
        # every ordered pair of congruences, isomorphic or not; RZ2 is
        # right_zero_adjoin_one(2)
        seen = certified = 0
        for m in monoids:
            congs = all_right_congruences(m)
            for sa in congs:
                for sb in congs:
                    u = cyclic_iso_witness(m, sa, sb)
                    assert u == iso_witness_by_class_count(m, sa, sb), (m.table, sa, sb)
                    seen += 1
                    certified += u is not None
        assert (seen, certified) == (pairs, isomorphic)


def iso_witness_by_class_count(m, sigma, tau):
    """The least u with the pullback of tau along u equal to sigma, when
    sigma and tau have as many classes; else None.  Once the pullback
    matches, [s] -> [u*s] is injective, so the class of u generates
    S/tau exactly when the class counts agree; conversely an
    isomorphism f has f([1]) = [u] for such a u.  No act is built."""
    cls, want = tau.class_of, sigma.class_of
    if max(cls) != max(want):
        return None
    return next((u for u in range(m.order)
                 if _canonical([cls[v] for v in m.table[u]]) == want), None)


# the group of order 3 and sigma_{z1} over RZ2: the same order, so only
# the monoid check tells them apart; a foreign congruence of order 2 or
# 4 also catches an entry that reads class vectors before that check
Z3 = next(m for m in enumerate_monoids(3) if is_group(m))
FOREIGN = sigma(RZ2, 1)
FOREIGN_BY_ORDER = {2: sigma(right_zero_adjoin_one(1), 1), 4: sigma(RZ3, 1)}
Z3_DIAGONAL = congruence_from_partition(Z3, [[0], [1], [2]])


class TestForeignMonoid:
    ENTRIES = {
        "quotient_act": lambda f: quotient_act(Z3, f),
        "quotient_map": lambda f: quotient_map(Z3, f),
        "canonical_projection-sigma": lambda f: canonical_projection(
            Z3, f, full_congruence(Z3)),
        "canonical_projection-rho": lambda f: canonical_projection(Z3, Z3_DIAGONAL, f),
        "cyclic_iso_witness-sigma": lambda f: cyclic_iso_witness(Z3, f, Z3_DIAGONAL),
        "cyclic_iso_witness-tau": lambda f: cyclic_iso_witness(Z3, Z3_DIAGONAL, f),
        "unique_up_to_iso": lambda f: unique_up_to_iso(Z3, [f, f]),
        "unique_up_to_iso-one-entry": lambda f: unique_up_to_iso(Z3, [f]),
        "pullback_relation-congruence": lambda f: pullback_relation(Z3, f, 1),
        "pullback_relation-relation": lambda f: pullback_relation(Z3, f.relation(), 1),
        "is_right_congruence": lambda f: is_right_congruence(Z3, f.relation()),
        "relation_to_congruence": lambda f: relation_to_congruence(Z3, f.relation()),
    }

    @pytest.mark.parametrize("call", ENTRIES.values(), ids=ENTRIES.keys())
    def test_congruence_or_relation_over_another_monoid_is_rejected(self, call):
        with pytest.raises(ValueError, match="over another monoid"):
            call(FOREIGN)

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("call", ENTRIES.values(), ids=ENTRIES.keys())
    def test_a_foreign_monoid_of_another_order_is_rejected(self, call, order):
        with pytest.raises(ValueError, match="over another monoid"):
            call(FOREIGN_BY_ORDER[order])

    def test_an_equal_monoid_is_accepted(self):
        twin = right_zero_adjoin_one(2)
        assert twin is not RZ2 and twin == RZ2
        assert quotient_act(twin, FOREIGN) == quotient_act(RZ2, FOREIGN)
        assert cyclic_iso_witness(twin, FOREIGN, sigma(RZ2, 2)) == 1
        assert is_right_congruence(twin, FOREIGN.relation()) == (True, None)


def trusted_range():
    """Every monoid of order <= 4, the right-zero monoids of order 2..7
    and one truncated two-family monoid."""
    for n in range(1, 5):
        yield from enumerate_monoids(n)
    for n in range(1, 7):
        yield right_zero_adjoin_one(n)
    yield Q23


def public_congruence(m, rel):
    """RightCongruence through the validating constructor, its class
    vector read off the relation: each s is numbered by the class of the
    least t related to it."""
    n = m.order
    least = [min(t for t in range(n) if rel.holds(s, t)) for s in range(n)]
    reps = sorted(set(least))
    return RightCongruence(m, tuple(reps.index(r) for r in least))


def rechecked(obj):
    """The same object built again through its validating constructor."""
    if isinstance(obj, Act):
        return Act(obj.monoid, obj.elements, obj.action)
    if isinstance(obj, ActMap):
        return ActMap(rechecked(obj.source), rechecked(obj.target), obj.image)
    if isinstance(obj, Relation):
        return Relation(obj.monoid, obj.rows)
    return RightCongruence(obj.monoid, obj.class_of)


class TestTrustedPath:
    """Objects the library builds without re-validation pass the public
    constructors' checks, and the congruence scan matches a scan of raw
    relations."""

    def test_congruences_match_relation_scan(self):
        for m in trusted_range():
            congs = all_right_congruences(m)
            for c in congs:
                public = rechecked(c)
                assert public == c and public.class_of == c.class_of
            assert [c.class_of for c in congs] == sorted(c.class_of for c in congs)
            brute = []
            for p in brute_partitions(list(range(m.order))):
                rel = relation_of_pairs(m, {(s, t) for blk in p for s in blk for t in blk})
                if is_right_congruence(m, rel)[0]:
                    brute.append(tuple(sorted(tuple(sorted(b)) for b in p)))
            assert sorted(c.classes for c in congs) == sorted(brute)

    def test_relations_pass_public_checks(self):
        # congruence relations, subset relations and the pullbacks of
        # both along every u
        for m in trusted_range():
            rels = [c.relation() for c in all_right_congruences(m)]
            rels += subset_relations(m)
            rels += [pullback_relation(m, rel, u) for rel in rels for u in range(m.order)]
            for rel in rels:
                assert rechecked(rel) == rel

    def test_closures_and_quotients_pass_public_checks(self):
        for m in trusted_range():
            for c in all_right_congruences(m):
                for obj in (quotient_act(m, c), quotient_map(m, c),
                            canonical_projection(m, c, full_congruence(m))):
                    assert rechecked(obj) == obj

    def test_homs_between_right_zero_quotients_pass_public_checks(self):
        for n in range(1, 5):
            m = right_zero_adjoin_one(n)
            quots = [quotient_act(m, c) for c in all_right_congruences(m)]
            for a in quots:
                for b in quots:
                    for h in homs(a, b):
                        assert rechecked(h) == h
                    iso = are_isomorphic(a, b)
                    assert iso is None or rechecked(iso) == iso

    def test_scenario_colimits_pass_public_checks(self):
        for system in scenario_systems().values():
            result = compute_colimit(system)
            assert rechecked(result.act) == result.act
            for i, inj in result.injections.items():
                assert rechecked(inj) == inj
                assert rechecked(identity_map(system.acts[i])) == \
                    identity_map(system.acts[i])
            for (i, j), f in system.arrows.items():
                composite = result.injections[j].after(f)
                assert rechecked(composite) == composite
                assert composite == result.injections[i]

    def test_scenario_objects_pass_public_checks(self, monkeypatch):
        # every object the rightzero and qiao-wei scenarios build unchecked
        # is rebuilt through its validating constructor
        built = []

        def recorded(cls, *fields):
            obj = _trusted(cls, *fields)
            built.append(obj)
            return obj

        monkeypatch.setattr("actcovers.scenarios._trusted", recorded)
        reports = [run_rightzero(n) for n in range(1, 6)]
        reports += [run_qiao_wei(n, cap) for n in range(1, 4) for cap in range(1, 5)]
        assert all(rep.passed for rep in reports)
        for obj in built:
            assert rechecked(obj) == obj

    def test_disjoint_unions_pass_public_checks(self):
        # labels with colons and digits cannot collide across parts:
        # the text before the first colon is the part's position
        S = regular_act(RZ2)
        parts = (S, quotient_act(RZ2, sigma(RZ2, 1)), one_element_act(RZ2),
                 Act(RZ2, ("b:1", "b:z1", "b:z2"), S.action),
                 Act(RZ2, ("1", "0:1", "10"), S.action))
        for k in range(1, 4):
            for acts in itertools.product(parts, repeat=k):
                u = disjoint_union(acts)
                assert rechecked(u) == u

    def test_disjoint_union_rejects_bad_input(self):
        for acts in ([], [regular_act(RZ2), regular_act(RZ3)]):
            with pytest.raises(ValueError):
                disjoint_union(acts)

    def test_subset_relations_convert_or_raise(self):
        converted = rejected = 0
        for n in range(1, 5):
            for m in enumerate_monoids(n):
                for r in range(n):
                    for rest in itertools.combinations(range(1, n), r):
                        rel = relation_from_subset(m, (0,) + rest)
                        if not is_right_congruence(m, rel)[0]:
                            rejected += 1
                            with pytest.raises(ValueError):
                                relation_to_congruence(m, rel)
                            continue
                        converted += 1
                        c = relation_to_congruence(m, rel)
                        public = public_congruence(m, rel)
                        assert c == public and c.class_of == public.class_of
        assert converted and rejected

    def test_scenario_congruences_match_public_rebuilds(self):
        for n in range(1, 5):
            for cap in range(1, 7):
                m = qiao_wei_truncated(n, cap)
                sigmas, bad = qiao_sigmas(m, n)
                assert bad is None
                x0 = m.index("x0^1")
                rebuilt = [public_congruence(m, relation_from_subset(
                    m, m.submonoid_closure((0, m.index(f"x{i}^1")))))
                    for i in range(n + 1)]
                rebuilt.append(public_congruence(m, qiao_rho(m)))
                diag = congruence_from_partition(m, [[i] for i in range(m.order)])
                rebuilt.append(public_congruence(
                    m, pullback_relation(m, diag, x0)))
                shared = sigmas + [relation_to_congruence(m, qiao_rho(m)),
                                   left_kernel(m, x0)]
                for c, public in zip(shared, rebuilt, strict=True):
                    assert c == public and c.class_of == public.class_of
                assert rechecked(qiao_rho(m)) == qiao_rho(m)


def trusted_objects(m):
    """Objects of the four slotted types built on the library's trusted
    paths: the congruence search, relations, pullbacks,
    quotients, projections, composites and hom sets."""
    congs = all_right_congruences(m)
    rels = [c.relation() for c in congs] + list(subset_relations(m))
    rels += [pullback_relation(m, rel, u) for rel in rels[:8] for u in range(m.order)]
    acts = [regular_act(m), one_element_act(m)]
    maps = [identity_map(acts[0]), projection_to_one(acts[0])]
    for c in congs:
        q = quotient_act(m, c)
        acts.append(q)
        maps += [quotient_map(m, c), canonical_projection(m, c, full_congruence(m))]
        maps.append(maps[-1].after(maps[-2]))
    acts.append(disjoint_union(acts[:3]))
    maps += homs(acts[2], acts[-2])
    return congs + rels + acts + maps


class TestSlottedTypes:
    """Act, ActMap, Relation and RightCongruence are frozen dataclasses
    with slots: no instance dict, no assignment, and the trusted path
    builds objects equal to the checked ones."""

    MONOIDS = [RZ2, RZ3, Q23, SEMILATTICE]

    @pytest.mark.parametrize("m", MONOIDS, ids=lambda m: str(m.order))
    def test_no_instance_dict_and_no_assignment(self, m):
        for obj in trusted_objects(m):
            assert not hasattr(obj, "__dict__")
            for f in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, getattr(obj, f.name))

    @pytest.mark.parametrize("m", MONOIDS, ids=lambda m: str(m.order))
    def test_trusted_objects_equal_their_rebuilds(self, m):
        kinds = set()
        for obj in trusted_objects(m):
            public = rechecked(obj)
            assert public == obj and hash(public) == hash(obj)
            if isinstance(obj, RightCongruence):
                assert public.class_of == obj.class_of
            kinds.add(type(obj))
        assert kinds == {Act, ActMap, Relation, RightCongruence}

    def test_trusted_matches_public_constructor(self):
        s = regular_act(RZ2)
        c = sigma(RZ2, 1)
        q = quotient_act(RZ2, c)
        for trusted, public in [
            (_trusted(Act, RZ2, s.elements, s.action), Act(RZ2, s.elements, s.action)),
            (_trusted(ActMap, s, q, c.class_of), ActMap(s, q, c.class_of)),
            (_trusted(Relation, RZ2, c.relation().rows), Relation(RZ2, c.relation().rows)),
            (_trusted(RightCongruence, RZ2, c.class_of),
             RightCongruence(RZ2, c.class_of)),
        ]:
            assert trusted == public and hash(trusted) == hash(public)
            assert dataclasses.astuple(trusted) == dataclasses.astuple(public)

    @pytest.mark.parametrize("m", MONOIDS, ids=lambda m: str(m.order))
    def test_deepcopy_and_pickle_round_trip(self, m):
        for obj in trusted_objects(m):
            for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert type(twin) is type(obj)
                assert twin == obj and hash(twin) == hash(obj)
                assert all(getattr(twin, f.name) == getattr(obj, f.name)
                           for f in dataclasses.fields(obj))

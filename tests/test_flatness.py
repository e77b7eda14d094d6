"""Condition (P), condition (E), strong flatness reports, and the
strongly flat cyclic quotients the cover search takes, one kernel of
left translation per idempotent.

The exhaustive (P) and (E) scans that try every interpolant are kept
here as the oracles of the generator-preimage bitmask kernels, and the
pairwise cyclic criterion on the congruence, _cyclic_strongly_flat, as
an oracle of the idempotent list.

Free acts are finite disjoint unions of copies of the regular act;
there is no separate constructor for them.
"""

import itertools

from actcovers import (
    Act,
    all_right_congruences,
    build_from_table,
    congruence_from_partition,
    disjoint_union,
    enumerate_monoids,
    generating_set,
    is_strongly_flat,
    one_element_act,
    qiao_wei_truncated,
    quotient_act,
    regular_act,
    relation_from_subset,
    relation_to_congruence,
    right_zero_adjoin_one,
)
from actcovers import flatness
from actcovers.flatness import _strongly_flat_congruences
from actcovers.scenarios import qiao_sigmas, rightzero_sigmas

RZ2 = right_zero_adjoin_one(2)
SEMILATTICE = build_from_table(("1", "e"), [[0, 1], [1, 1]])


def sigma(m, i):
    return relation_to_congruence(m, relation_from_subset(m, (0, i)))


def free_over(m, copies):
    return disjoint_union([regular_act(m)] * copies)


def _cyclic_strongly_flat(sigma):
    """Whether S/sigma is strongly flat: every pair x sigma y needs some
    u sigma 1 with u*x = u*y.  The class of 1 is class 0."""
    t, cls = sigma.monoid.table, sigma.class_of
    rows = [t[u] for u, c in enumerate(cls) if c == 0]
    return all(any(r[x] == r[y] for r in rows)
               for x, y in itertools.combinations(range(len(cls)), 2) if cls[x] == cls[y])


def flat_by_scans(m):
    """The congruences whose built quotient passes the (P)/(E) scans, in
    enumeration order."""
    return [c for c in all_right_congruences(m)
            if is_strongly_flat(quotient_act(m, c)).strongly_flat]


def reference_condition_p(a):
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


def _p_interpolant(a, x, y, s, s2):
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


def reference_condition_e(a):
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


def _e_interpolant(a, x, s, s2):
    nx, ns = a.size, a.monoid.order
    act = a.action
    t = a.monoid.table
    for z in range(nx):
        row = act[z]
        for u in range(ns):
            if row[u] == x and t[u][s] == t[u][s2]:
                return True
    return False


def rz2_acts(max_points):
    """Every act over RZ2 on 1..max_points points, by the actions
    (f1, f2) of z1 and z2: zi*zj = zj forces f_j(f_i(x)) = f_j(x)."""
    for n in range(1, max_points + 1):
        idem = [f for f in itertools.product(range(n), repeat=n)
                if all(f[f[x]] == f[x] for x in range(n))]
        for f1, f2 in itertools.product(idem, repeat=2):
            if all(f1[f2[x]] == f1[x] and f2[f1[x]] == f2[x] for x in range(n)):
                yield Act(RZ2, tuple(f"p{x}" for x in range(n)),
                          tuple((x, f1[x], f2[x]) for x in range(n)))


def scenario_quotients():
    """The quotients run_rightzero(1..5) and the run_qiao_wei grid check
    for strong flatness."""
    out = []
    for n in range(1, 6):
        m = right_zero_adjoin_one(n)
        out += [quotient_act(m, s) for s in rightzero_sigmas(m)[0]]
    for n in range(1, 5):
        for cap in range(1, 7):
            m = qiao_wei_truncated(n, cap)
            out += [quotient_act(m, s) for s in qiao_sigmas(m, n)[0][1:]]
    return out


def conditions(a):
    """is_strongly_flat's ((P) verdict, witness) and ((E) verdict,
    witness), in the shape of the reference scans."""
    rep = is_strongly_flat(a)
    return (rep.condition_p, rep.p_witness), (rep.condition_e, rep.e_witness)


def against_references(acts):
    """(acts, (P) failures, (E) failures), after checking that
    is_strongly_flat gives the reference verdict and witness of both
    conditions on every act."""
    p_fail = e_fail = 0
    for a in acts:
        p, e = conditions(a)
        assert p == reference_condition_p(a), (a.elements, a.action)
        assert e == reference_condition_e(a), (a.elements, a.action)
        p_fail += not p[0]
        e_fail += not e[0]
    return len(acts), p_fail, e_fail


class TestRegularAct:
    def test_p_and_e_trivially(self):
        S = regular_act(RZ2)
        rep = is_strongly_flat(S)
        assert rep.condition_p and rep.p_witness is None
        assert rep.condition_e and rep.e_witness is None
        assert rep.strongly_flat


class TestOneElementAct:
    def test_theta_over_rz2_fails_both(self):
        # u*z1 = z1 and u*z2 = z2 for every u, so nothing consolidates
        # the pair (z1, z2)
        th = one_element_act(RZ2)
        rep = is_strongly_flat(th)
        assert not rep.condition_p and not rep.condition_e
        assert not rep.strongly_flat
        assert rep.p_witness == (0, 0, 1, 2)
        assert rep.e_witness == (0, 1, 2)

    def test_theta_over_semilattice_flat(self):
        # u = e consolidates everything: e*1 = e = e*e
        th = one_element_act(SEMILATTICE)
        assert is_strongly_flat(th).strongly_flat

    def test_theta_over_truncated_monoid_flat(self):
        # x0^cap is a left zero, so it consolidates every pair
        th = one_element_act(qiao_wei_truncated(2, 3))
        assert is_strongly_flat(th).strongly_flat


class TestCyclicQuotients:
    def test_s_mod_sigma_z1_strongly_flat(self):
        q1 = quotient_act(RZ2, sigma(RZ2, 1))
        rep = is_strongly_flat(q1)
        assert rep.strongly_flat
        assert rep.p_witness is None and rep.e_witness is None

    def test_split_quotient_fails(self):
        # classes {1},{z1,z2}: [1]*z1 = [1]*z2 but only 1 maps onto [1]
        # and 1*z1 != 1*z2
        qp = quotient_act(RZ2, congruence_from_partition(RZ2, ((0,), (1, 2))))
        rep = is_strongly_flat(qp)
        assert not rep.condition_e and rep.e_witness == (0, 1, 2)
        assert not rep.condition_p and rep.p_witness == (0, 0, 1, 2)
        assert not rep.strongly_flat

    def test_report_invariant(self):
        for m in (RZ2, SEMILATTICE):
            for cong in (sigma(m, 1), congruence_from_partition(
                    m, tuple((i,) for i in range(m.order)))):
                rep = is_strongly_flat(quotient_act(m, cong))
                assert rep.strongly_flat == (rep.condition_p and rep.condition_e)


class TestFreeActs:
    def test_shape_and_labels(self):
        f = free_over(RZ2, 2)
        assert f.size == 6
        assert f.elements[:3] == ("0:1", "0:z1", "0:z2")

    def test_free_acts_strongly_flat_every_test_monoid(self):
        monoids = [RZ2, right_zero_adjoin_one(3), SEMILATTICE,
                   qiao_wei_truncated(2, 3)]
        monoids += list(enumerate_monoids(3))
        for m in monoids:
            for copies in (1, 2, 3):
                assert is_strongly_flat(free_over(m, copies)).strongly_flat


class TestDisjointUnions:
    def test_union_preserves_strong_flatness(self):
        S = regular_act(RZ2)
        q1 = quotient_act(RZ2, sigma(RZ2, 1))
        u = disjoint_union([S, q1])
        assert is_strongly_flat(u).strongly_flat

    def test_union_with_bad_component_fails(self):
        S = regular_act(RZ2)
        qp = quotient_act(RZ2, congruence_from_partition(RZ2, ((0,), (1, 2))))
        u = disjoint_union([S, qp])
        assert not is_strongly_flat(u).strongly_flat

    def test_union_checks_componentwise(self):
        # a*s = a'*s' never holds across components, so the union is
        # strongly flat exactly when every component is
        th = one_element_act(SEMILATTICE)
        u = disjoint_union([th, th])
        assert is_strongly_flat(u).strongly_flat
        bad = one_element_act(RZ2)
        ub = disjoint_union([regular_act(RZ2), bad])
        rep = is_strongly_flat(ub)
        assert not rep.strongly_flat
        # witness lands inside the theta component (index 3)
        assert rep.e_witness == (3, 1, 2)


class TestAgainstReferenceScans:
    # the failure counts pin the references too: a kernel with a
    # constant answer, or one that finds too few interpolants, fails
    def test_every_act_over_rz2_up_to_four_points(self):
        acts = list(rz2_acts(4))
        # most of them need more than one generator
        assert sum(len(generating_set(a)) > 1 for a in acts) == 142
        assert against_references(acts) == (153, 133, 121)

    def test_every_cyclic_quotient_up_to_order_four(self):
        quotients = [quotient_act(m, c) for n in range(1, 5)
                     for m in enumerate_monoids(n) for c in all_right_congruences(m)]
        assert against_references(quotients) == (1011, 465, 559)

    def test_scenario_quotients_are_strongly_flat(self):
        assert against_references(scenario_quotients()) == (75, 0, 0)

    def test_disjoint_unions_of_two_quotients(self):
        unions = []
        for n in range(1, 4):
            for m in enumerate_monoids(n):
                qs = [quotient_act(m, c) for c in all_right_congruences(m)]
                unions += [disjoint_union([a, b]) for a in qs for b in qs]
        assert against_references(unions) == (147, 59, 85)


    def test_report_finds_the_generators_once(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a)
            return generating_set(a)

        monkeypatch.setattr(flatness, "generating_set", counted)
        acts = list(rz2_acts(3))
        for a in acts:
            is_strongly_flat(a)
        assert calls == acts


class TestCyclicCriterion:
    # the act-level (P)/(E) scans on the built quotient are the oracle
    MONOIDS = ([m for n in range(1, 5) for m in enumerate_monoids(n)]
               + [right_zero_adjoin_one(k) for k in range(1, 6)]
               + [qiao_wei_truncated(n, cap)
                  for n, cap in ((1, 1), (2, 2), (2, 3), (3, 2), (2, 4))])

    def test_matches_is_strongly_flat_on_every_congruence(self):
        # both the pairwise criterion and the idempotent list
        verdicts = []
        for m in self.MONOIDS:
            flat = []
            for cong in all_right_congruences(m):
                fast = _cyclic_strongly_flat(cong)
                assert fast == is_strongly_flat(quotient_act(m, cong)).strongly_flat, (
                    m.elements, cong.classes)
                verdicts.append(fast)
                if fast:
                    flat.append(cong)
            assert _strongly_flat_congruences(m) == flat, m.elements
        # both verdicts occur often, so neither constant answer would pass
        assert (len(verdicts), sum(verdicts)) == (1503, 492)

    def test_idempotent_kernels_on_right_zero_monoids(self):
        # every partition is a right congruence here (Bell(n + 1) of
        # them); the flat ones are the n kernels of left translation by
        # the z_i and the diagonal, the kernel of the identity
        for n in range(1, 9):
            m = right_zero_adjoin_one(n)
            got = _strongly_flat_congruences(m)
            assert got == flat_by_scans(m), n
            assert len(got) == n + 1

    def test_rz2_sigmas_flat_partition_not(self):
        assert _cyclic_strongly_flat(sigma(RZ2, 1))
        assert _cyclic_strongly_flat(sigma(RZ2, 2))
        assert not _cyclic_strongly_flat(
            congruence_from_partition(RZ2, ((0,), (1, 2))))

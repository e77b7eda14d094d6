"""Condition (P), condition (E), strong flatness reports, and the
cyclic criterion the cover search filters with.

Free acts are finite disjoint unions of copies of the regular act;
there is no separate constructor for them.
"""

from actcovers import (
    all_right_congruences,
    build_from_table,
    congruence_from_partition,
    disjoint_union,
    enumerate_monoids,
    is_strongly_flat,
    one_element_act,
    qiao_wei_truncated,
    quotient_act,
    regular_act,
    relation_from_subset,
    relation_to_congruence,
    right_zero_adjoin_one,
    satisfies_condition_e,
    satisfies_condition_p,
)
from actcovers.flatness import _cyclic_strongly_flat

RZ2 = right_zero_adjoin_one(2)
SEMILATTICE = build_from_table(("1", "e"), [[0, 1], [1, 1]])


def sigma(m, i):
    return relation_to_congruence(m, relation_from_subset(m, (0, i)))


def free_over(m, copies):
    labels = tuple(f"g{i}" for i in range(copies))
    return disjoint_union([regular_act(m)] * copies, labels)


class TestRegularAct:
    def test_p_and_e_trivially(self):
        S = regular_act(RZ2)
        ok, w = satisfies_condition_p(S)
        assert ok and w is None
        ok, w = satisfies_condition_e(S)
        assert ok and w is None
        assert is_strongly_flat(S).strongly_flat


class TestOneElementAct:
    def test_theta_over_rz2_fails_both(self):
        # u*z1 = z1 and u*z2 = z2 for every u, so nothing consolidates
        # the pair (z1, z2)
        th = one_element_act(RZ2)
        ok, w = satisfies_condition_p(th)
        assert not ok and w == (0, 0, 1, 2)
        ok, w = satisfies_condition_e(th)
        assert not ok and w == (0, 1, 2)
        rep = is_strongly_flat(th)
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
        ok, w = satisfies_condition_e(qp)
        assert not ok and w == (0, 1, 2)
        ok, w = satisfies_condition_p(qp)
        assert not ok and w == (0, 0, 1, 2)
        assert not is_strongly_flat(qp).strongly_flat

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
        assert f.elements[:3] == ("g0:1", "g0:z1", "g0:z2")

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
        u = disjoint_union([S, q1], ("a", "b"))
        assert is_strongly_flat(u).strongly_flat

    def test_union_with_bad_component_fails(self):
        S = regular_act(RZ2)
        qp = quotient_act(RZ2, congruence_from_partition(RZ2, ((0,), (1, 2))))
        u = disjoint_union([S, qp], ("a", "b"))
        assert not is_strongly_flat(u).strongly_flat

    def test_union_checks_componentwise(self):
        # a*s = a'*s' never holds across components, so the union is
        # strongly flat exactly when every component is
        th = one_element_act(SEMILATTICE)
        u = disjoint_union([th, th], ("a", "b"))
        assert is_strongly_flat(u).strongly_flat
        bad = one_element_act(RZ2)
        ub = disjoint_union([regular_act(RZ2), bad], ("a", "b"))
        rep = is_strongly_flat(ub)
        assert not rep.strongly_flat
        # witness lands inside the theta component (index 3)
        assert rep.e_witness == (3, 1, 2)


class TestCyclicCriterion:
    # the act-level (P)/(E) scans on the built quotient are the oracle
    MONOIDS = ([m for n in range(1, 5) for m in enumerate_monoids(n)]
               + [right_zero_adjoin_one(k) for k in range(1, 6)]
               + [qiao_wei_truncated(n, cap)
                  for n, cap in ((1, 1), (2, 2), (2, 3), (3, 2), (2, 4))])

    def test_matches_is_strongly_flat_on_every_congruence(self):
        verdicts = []
        for m in self.MONOIDS:
            for cong in all_right_congruences(m):
                fast = _cyclic_strongly_flat(cong)
                assert fast == is_strongly_flat(quotient_act(m, cong)).strongly_flat, (
                    m.elements, cong.classes)
                verdicts.append(fast)
        # both verdicts occur often, so neither constant answer would pass
        assert (len(verdicts), sum(verdicts)) == (1503, 492)

    def test_rz2_sigmas_flat_partition_not(self):
        assert _cyclic_strongly_flat(sigma(RZ2, 1))
        assert _cyclic_strongly_flat(sigma(RZ2, 2))
        assert not _cyclic_strongly_flat(
            congruence_from_partition(RZ2, ((0,), (1, 2))))

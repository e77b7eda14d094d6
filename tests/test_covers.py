"""Coessential epimorphisms, precovers/covers wrt a family, the search.

is_coessential is cross-checked against a raw oracle that enumerates
every proper subset of the source and tests closure + surjectivity, and
against the choice-function product scan it replaced, which is kept
here as the reference for both verdict and witness.
"""

import itertools

import pytest

from actcovers import (
    ActMap,
    CoverReport,
    NotEpimorphismError,
    OrderTooLargeError,
    all_right_congruences,
    canonical_projection,
    congruence_from_partition,
    disjoint_union,
    enumerate_monoids,
    homs,
    is_coessential,
    is_cover_wrt,
    is_precover_wrt,
    is_strongly_flat,
    one_element_act,
    projection_to_one,
    qiao_wei_truncated,
    quotient_act,
    quotient_map,
    regular_act,
    right_zero_adjoin_one,
    search_sf_coessential_covers,
    subact_closure,
    unique_up_to_iso,
)
from actcovers.acts import _checked_congruence
from actcovers.scenarios import qiao_rho, qiao_sigmas
from test_flatness import rz2_acts, sigma

RZ2 = right_zero_adjoin_one(2)
S = regular_act(RZ2)
THETA = one_element_act(RZ2)


Q1 = quotient_act(RZ2, sigma(RZ2, 1))
Q2 = quotient_act(RZ2, sigma(RZ2, 2))


def brute_coessential(g):
    # proper closed subsets still mapping onto the target would refute
    src, tgt = g.source, g.target
    for r in range(1, src.size):
        for sub in itertools.combinations(range(src.size), r):
            if subact_closure(src, sub) != sub:
                continue
            if {g.image[x] for x in sub} == set(range(tgt.size)):
                return False
    return True


def reference_coessential(g):
    """The closure of the first choice of preimages, in
    itertools.product order over the fibers, that is a proper subact."""
    src, tgt = g.source, g.target
    fibers = [[x for x in range(src.size) if g.image[x] == t] for t in range(tgt.size)]
    for t, fiber in enumerate(fibers):
        if not fiber:
            raise NotEpimorphismError(t)
    for choice in itertools.product(*fibers):
        closed = subact_closure(src, choice)
        if len(closed) < src.size:
            return CoverReport(False, closed)
    return CoverReport(True, None)


def epimorphisms(acts):
    return [g for a in acts for b in acts for g in homs(a, b) if g.is_epimorphism]


def against_reference(maps):
    """(maps, non-coessential), after checking that is_coessential
    gives the product scan's verdict and witness on every map."""
    refuted = 0
    for g in maps:
        rep = is_coessential(g)
        assert rep == reference_coessential(g), (g.source.action, g.target.action, g.image)
        refuted += not rep.verdict
    return len(maps), refuted


def onto_rho(m):
    """Every epimorphism S/sigma -> S/rho over a truncated qiao-wei
    monoid, rho as in the scenario."""
    rho = quotient_act(m, _checked_congruence(m, qiao_rho(m)))
    return [g for c in all_right_congruences(m)
            for g in homs(quotient_act(m, c), rho) if g.is_epimorphism]


class TestAgainstProductScan:
    # the counts pin the families: every kind has both verdicts, and
    # most refutations have several refuting choices to pick the least of
    def test_every_act_over_rz2_up_to_four_points(self):
        assert against_reference(epimorphisms(list(rz2_acts(4)))) == (6641, 2800)

    def test_quotients_unions_regular_and_one_element_up_to_order_three(self):
        maps = []
        for n in range(1, 4):
            for m in enumerate_monoids(n):
                qs = [quotient_act(m, c) for c in all_right_congruences(m)]
                maps += epimorphisms(qs + [disjoint_union([a, b]) for a in qs for b in qs]
                                     + [regular_act(m), one_element_act(m)])
        assert against_reference(maps) == (2970, 1997)

    def test_quotients_and_regular_act_of_order_four(self):
        maps = []
        for m in enumerate_monoids(4):
            maps += epimorphisms([quotient_act(m, c) for c in all_right_congruences(m)]
                                 + [regular_act(m)])
        assert against_reference(maps) == (4970, 1782)

    def test_qiao_wei_quotients(self):
        m = qiao_wei_truncated(2, 3)
        maps = epimorphisms([quotient_act(m, c) for c in all_right_congruences(m)])
        assert against_reference(maps) == (243, 104)
        m = qiao_wei_truncated(3, 4)
        maps = [quotient_map(m, c) for c in all_right_congruences(m)] + onto_rho(m)
        assert against_reference(maps) == (502, 249)
        assert against_reference(onto_rho(qiao_wei_truncated(4, 6))) == (5484, 5262)

    def test_qiao_wei_scenario_projections(self):
        m = qiao_wei_truncated(8, 10)
        rho = _checked_congruence(m, qiao_rho(m))
        sigmas = qiao_sigmas(m, 8)[0]
        maps = [canonical_projection(m, s, rho) for s in sigmas[1:]]
        assert against_reference(maps) == (8, 0)


class TestCoessential:
    def test_regular_onto_theta_is_not(self):
        rep = is_coessential(projection_to_one(S))
        assert rep.verdict is False
        assert rep.witness == (1, 2)  # the subact {z1, z2}

    def test_q1_onto_theta_is(self):
        rep = is_coessential(projection_to_one(Q1))
        assert rep.verdict is True and rep.witness is None

    def test_quotient_maps_are_coessential(self):
        # S -> S/sigma collapses only inside classes; subact {z1,z2}
        # already misses [1], so no proper subact survives
        for cong in all_right_congruences(RZ2):
            if len(cong.classes) == RZ2.order:
                continue
            g = quotient_map(RZ2, cong)
            assert is_coessential(g).verdict == brute_coessential(g)

    def test_matches_subset_oracle(self):
        acts = [S, THETA, Q1, Q2,
                quotient_act(RZ2, congruence_from_partition(RZ2, ((0,), (1, 2))))]
        from actcovers import homs
        for a in acts:
            for b in acts:
                for g in homs(a, b):
                    if not g.is_epimorphism:
                        continue
                    assert is_coessential(g).verdict == brute_coessential(g)

    def test_non_epi_rejected(self):
        qp = quotient_act(RZ2, congruence_from_partition(RZ2, ((0,), (1, 2))))
        with pytest.raises(NotEpimorphismError):
            is_coessential(ActMap(THETA, qp, (1,)))

    def test_non_epi_names_the_first_empty_fiber(self):
        # [z1] of the second copy is the only image; fibers 0, 1, 2 are empty
        qp = quotient_act(RZ2, congruence_from_partition(RZ2, ((0,), (1, 2))))
        g = ActMap(THETA, disjoint_union([qp, qp]), (3,))
        for decide in (is_coessential, reference_coessential):
            with pytest.raises(NotEpimorphismError) as err:
                decide(g)
            assert err.value.missing == 0


class TestPrecoverAndCover:
    def test_fold_map_is_precover_not_cover(self):
        u = disjoint_union([S, S])
        fold = ActMap(u, S, (0, 1, 2, 0, 1, 2))
        assert is_precover_wrt(fold, [S]).verdict is True
        rep = is_cover_wrt(fold, [S])
        assert rep.verdict is False
        # the collapse-onto-first-copy endomorphism commutes with fold
        assert rep.witness == (0, 1, 2, 0, 1, 2)

    def test_fixed_point_inclusion_is_not_precover(self):
        qp = quotient_act(RZ2, congruence_from_partition(RZ2, ((0,), (1, 2))))
        h = ActMap(THETA, qp, (1,))
        rep = is_precover_wrt(h, [qp])
        assert rep.verdict is False
        assert rep.witness == (0, (0, 1))  # identity of qp cannot factor

    def test_q1_covers_theta_wrt_cyclic_family(self):
        fam = [S, Q1, Q2]
        g = projection_to_one(Q1)
        assert is_cover_wrt(g, fam).verdict is True
        assert is_cover_wrt(projection_to_one(Q2), fam).verdict is True

    def test_family_with_theta_breaks_factorisation(self):
        # theta has no map into Q1 (Q1 has no fixed point), so the
        # identity of theta cannot factor through g
        g = projection_to_one(Q1)
        rep = is_precover_wrt(g, [S, Q1, Q2, THETA])
        assert rep.verdict is False
        assert rep.witness == (3, (0,))

    def test_empty_family_vacuous_precover(self):
        g = projection_to_one(Q1)
        assert is_precover_wrt(g, []).verdict is True


class TestSearch:
    def test_rz2_exact(self):
        res = search_sf_coessential_covers(RZ2, THETA)
        assert [(s.classes, g.image) for s, g in res] == [
            (((0, 1), (2,)), (0, 0)),
            (((0, 2), (1,)), (0, 0)),
        ]
        assert unique_up_to_iso(RZ2, [s for s, _ in res])

    def test_rz3_exact(self):
        m = right_zero_adjoin_one(3)
        res = search_sf_coessential_covers(m, one_element_act(m))
        assert [s.classes for s, _ in res] == [
            ((0, 1), (2,), (3,)),
            ((0, 2), (1,), (3,)),
            ((0, 3), (1,), (2,)),
        ]
        assert unique_up_to_iso(m, [s for s, _ in res])

    def test_results_are_certified(self):
        for s, g in search_sf_coessential_covers(RZ2, THETA):
            assert is_strongly_flat(quotient_act(RZ2, s)).strongly_flat
            assert g.is_epimorphism
            assert is_coessential(g).verdict

    def test_non_cyclic_target_rejected(self):
        two = disjoint_union([THETA, THETA])
        with pytest.raises(ValueError):
            search_sf_coessential_covers(RZ2, two)

    def test_order_bound(self):
        m = qiao_wei_truncated(3, 4)  # 10 elements
        with pytest.raises(OrderTooLargeError):
            search_sf_coessential_covers(m, one_element_act(m))

    def test_bound_override(self):
        m = qiao_wei_truncated(1, 1)  # {1, x0, x1}
        res = search_sf_coessential_covers(m, one_element_act(m), max_order=3)
        # x0 is a left zero, so theta itself (= S/full) is strongly flat
        # and identity-covers theta; other congruences may join it
        assert any(len(s.classes) == 1 for s, _ in res)


class TestUniqueUpToIso:
    def test_mixed_sizes_false(self):
        assert not unique_up_to_iso(
            RZ2, [sigma(RZ2, 1), congruence_from_partition(RZ2, ((0, 1, 2),))])

    def test_same_size_non_isomorphic_false(self):
        split = congruence_from_partition(RZ2, ((0,), (1, 2)))
        assert not unique_up_to_iso(RZ2, [sigma(RZ2, 1), sigma(RZ2, 2), split])
        assert unique_up_to_iso(RZ2, [sigma(RZ2, 1), sigma(RZ2, 2)])

    def test_single_entry_vacuous(self):
        assert unique_up_to_iso(RZ2, [sigma(RZ2, 1)])

    def test_empty_list_vacuous(self):
        assert unique_up_to_iso(RZ2, [])

    def test_sweep_every_cyclic_target_up_to_order_four(self):
        # every (monoid, cyclic target) pair of order <= 4: every target
        # has a strongly flat coessential cyclic quotient, and all of
        # them are isomorphic.  Finite monoids are perfect (Isbell,
        # "Perfect monoids", 1971; Fountain, "Perfect semigroups", 1976),
        # so over a finite monoid a strongly flat coessential cover of a
        # cyclic act is its projective cover, unique up to isomorphism.
        # The sweep therefore checks the library; it does not probe the
        # paper's open question, which concerns infinite monoids.  A
        # non-unique or uncovered pair is a library defect, listed in full.
        pairs = uncovered = 0
        non_unique = []
        for n in range(1, 5):
            for m in enumerate_monoids(n):
                for tau in all_right_congruences(m):
                    found = search_sf_coessential_covers(m, quotient_act(m, tau))
                    sigmas = [s for s, _ in found]
                    pairs += 1
                    uncovered += not found
                    if not unique_up_to_iso(m, sigmas):
                        non_unique.append((m.table, tau.classes,
                                           [s.classes for s in sigmas]))
        assert (pairs, uncovered, non_unique) == (1011, 0, [])

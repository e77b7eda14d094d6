"""Directed systems, their validation, colimits, and universality."""

import pytest

from actcovers import (
    ActMap,
    BudgetExceededError,
    IncoherentArrowsError,
    NotDirectedError,
    are_isomorphic,
    cocones,
    compute_colimit,
    disjoint_union,
    make_system,
    one_element_act,
    projection_to_one,
    quotient_act,
    quotient_map,
    regular_act,
    relation_from_subset,
    relation_to_congruence,
    right_zero_adjoin_one,
    verify_universality,
)

RZ2 = right_zero_adjoin_one(2)
S = regular_act(RZ2)
THETA = one_element_act(RZ2)
SIGMA1 = relation_to_congruence(RZ2, relation_from_subset(RZ2, (0, 1)))
Q1 = quotient_act(RZ2, SIGMA1)

LAM_Z1 = ActMap(S, S, (1, 1, 2))  # left multiplication by z1
LAM_Z2 = ActMap(S, S, (2, 1, 2))


def chain_system():
    return make_system(
        (0, 1, 2),
        [(0, 1), (1, 2), (0, 2)],
        {0: S, 1: S, 2: S},
        {(0, 1): LAM_Z1, (1, 2): LAM_Z1, (0, 2): LAM_Z1},
    )


def quotient_chain_system():
    qm = quotient_map(RZ2, SIGMA1)
    p1 = projection_to_one(Q1)
    ps = projection_to_one(S)
    return make_system(
        (0, 1, 2),
        [(0, 1), (1, 2), (0, 2)],
        {0: S, 1: Q1, 2: THETA},
        {(0, 1): qm, (1, 2): p1, (0, 2): ps},
    )


def fan_system():
    return make_system(
        (0, 1, 2),
        [(0, 2), (1, 2)],
        {0: S, 1: S, 2: S},
        {(0, 2): LAM_Z1, (1, 2): LAM_Z2},
    )


class TestValidation:
    def test_chain_valid(self):
        chain_system()  # must not raise

    def test_fan_valid(self):
        fan_system()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_system((), [], {}, {})

    def test_not_directed(self):
        with pytest.raises(NotDirectedError):
            make_system((0, 1), [], {0: S, 1: S}, {})

    def test_transitive_closure_required(self):
        with pytest.raises(ValueError):
            make_system(
                (0, 1, 2),
                [(0, 1), (1, 2)],
                {0: S, 1: S, 2: S},
                {(0, 1): LAM_Z1, (1, 2): LAM_Z1},
            )

    def test_antisymmetry(self):
        with pytest.raises(ValueError):
            make_system(
                (0, 1), [(0, 1), (1, 0)], {0: S, 1: S},
                {(0, 1): LAM_Z1, (1, 0): LAM_Z1})

    def test_missing_arrow(self):
        with pytest.raises(ValueError):
            make_system((0, 1), [(0, 1)], {0: S, 1: S}, {})

    def test_wrong_endpoints(self):
        with pytest.raises(ValueError):
            make_system(
                (0, 1), [(0, 1)], {0: Q1, 1: S}, {(0, 1): LAM_Z1})

    def test_mixed_monoids(self):
        other = regular_act(right_zero_adjoin_one(3))
        with pytest.raises(ValueError):
            make_system((0, 1), [(0, 1)], {0: S, 1: other},
                        {(0, 1): ActMap(S, other, (0, 1, 2))})

    def test_incoherent_arrows(self):
        with pytest.raises(IncoherentArrowsError) as exc:
            make_system(
                (0, 1, 2),
                [(0, 1), (1, 2), (0, 2)],
                {0: S, 1: S, 2: S},
                {(0, 1): LAM_Z1, (1, 2): LAM_Z1, (0, 2): LAM_Z2},
            )
        assert exc.value.triple == (0, 1, 2)


class TestColimit:
    def test_chain_frozen(self):
        res = compute_colimit(chain_system())
        assert res.act.size == 3
        assert res.act.elements == ("0:1", "0:z2", "2:1")
        assert are_isomorphic(res.act, S) is not None

    def test_chain_injections(self):
        res = compute_colimit(chain_system())
        # node 0 lands entirely in the classes merged by z1-multiplication
        assert res.injections[0].image == (0, 0, 1)
        assert res.injections[2].image == (2, 0, 1)

    def test_quotient_chain_collapses(self):
        res = compute_colimit(quotient_chain_system())
        assert res.act.size == 1
        assert res.act.elements == ("0:1",)

    def test_fan(self):
        res = compute_colimit(fan_system())
        assert res.act.size == 3
        assert res.act.elements == ("0:1", "0:z2", "2:1")
        assert are_isomorphic(res.act, S) is not None

    def test_single_node(self):
        sys1 = make_system(("a",), [], {"a": S}, {})
        res = compute_colimit(sys1)
        assert res.act.elements == ("0:1", "0:z1", "0:z2")
        assert res.injections["a"].is_bijective

    def test_disjoint_probe_component(self):
        # colimit of a single disjoint union keeps both components
        u = disjoint_union([S, THETA], ("p", "q"))
        res = compute_colimit(make_system((0,), [], {0: u}, {}))
        assert res.act.size == 4

    def test_colliding_node_names_get_distinct_labels(self):
        # nodes 1 and "1" have the same str(); labels are tagged by node
        # position, so the identities of both nodes keep apart
        system = make_system((1, "1"), [(1, "1")], {1: S, "1": S},
                             {(1, "1"): LAM_Z1})
        res = compute_colimit(system)
        assert res.act.elements == ("0:1", "0:z2", "1:1")
        for probe in (S, THETA, Q1):
            assert verify_universality(system, res, probe)


class TestCocones:
    def test_chain_cocones_to_s(self):
        fams = cocones(chain_system(), S)
        # f2 ranges over the 3 endomorphisms of S, f1 and f0 are forced
        assert len(fams) == 3
        for fam in fams:
            assert fam[1].image == (1, 1, 2)
            assert fam[0].image == (1, 1, 2)

    def test_chain_cocones_to_theta(self):
        assert len(cocones(chain_system(), THETA)) == 1

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            cocones(chain_system(), S, budget=2)


class TestUniversality:
    PROBES = [S, THETA, Q1, disjoint_union([S, THETA], ("p", "q"))]

    @pytest.mark.parametrize("mk", [chain_system, quotient_chain_system,
                                    fan_system])
    def test_systems_universal(self, mk):
        system = mk()
        res = compute_colimit(system)
        for probe in self.PROBES:
            assert verify_universality(system, res, probe)

    def test_wrong_candidate_rejected(self):
        # padding the colimit with a stray theta component kills
        # universality against probe S: the theta part has nowhere to
        # go, so no cocone to S has a mediator at all
        system = chain_system()
        res = compute_colimit(system)
        fake = disjoint_union([res.act, THETA], ("c", "d"))
        from actcovers.colimit import ColimitResult
        inj = {
            i: ActMap(system.acts[i], fake,
                      tuple(res.injections[i].image[x]
                            for x in range(system.acts[i].size)))
            for i in system.nodes
        }
        fake_res = ColimitResult(fake, inj)
        assert not verify_universality(system, fake_res, S)

"""Directed systems, their validation, colimits, and universality.

compute_colimit and cocones decide everything at the top node of the
system.  The general constructions they replaced are kept here as
oracles: the quotient of the disjoint union by union-find over every
arrow, and the product of every node's hom set filtered by the arrows.
"""

import copy
import itertools
import pickle
import random

import pytest

from actcovers import (
    Act,
    ActMap,
    BudgetExceededError,
    IncoherentArrowsError,
    NotDirectedError,
    all_right_congruences,
    are_isomorphic,
    cocones,
    compute_colimit,
    disjoint_union,
    homs,
    make_system,
    one_element_act,
    projection_to_one,
    qiao_wei_truncated,
    quotient_act,
    quotient_map,
    regular_act,
    relation_from_subset,
    relation_to_congruence,
    right_zero_adjoin_one,
    verify_universality,
)
from actcovers.colimit import ColimitResult, DirectedSystem

RZ2 = right_zero_adjoin_one(2)
S = regular_act(RZ2)
THETA = one_element_act(RZ2)
SIGMA1 = relation_to_congruence(RZ2, relation_from_subset(RZ2, (0, 1)))
Q1 = quotient_act(RZ2, SIGMA1)

LAM_Z1 = ActMap(S, S, (1, 1, 2))  # left multiplication by z1
LAM_Z2 = ActMap(S, S, (2, 1, 2))


def union_find_colimit(system):
    """The quotient of the disjoint union by union-find over every
    arrow, merging under the smaller root so that roots are least
    members."""
    sizes = [system.acts[i].size for i in system.nodes]
    union = disjoint_union([system.acts[i] for i in system.nodes])
    start = dict(zip(system.nodes, itertools.accumulate(sizes, initial=0)))
    parent = list(range(union.size))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for (i, j), f in system.arrows.items():
        for x, y in enumerate(f.image):
            ra, rb = sorted((find(start[i] + x), find(start[j] + y)))
            parent[rb] = ra
    roots = [find(a) for a in range(union.size)]
    reps = [a for a, r in enumerate(roots) if a == r]
    cls = [reps.index(r) for r in roots]
    act = Act(union.monoid, tuple(union.elements[r] for r in reps),
              tuple(tuple(cls[y] for y in union.action[r]) for r in reps))
    return ColimitResult(act, {
        i: ActMap(system.acts[i], act, tuple(cls[start[i]:start[i] + n]))
        for i, n in zip(system.nodes, sizes)
    })


def product_cocones(system, probe):
    """Every family of node maps to the probe, from the product of the
    node hom sets, kept when it commutes with the arrows."""
    out = []
    for combo in itertools.product(*(homs(system.acts[i], probe) for i in system.nodes)):
        family = dict(zip(system.nodes, combo))
        if all(family[j].after(system.arrow(i, j)) == family[i] for i, j in system.order):
            out.append(family)
    return out


def family_images(families, nodes):
    return sorted(tuple(f[i].image for i in nodes) for f in families)


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


def node_acts(m):
    """The regular act, theta and every cyclic quotient of m."""
    return [regular_act(m), one_element_act(m)] + [
        quotient_act(m, c) for c in all_right_congruences(m)[1:-1]]


def random_system(rng, m, shape):
    """A chain of 1-4 nodes, a fan of 1-3 nodes into a sink, or a
    diamond b < l, r < t, with random node acts and arrows and the node
    names listed in a random order."""
    pool = node_acts(m)
    names = rng.sample(("p", "q", "r", "s"), 4)
    acts, arrows = {}, {}
    if shape == "chain":
        names = names[:rng.randint(1, 4)]
        acts[names[0]] = rng.choice(pool)
        for k, (i, j) in enumerate(zip(names, names[1:])):
            acts[j] = rng.choice([a for a in pool if homs(acts[i], a)])
            step = rng.choice(homs(acts[i], acts[j]))
            arrows.update({(h, j): step.after(arrows[(h, i)]) for h in names[:k]})
            arrows[(i, j)] = step
    elif shape == "fan":
        names = names[:rng.randint(2, 4)]
        sink = acts[names[-1]] = rng.choice(pool)
        for i in names[:-1]:
            acts[i] = rng.choice([a for a in pool if homs(a, sink)])
            arrows[(i, names[-1])] = rng.choice(homs(acts[i], sink))
    else:
        b, l, r, t = names
        acts[t] = rng.choice(pool)
        for i in (l, r):
            acts[i] = rng.choice([a for a in pool if homs(a, acts[t])])
            arrows[(i, t)] = rng.choice(homs(acts[i], acts[t]))
        acts[b], arrows[(b, l)], arrows[(b, r)] = rng.choice([
            (a, f, g) for a in pool for f in homs(a, acts[l]) for g in homs(a, acts[r])
            if arrows[(l, t)].after(f) == arrows[(r, t)].after(g)])
        arrows[(b, t)] = arrows[(l, t)].after(arrows[(b, l)])
    return make_system(rng.sample(names, len(names)), list(arrows), acts, arrows)


MONOIDS = [right_zero_adjoin_one(2), right_zero_adjoin_one(3), qiao_wei_truncated(1, 2)]


class TestTopNodeAgainstOracles:
    @pytest.mark.parametrize("m", MONOIDS, ids=["rz2", "rz3", "qw12"])
    @pytest.mark.parametrize("shape", ["chain", "fan", "diamond"])
    def test_colimit_and_cocones(self, m, shape):
        rng = random.Random(f"{shape}-{m.order}")
        s, theta = regular_act(m), one_element_act(m)
        probes = [s, theta] + node_acts(m)[2:] + [disjoint_union([s, theta])]
        for _ in range(25):
            system = random_system(rng, m, shape)
            got, want = compute_colimit(system), union_find_colimit(system)
            assert got == want
            assert list(got.injections) == list(want.injections)
            for probe in probes:
                assert (family_images(cocones(system, probe), system.nodes)
                        == family_images(product_cocones(system, probe), system.nodes))


class TestSystemsWithoutMakeSystem:
    """DirectedSystem built directly validates itself as make_system does."""

    def test_no_top_node(self):
        with pytest.raises(NotDirectedError):
            DirectedSystem((0, 1), frozenset(), {0: S, 1: S}, {})

    def test_incoherent_arrows_under_a_top(self):
        with pytest.raises(IncoherentArrowsError) as exc:
            DirectedSystem(
                (0, 1, 2), frozenset([(0, 1), (1, 2), (0, 2)]), {0: S, 1: S, 2: S},
                {(0, 1): LAM_Z1, (1, 2): LAM_Z1, (0, 2): LAM_Z2})
        assert exc.value.triple == (0, 1, 2)

    def test_top_listed_first(self):
        system = DirectedSystem(
            (2, 0, 1), frozenset([(0, 1), (1, 2), (0, 2)]), {0: S, 1: S, 2: S},
            {(0, 1): LAM_Z1, (1, 2): LAM_Z1, (0, 2): LAM_Z1})
        assert compute_colimit(system) == union_find_colimit(system)

    def test_reflexive_pairs_normalized_like_make_system(self):
        # a list of nodes, reflexive pairs and arrow pairs as a list: the
        # fields come out as make_system builds them
        arrows = {(0, 1): LAM_Z1, (1, 2): LAM_Z1, (0, 2): LAM_Z1}
        pairs = [(0, 0), (0, 1), (1, 1), (1, 2), (0, 2), (2, 2)]
        system = DirectedSystem([0, 1, 2], pairs, {0: S, 1: S, 2: S}, arrows)
        assert system == make_system((0, 1, 2), pairs, {0: S, 1: S, 2: S}, arrows)
        assert system == chain_system()
        assert system.nodes == (0, 1, 2)
        assert system.order == frozenset([(0, 1), (1, 2), (0, 2)])
        assert system.arrows is not arrows


class TestReadOnlyFields:
    """acts and arrows cannot change after validation, and a system
    survives pickle and deepcopy as an equal, still read-only, system."""

    SYSTEMS = [chain_system, quotient_chain_system, fan_system]

    @pytest.mark.parametrize("mk", SYSTEMS)
    def test_fields_reject_mutation(self, mk):
        system = mk()
        with pytest.raises(TypeError):
            system.acts[0] = THETA
        with pytest.raises(TypeError):
            del system.acts[0]
        with pytest.raises(TypeError):
            system.arrows[(0, 2)] = LAM_Z2
        with pytest.raises(TypeError):
            del system.arrows[(0, 2)]
        assert system == mk()

    def test_incoherent_arrow_cannot_be_slipped_in(self):
        # replacing an arrow after validation would leave cocones with 3
        # families where the product oracle finds 0
        system = chain_system()
        with pytest.raises(TypeError):
            system.arrows[(0, 2)] = LAM_Z2
        assert len(cocones(system, S)) == len(product_cocones(system, S)) == 3
        assert compute_colimit(system) == union_find_colimit(system)

    @pytest.mark.parametrize("mk", SYSTEMS)
    @pytest.mark.parametrize("roundtrip", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"])
    def test_round_trips(self, mk, roundtrip):
        system = mk()
        back = roundtrip(system)
        assert back == system
        assert back.nodes == system.nodes and back.order == system.order
        with pytest.raises(TypeError):
            back.arrows[(0, 2)] = LAM_Z2
        assert compute_colimit(back) == compute_colimit(system)
        for probe in (S, THETA, Q1):
            assert (family_images(cocones(back, probe), back.nodes)
                    == family_images(cocones(system, probe), system.nodes))


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
        u = disjoint_union([S, THETA])
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
        # six generators with 30 possible images each: 30**6 candidates
        # for the map out of the top exceed the default budget
        big = disjoint_union([regular_act(right_zero_adjoin_one(4))] * 6)
        with pytest.raises(BudgetExceededError):
            cocones(make_system(("a",), [], {"a": big}, {}), big)


class TestUniversality:
    PROBES = [S, THETA, Q1, disjoint_union([S, THETA])]

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
        fake = disjoint_union([res.act, THETA])
        from actcovers.colimit import ColimitResult
        inj = {
            i: ActMap(system.acts[i], fake,
                      tuple(res.injections[i].image[x]
                            for x in range(system.acts[i].size)))
            for i in system.nodes
        }
        fake_res = ColimitResult(fake, inj)
        assert not verify_universality(system, fake_res, S)

    def test_two_mediators_rejected(self):
        # theta at one node, against the candidate theta + theta with the
        # first copy as injection: the stray second copy may go to either
        # copy of the probe theta + theta, so each cocone has two mediators
        system = make_system(("n",), [], {"n": THETA}, {})
        twice = disjoint_union([THETA, THETA])
        res = ColimitResult(twice, {"n": ActMap(THETA, twice, (0,))})
        assert len(cocones(system, twice)) == 2
        assert len(homs(twice, twice)) == 4
        assert not verify_universality(system, res, twice)

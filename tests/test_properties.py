"""Property tests for the Kruml word monoid, its subset system,
colimits of directed systems, and the congruence and cover searches,
the (P)/(E) kernels, the coessentiality test and the relation laws
against their oracles on generated small monoids; and the laws of
pullbacks and subact closures there.

Hypothesis is a test-only dependency (the `test` extra); without it the
module is skipped.  Runs are derandomized and keep no example database,
so every run checks the same examples.
"""

import collections
import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from actcovers import (  # noqa: E402
    Act,
    FinXSystem,
    all_right_congruences,
    build_from_table,
    cocones,
    compute_colimit,
    disjoint_union,
    enumerate_monoids,
    homs,
    is_coessential,
    is_right_congruence,
    is_strongly_flat,
    is_normal,
    kmul,
    knormalize,
    make_system,
    one_element_act,
    pullback_relation,
    quotient_act,
    regular_act,
    relation_from_subset,
    relation_to_congruence,
    right_zero_adjoin_one,
    search_sf_coessential_covers,
    subact_closure,
    verify_universality,
)
from actcovers.flatness import _strongly_flat_congruences  # noqa: E402
from actcovers.kruml import _coded_rows, _decode, _mask, _word  # noqa: E402
from test_acts import (  # noqa: E402
    classes_of,
    reference_is_right_congruence,
    relation_of_pairs,
    scan_right_congruences,
)
from test_colimit import family_images, product_cocones, union_find_colimit  # noqa: E402
from test_covers import reference_coessential  # noqa: E402
from test_flatness import (  # noqa: E402
    _cyclic_strongly_flat,
    conditions,
    reference_condition_e,
    reference_condition_p,
)
from test_kruml import rightmost_normalize  # noqa: E402

SETTINGS = settings(deadline=None, derandomize=True, database=None)
words = st.lists(st.integers(0, 8), max_size=12).map(tuple)
# short words over few letters, so that distinct words often name the
# same element
short_words = st.lists(st.integers(0, 3), max_size=4).map(tuple)
GROUND = ("a", "b", "c", "d", "e", "f")

RZ2 = right_zero_adjoin_one(2)
S = regular_act(RZ2)
THETA = one_element_act(RZ2)
Q1 = quotient_act(RZ2, relation_to_congruence(RZ2, relation_from_subset(RZ2, (0, 1))))
# node acts and their copies relabelled through the public constructor;
# with node names from NAMES, "a" tagging "b:1" and "a:b" tagging "1"
# spell the same string, as do 1 and "1" tagging anything
NODE_ACTS = [a for b in (S, Q1, THETA)
             for a in (b, Act(RZ2, tuple(f"b:{x}" for x in b.elements), b.action))]
NAMES = (1, "1", "a", "a:b")
SMALL_MONOIDS = [m for n in range(1, 5) for m in enumerate_monoids(n)]
# transformation monoids above this order are rejected, so that the
# cover search stays within its default order bound; the congruence
# search is checked against the whole-string scan one order further
MAX_ORDER = 8
SCAN_ORDER = 9


def transformation_table(maps, points, max_order):
    """Table of the monoid generated by the maps (composed left to
    right), identity first, or None beyond max_order elements."""
    elems = [tuple(range(points))]
    index = {elems[0]: 0}
    for a in elems:
        for g in maps:
            c = tuple(g[x] for x in a)
            if c not in index:
                if len(elems) == max_order:
                    return None
                index[c] = len(elems)
                elems.append(c)
    return [[index[tuple(b[x] for x in a)] for b in elems] for a in elems]


def two_map_tables(points, lo, hi):
    """Distinct tables of order lo..hi of the monoids generated by two
    maps on the points.  The first map runs over the least map of each
    conjugacy class, which reaches every two-generated monoid up to a
    relabelling of the points."""
    maps = list(itertools.product(range(points), repeat=points))
    perms = list(itertools.permutations(range(points)))

    def conjugate(f, p):
        h = [0] * points
        for x, y in enumerate(f):
            h[p[x]] = p[y]
        return tuple(h)

    tables = {}
    for f in maps:
        if any(conjugate(f, p) < f for p in perms):
            continue
        for g in maps:
            table = transformation_table((f, g), points, hi)
            if table is not None and len(table) >= lo:
                tables.setdefault(tuple(map(tuple, table)), None)
    return list(tables)


# small_monoids draws few monoids of orders 8 and 9, so the congruence
# search has its own property there
TABLES_8_9 = two_map_tables(4, 8, SCAN_ORDER)


@st.composite
def small_monoids(draw, max_order=MAX_ORDER):
    if draw(st.booleans(), label="enumerated"):
        return draw(st.sampled_from(SMALL_MONOIDS))
    points = draw(st.integers(3, 4))
    maps = draw(st.lists(st.tuples(*[st.integers(0, points - 1)] * points),
                         min_size=2, max_size=3))
    table = transformation_table(maps, points, max_order)
    assume(table is not None)
    return build_from_table(["1"] + [f"f{i}" for i in range(1, len(table))], table)


def unfiltered_search(m, target):
    """search_sf_coessential_covers without the cyclic filter: every
    quotient is built and checked with is_strongly_flat."""
    found = []
    for sigma in all_right_congruences(m):
        q = quotient_act(m, sigma)
        if not is_strongly_flat(q).strongly_flat:
            continue
        for g in homs(q, target):
            if g.is_epimorphism and is_coessential(g).verdict:
                found.append((sigma, g))
                break
    return found


@SETTINGS
@given(words)
def test_knormalize_is_the_rightmost_normal_form(w):
    nf = knormalize(w)
    assert nf == rightmost_normalize(w)
    assert is_normal(nf)
    assert knormalize(nf) == nf


@SETTINGS
@given(st.integers(0, 5), st.integers(0, 4), st.integers(0, 9))
def test_append_is_the_normal_form_of_the_product(max_len, max_index, letters):
    # each coded product against normalizing the product afresh; letters
    # above and below max_index + 1 both occur
    shift, groups = _coded_rows(max_len, max_index, letters)
    for codes, rows in groups:
        assert len(rows) == letters
        for k, code in enumerate(codes):
            w = _decode(code, shift)
            assert is_normal(w) and len(w) <= max_len
            for i, row in enumerate(rows):
                r = _decode(row[k], shift)
                assert r == knormalize(w + (i,)) == rightmost_normalize(w + (i,))


@SETTINGS
@given(st.integers(0, 12), words)
def test_left_multiplication_inserts_a_bit(m, w):
    # a_m on a missing set keeps the bits below m, sets bit m and moves
    # the bits from m up by one; the result is the mask of the product
    mask = _mask(w)
    left = mask & (1 << m) - 1 | 1 << m | mask >> m << m + 1
    assert left == _mask((m,), mask) == _mask(knormalize((m,) + w))
    assert _word(left) == knormalize((m,) + w) == rightmost_normalize((m,) + w)


@SETTINGS
@given(words, words, words)
def test_kmul_associative(u, v, w):
    assert kmul(kmul(u, v), w) == kmul(u, kmul(v, w))


@SETTINGS
@given(words, short_words, short_words)
def test_kmul_left_cancellative(w, u, v):
    assert (kmul(w, u) == kmul(w, v)) == (knormalize(u) == knormalize(v))


@SETTINGS
@given(st.lists(st.sampled_from((0, 1, 2)), min_size=len(GROUND), max_size=len(GROUND)),
       st.randoms(use_true_random=False), words)
def test_transition_path_independent(flags, rng, w):
    # flag 2: in the small subset; 1: inserted later; 0: left out
    fs = FinXSystem(GROUND)
    small = tuple(z for z, f in zip(GROUND, flags) if f == 2)
    missing = [z for z, f in zip(GROUND, flags) if f == 1]
    rng.shuffle(missing)
    cur, word = small, knormalize(w)
    for z in missing:
        word = fs.transition(cur, cur + (z,), word)
        cur += (z,)
    assert word == fs.transition(small, cur, w)


def draw_system(data, pool, names):
    """A chain n0 < n1 < ..., a fan of the other nodes into the last one,
    or a diamond n0 < n1, n2 < n3, with node acts drawn from the pool and
    arrows from their hom sets; nodes are listed in a drawn order, so the
    top is not always last."""
    shape = data.draw(st.sampled_from(("chain", "fan", "diamond")), label="shape")
    names = data.draw(st.permutations(names))
    if shape != "diamond":
        names = names[:data.draw(st.integers(1, len(names)))]
    acts, arrows = {}, {}
    if shape == "fan":
        sink = acts[names[-1]] = data.draw(st.sampled_from(pool))
        for i in names[:-1]:
            acts[i] = data.draw(st.sampled_from([a for a in pool if homs(a, sink)]))
            arrows[(i, names[-1])] = data.draw(st.sampled_from(homs(acts[i], sink)))
    elif shape == "chain":
        acts[names[0]] = data.draw(st.sampled_from(pool))
        for k, (i, j) in enumerate(zip(names, names[1:])):
            acts[j] = data.draw(st.sampled_from([a for a in pool if homs(acts[i], a)]))
            step = data.draw(st.sampled_from(homs(acts[i], acts[j])))
            arrows.update({(h, j): step.after(arrows[(h, i)]) for h in names[:k]})
            arrows[(i, j)] = step
    else:
        b, l, r, t = names
        acts[t] = data.draw(st.sampled_from(pool))
        for i in (l, r):
            acts[i] = data.draw(st.sampled_from([a for a in pool if homs(a, acts[t])]))
            arrows[(i, t)] = data.draw(st.sampled_from(homs(acts[i], acts[t])))
        # l and r may have disjoint images in t, so that nothing lies below both
        cones = [(a, f, g) for a in pool for f in homs(a, acts[l]) for g in homs(a, acts[r])
                 if arrows[(l, t)].after(f) == arrows[(r, t)].after(g)]
        assume(cones)
        acts[b], arrows[(b, l)], arrows[(b, r)] = data.draw(st.sampled_from(cones))
        arrows[(b, t)] = arrows[(l, t)].after(arrows[(b, l)])
    return make_system(data.draw(st.permutations(names)), list(arrows), acts, arrows)


@SETTINGS
@given(st.data())
def test_colimits_of_colliding_node_names_are_universal(data):
    system = draw_system(data, NODE_ACTS, NAMES)
    result = compute_colimit(system)
    assert result == union_find_colimit(system)
    assert len(set(result.act.elements)) == result.act.size
    for probe in (S, THETA, Q1):
        assert verify_universality(system, result, probe)
        assert (family_images(cocones(system, probe), system.nodes)
                == family_images(product_cocones(system, probe), system.nodes))


@SETTINGS
@given(small_monoids(), st.data())
def test_colimits_over_small_monoids_match_oracles(m, data):
    # node acts over a generated monoid: cocones keeps every family built
    # from a map out of the top, and the product of all node hom sets,
    # filtered by the arrows, must give the same families
    s, theta = regular_act(m), one_element_act(m)
    pool = [s, theta] + [quotient_act(m, c) for c in all_right_congruences(m)]
    system = draw_system(data, pool, ("p", "q", "r", "s"))
    result = compute_colimit(system)
    assert result == union_find_colimit(system)
    for probe in (s, theta, data.draw(st.sampled_from(pool), label="probe")):
        assert verify_universality(system, result, probe)
        assert (family_images(cocones(system, probe), system.nodes)
                == family_images(product_cocones(system, probe), system.nodes))


@SETTINGS
@given(small_monoids(SCAN_ORDER))
def test_congruence_search_matches_scan_oracle(m):
    got = all_right_congruences(m)
    want = scan_right_congruences(m)
    assert [c.class_of for c in got] == want
    assert [c.classes for c in got] == [classes_of(v) for v in want]


def test_congruence_search_matches_scan_oracle_on_orders_8_9():
    orders = collections.Counter()

    @settings(SETTINGS, max_examples=60)
    @given(st.sampled_from(TABLES_8_9))
    def check(table):
        m = build_from_table(["1"] + [f"f{i}" for i in range(1, len(table))], table)
        orders[m.order] += 1
        assert [c.class_of for c in all_right_congruences(m)] == scan_right_congruences(m)

    check()
    assert set(orders) == {8, 9}, orders


def test_idempotent_kernels_match_cyclic_criterion_on_orders_8_9():
    # the pairwise criterion on every right congruence is the oracle of
    # the list of strongly flat ones read off the idempotents
    orders = collections.Counter()

    @settings(SETTINGS, max_examples=60)
    @given(st.sampled_from(TABLES_8_9))
    def check(table):
        m = build_from_table(["1"] + [f"f{i}" for i in range(1, len(table))], table)
        orders[m.order] += 1
        want = [c for c in all_right_congruences(m) if _cyclic_strongly_flat(c)]
        assert _strongly_flat_congruences(m) == want

    check()
    assert set(orders) == {8, 9}, orders


@SETTINGS
@given(small_monoids(), st.data())
def test_cover_search_matches_unfiltered_reference(m, data):
    target = quotient_act(m, data.draw(st.sampled_from(all_right_congruences(m))))
    assert search_sf_coessential_covers(m, target) == unfiltered_search(m, target)


@SETTINGS
@given(small_monoids(), st.data())
def test_flatness_kernels_match_reference_scans(m, data):
    # unions of several quotients need several generators
    congruences = all_right_congruences(m)
    parts = data.draw(st.lists(st.sampled_from(congruences), min_size=1, max_size=3))
    a = disjoint_union([quotient_act(m, c) for c in parts])
    p, e = conditions(a)
    assert p == reference_condition_p(a)
    assert e == reference_condition_e(a)


def refines(sigma, tau):
    return all(len({tau.class_of[x] for x in c}) == 1 for c in sigma.classes)


@SETTINGS
@given(small_monoids(), st.data())
def test_coessential_matches_product_scan(m, data):
    # each target component S/tau gets a source component S/sigma with
    # sigma inside tau, so the componentwise projection is onto; the
    # extra source components, each with a map into some S/tau, make
    # fibers with several preimages
    congruences = all_right_congruences(m)
    taus = data.draw(st.lists(st.sampled_from(congruences), min_size=1, max_size=2))
    sigmas = [data.draw(st.sampled_from([s for s in congruences if refines(s, t)]))
              for t in taus]
    finer = [s for s in congruences if any(refines(s, t) for t in taus)]
    sigmas += data.draw(st.lists(st.sampled_from(finer), max_size=2))
    source = disjoint_union([quotient_act(m, s) for s in sigmas])
    target = disjoint_union([quotient_act(m, t) for t in taus])
    epis = [g for g in homs(source, target) if g.is_epimorphism]
    assert epis
    for g in epis:
        assert is_coessential(g) == reference_coessential(g)


def test_relation_laws_match_holds_scan():
    # a pair set is drawn as an equivalence relation (or the empty set)
    # with arbitrary pairs toggled, mirrored or not, so that every law
    # is broken first by some example and some examples pass
    kinds = set()

    @settings(SETTINGS, max_examples=200)
    @given(small_monoids(), st.data())
    def check(m, data):
        n = m.order
        point = st.integers(0, n - 1)
        pairs = set()
        if data.draw(st.sampled_from((False, True, True, True)), label="from an equivalence"):
            block = data.draw(st.lists(point, min_size=n, max_size=n), label="blocks")
            pairs = {(s, t) for s in range(n) for t in range(n) if block[s] == block[t]}
        toggled = data.draw(st.sets(st.tuples(point, point), max_size=3), label="toggled")
        if data.draw(st.booleans(), label="mirrored"):
            toggled |= {(t, s) for s, t in toggled}
        rel = relation_of_pairs(m, pairs ^ toggled)
        got = is_right_congruence(m, rel)
        assert got == reference_is_right_congruence(m, rel)
        kinds.add(got[1] and got[1][0])

    check()
    assert kinds == {None, "reflexivity", "symmetry", "transitivity", "compatibility"}


def test_pullbacks_compose():
    # pullback(pullback(tau, u), v) = pullback(tau, u*v), for tau a right
    # congruence or a subset relation, which need not be one
    kinds, orders = set(), collections.Counter()

    @settings(SETTINGS, max_examples=200)
    @given(small_monoids(SCAN_ORDER), st.data())
    def check(m, data):
        orders[m.order] += 1
        point = st.integers(0, m.order - 1)
        if data.draw(st.booleans(), label="congruence"):
            tau = data.draw(st.sampled_from(all_right_congruences(m)), label="tau")
        else:
            members = data.draw(st.sets(point), label="members") | {0}
            tau = relation_from_subset(m, sorted(members))
            kinds.add(is_right_congruence(m, tau)[0])
        u, v = data.draw(point, label="u"), data.draw(point, label="v")
        assert (pullback_relation(m, pullback_relation(m, tau, u), v)
                == pullback_relation(m, tau, m.mul(u, v)))

    check()
    assert kinds == {False, True}
    assert max(orders) == SCAN_ORDER, orders


@SETTINGS
@given(small_monoids(SCAN_ORDER), st.data())
def test_subact_closure_is_the_least_subact_of_its_seed(m, data):
    # unions of several quotients, so that a seed can miss components
    congruences = all_right_congruences(m)
    parts = data.draw(st.lists(st.sampled_from(congruences), min_size=1, max_size=3))
    a = disjoint_union([quotient_act(m, c) for c in parts])
    seed = data.draw(st.lists(st.integers(0, a.size - 1), min_size=1, max_size=3))
    closed = subact_closure(a, seed)
    assert set(seed) <= set(closed)
    assert all(a.action[x][s] in closed for x in closed for s in range(m.order))
    assert all(any(x in a.action[y] for y in seed) for x in closed)
    assert subact_closure(a, closed) == closed

"""Property tests for the Kruml word monoid, its subset system, and
colimits of directed systems.

Hypothesis is a test-only dependency (the `test` extra); without it the
module is skipped.  Runs are derandomized and keep no example database,
so every run checks the same examples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from actcovers import (  # noqa: E402
    Act,
    FinXSystem,
    compute_colimit,
    homs,
    is_normal,
    kmul,
    knormalize,
    make_system,
    one_element_act,
    quotient_act,
    regular_act,
    relation_from_subset,
    relation_to_congruence,
    right_zero_adjoin_one,
    verify_universality,
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


@SETTINGS
@given(words)
def test_knormalize_is_the_rightmost_normal_form(w):
    nf = knormalize(w)
    assert nf == rightmost_normalize(w)
    assert is_normal(nf)
    assert knormalize(nf) == nf


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


@SETTINGS
@given(st.data())
def test_colimits_of_colliding_node_names_are_universal(data):
    # a chain n0 < n1 < ... or a fan of the other nodes into the last one
    names = data.draw(st.permutations(NAMES))[:data.draw(st.integers(1, len(NAMES)))]
    acts, arrows = {}, {}
    if data.draw(st.booleans(), label="fan"):
        sink = acts[names[-1]] = data.draw(st.sampled_from(NODE_ACTS))
        for i in names[:-1]:
            acts[i] = data.draw(st.sampled_from([a for a in NODE_ACTS if homs(a, sink)]))
            arrows[(i, names[-1])] = data.draw(st.sampled_from(homs(acts[i], sink)))
    else:
        acts[names[0]] = data.draw(st.sampled_from(NODE_ACTS))
        for k, (i, j) in enumerate(zip(names, names[1:])):
            acts[j] = data.draw(st.sampled_from([a for a in NODE_ACTS if homs(acts[i], a)]))
            step = data.draw(st.sampled_from(homs(acts[i], acts[j])))
            arrows.update({(h, j): step.after(arrows[(h, i)]) for h in names[:k]})
            arrows[(i, j)] = step
    system = make_system(names, list(arrows), acts, arrows)
    result = compute_colimit(system)
    assert len(set(result.act.elements)) == result.act.size
    for probe in (S, THETA, Q1):
        assert verify_universality(system, result, probe)

"""Property tests for the Kruml word monoid and its subset system.

Hypothesis is a test-only dependency (the `test` extra); without it the
module is skipped.  Runs are derandomized and keep no example database,
so every run checks the same examples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from actcovers import FinXSystem, is_normal, kmul, knormalize  # noqa: E402
from test_kruml import rightmost_normalize  # noqa: E402

SETTINGS = settings(deadline=None, derandomize=True, database=None)
words = st.lists(st.integers(0, 8), max_size=12).map(tuple)
# short words over few letters, so that distinct words often name the
# same element
short_words = st.lists(st.integers(0, 3), max_size=4).map(tuple)
GROUND = ("a", "b", "c", "d", "e", "f")


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

"""Word monoid on a0, a1, ... with ai*aj = a(j+1)*ai (i <= j), and the
directed system of copies indexed by finite subsets of a label list.

knormalize is cross-checked against an inline rightmost-redex rewriter:
confluence means the strategies must agree on every input.
"""

import itertools
import random
import re

import pytest

from actcovers import kruml
from actcovers import (
    ColimitElement,
    FinXSystem,
    NotSubsetError,
    is_normal,
    kmul,
    knormalize,
    knormalize_random,
    left_cancel_test,
    normal_words,
    right_cancellation_counterexamples,
)
from actcovers.kruml import (_MASK_BOUND, _MASK_MIN_LENGTH, _coded_rows, _decode, _mask, _prepend,
                             _word)


def walk_normalize(word):
    # knormalize's letter walk: each letter, right to left, prepended to
    # the list form of the normal word
    w = []
    for m in reversed(word):
        _prepend(m, w)
    return tuple(w)


def rightmost_normalize(word):
    w = list(word)
    while True:
        for pos in range(len(w) - 2, -1, -1):
            if w[pos] > w[pos + 1]:
                w[pos], w[pos + 1] = w[pos + 1], w[pos] - 1
                break
        else:
            return tuple(w)


class TestNormalize:
    def test_frozen_examples(self):
        assert knormalize((1, 0)) == (0, 0)
        assert knormalize((3, 1, 2)) == (1, 2, 2)
        assert knormalize((2, 2, 0)) == (0, 1, 1)
        assert knormalize(()) == ()
        assert knormalize((0, 1, 2)) == (0, 1, 2)

    def test_defining_relation(self):
        # ai*aj = a(j+1)*ai for i <= j
        for i in range(4):
            for j in range(i, 4):
                assert kmul((i,), (j,)) == knormalize((j + 1, i))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            knormalize((1, -1))

    @pytest.mark.parametrize("word", [(-1, 2, 3), (1, -2, 3), (1, 2, -3), (-1,)])
    def test_negative_letter_anywhere_rejected(self, word):
        # the check runs inside the insertion loop, which reads the word
        # right to left: first, middle and last letters all reach it
        with pytest.raises(ValueError, match="^generator indices must be nonnegative$"):
            knormalize(word)

    @pytest.mark.parametrize("letter", [0.5, True, "1"])
    def test_non_integer_letter_rejected(self, letter):
        want = f"^generator index {re.escape(repr(letter))} is not an int$"
        with pytest.raises(ValueError, match=want):
            knormalize((letter, 0))

    def test_non_integer_letter_rejected_by_element(self):
        with pytest.raises(ValueError, match="not an int"):
            FinXSystem(("x", "y")).element(("x",), (2.5, 1))

    def test_output_is_normal(self):
        rng = random.Random(7)
        for _ in range(300):
            w = tuple(rng.randrange(6) for _ in range(rng.randrange(9)))
            assert is_normal(knormalize(w))

    def test_agrees_with_rightmost_strategy(self):
        rng = random.Random(3)
        for _ in range(500):
            w = tuple(rng.randrange(6) for _ in range(rng.randrange(9)))
            assert knormalize(w) == rightmost_normalize(w)

    def test_agrees_with_random_strategy(self):
        rng = random.Random(5)
        for _ in range(300):
            w = tuple(rng.randrange(5) for _ in range(rng.randrange(8)))
            assert knormalize(w) == knormalize_random(w, rng)

    def test_long_words_agree_with_random_strategy(self):
        # the lengths of the benchmark's words, where a letter moves far
        rng = random.Random(11)
        for _ in range(20):
            w = tuple(rng.randrange(13) for _ in range(rng.randint(40, 200)))
            assert knormalize(w) == knormalize_random(w, rng)

    def test_exhaustive_short_words(self):
        for n in range(5):
            for w in itertools.product(range(4), repeat=n):
                assert knormalize(w) == rightmost_normalize(w)

    @pytest.mark.parametrize("length", [_MASK_MIN_LENGTH - 1, _MASK_MIN_LENGTH,
                                        _MASK_MIN_LENGTH + 1, 200])
    @pytest.mark.parametrize("top", [-1, 0], ids=["len-1", "len"])
    def test_mask_and_walk_agree_around_the_selection(self, length, top):
        # knormalize takes the mask from _MASK_MIN_LENGTH letters on while
        # the letters are below the length; each side of both guards gives
        # the walk's word and the random strategy's
        rng = random.Random(length)
        for _ in range(3):
            w = [rng.randrange(length) for _ in range(length - 1)]
            w.insert(rng.randrange(length), length + top)
            w = tuple(w)
            nf = walk_normalize(w)
            assert knormalize(w) == nf == knormalize_random(w, rng)
            assert max(w) == length + top

    @pytest.mark.parametrize("where", [0, 13, 29])
    def test_a_huge_letter_stays_on_the_walk(self, where):
        # a mask holding bit 10**300 cannot be built: the letters right of
        # it go onto the mask, and it and those left of it to the walk
        w = [(3 * p) % 7 for p in range(29)]
        w.insert(where, 10**300)
        w = tuple(w)
        nf = walk_normalize(w)
        assert knormalize(w) == nf == knormalize_random(w, random.Random(where))
        assert nf[-1] == 10**300 - sum(x < 10**300 for x in w[where + 1:])

    @pytest.mark.parametrize("word,message", [
        ((-1, 0), "^generator indices must be nonnegative$"),
        (("a",), "^generator index 'a' is not an int$"),
        ((True, 0), "^generator index True is not an int$"),
        ((0.5, 0), "^generator index 0.5 is not an int$"),
    ], ids=["negative", "str", "bool", "fraction"])
    def test_random_strategy_checks_letters(self, word, message):
        # before the first draw, with knormalize's messages; without the
        # check, the fraction keeps dropping below every letter forever
        for f in (knormalize, lambda w: knormalize_random(w, random.Random(0))):
            with pytest.raises(ValueError, match=message):
                f(word)


class TestMultiplication:
    def test_associative_on_samples(self):
        rng = random.Random(13)
        for _ in range(200):
            u, v, w = (
                tuple(rng.randrange(4) for _ in range(rng.randrange(5)))
                for _ in range(3)
            )
            assert kmul(kmul(u, v), w) == kmul(u, kmul(v, w))

    def test_identity(self):
        assert kmul((), (2, 1)) == knormalize((2, 1))
        assert kmul((2, 1), ()) == knormalize((2, 1))

    def test_left_cancellative_on_samples(self):
        rng = random.Random(17)
        for _ in range(300):
            w, u, v = (
                tuple(rng.randrange(4) for _ in range(rng.randrange(5)))
                for _ in range(3)
            )
            assert left_cancel_test(w, u, v)

    def test_left_multiplication_by_a_letter_is_injective(self):
        # on every normal word of length <= 6 over a_0..a_7.  The normal
        # form of w*u has |w| + |u| letters, none above the largest of w
        # and u, so by induction on w this gives w*u = w*v => u = v
        # whenever |w| + |u| <= 7 and no letter exceeds 7
        words = list(normal_words(6, 7))
        assert len(words) == 3003
        for m in range(8):
            assert len({kmul((m,), u) for u in words}) == 3003, m

    def test_not_right_cancellative(self):
        assert kmul((0,), (0,)) == kmul((1,), (0,)) == (0, 0)
        assert knormalize((0,)) != knormalize((1,))

    def test_counterexample_enumeration(self):
        assert right_cancellation_counterexamples(2) == [(0, 1, 0), (1, 2, 1)]


def missing_set(word):
    # the normal word l_0 <= ... <= l_(k-1) names an injection of N whose
    # image misses {l_p + p}; this is its bit mask, by that definition
    return sum(1 << letter + p for p, letter in enumerate(word))


def left_cancel_by_kmul(w, u, v):
    # the form left_cancel_test had before it worked on masks
    if kmul(w, u) != kmul(w, v):
        return True
    return knormalize(u) == knormalize(v)


class TestMasks:
    # _mask codes a word by the missing set of its normal form and _word
    # decodes it; knormalize and missing_set are the oracles
    def test_round_trip_on_all_short_words(self):
        words = [w for n in range(7) for w in itertools.product(range(6), repeat=n)]
        assert len(words) == 55987
        assert [w for w in words if _word(_mask(w)) != knormalize(w)] == []
        assert [w for w in words if _mask(w) != missing_set(knormalize(w))] == []

    def test_round_trip_on_long_words(self):
        # the lengths of the benchmark's words, where knormalize is the
        # mask itself, so the walk is the reference
        rng = random.Random(19)
        for _ in range(200):
            w = tuple(rng.randrange(13) for _ in range(rng.randint(40, 200)))
            nf = walk_normalize(w)
            assert _mask(w) == missing_set(nf)
            assert _word(_mask(w)) == nf == knormalize(w)

    def test_frozen_examples(self):
        assert _mask(()) == 0 and _word(0) == ()
        assert _mask((0,)) == 0b1 and _mask((2,)) == 0b100
        assert _mask((1, 0)) == _mask((0, 0)) == 0b11
        assert _mask((3, 1, 2)) == 0b11010 and _word(0b11010) == (1, 2, 2)
        assert _word(0b1011) == (0, 0, 1)

    def test_fold_onto_a_mask_is_the_product(self):
        rng = random.Random(23)
        for _ in range(300):
            w, u = (tuple(rng.randrange(6) for _ in range(rng.randrange(9))) for _ in range(2))
            assert _mask(w, _mask(u)) == _mask(w + u) == missing_set(kmul(w, u))

    SHORT_ERRORS = [
        ((-1, 2, 3), "^generator indices must be nonnegative$"),
        ((1, 2, -3), "^generator indices must be nonnegative$"),
        ((0.5, 0), "^generator index 0.5 is not an int$"),
        ((True, -1), "^generator indices must be nonnegative$"),
        ((-1, "1"), "^generator index '1' is not an int$"),
    ]
    # 30 letters with a bad one to the right or the left of a large one
    LONG_ERRORS = [
        (pair + (0, 1, 2) * 9 + (5,), message)
        for bad, message in (("1", "^generator index '1' is not an int$"),
                             (-4, "^generator indices must be nonnegative$"),
                             (True, "^generator index True is not an int$"))
        for big in (30, 10**300)
        for pair in ((bad, big), (big, bad))
    ]

    @pytest.mark.parametrize("word,message", SHORT_ERRORS + LONG_ERRORS)
    def test_errors_are_those_of_knormalize(self, word, message):
        # neither _mask nor knormalize's mask loop takes a bad letter; every
        # entry point then reads the word right to left on the letters, so
        # the same letter is reported
        fs = FinXSystem(("x", "y"))
        assert _mask(word) is None
        for f in (knormalize,
                  lambda w: knormalize_random(w, random.Random(0)),
                  lambda w: kmul(w, (1,)),
                  lambda w: left_cancel_test(w, (1,), (0,)),
                  lambda w: left_cancel_test((1,), (0,), w),
                  lambda w: fs.transition(("x",), ("x", "y"), w),
                  lambda w: fs.colimit_equal(ColimitElement(("y",), (0,)),
                                             ColimitElement(("x",), w))):
            with pytest.raises(ValueError, match=message):
                f(word)

    def test_left_cancel_test_is_its_kmul_form(self):
        # the samples of test_left_cancellative_on_samples, and every
        # triple of short words, many pairs of which name one element
        rng = random.Random(17)
        triples = [tuple(tuple(rng.randrange(4) for _ in range(rng.randrange(5)))
                         for _ in range(3)) for _ in range(300)]
        short = [w for n in range(4) for w in itertools.product(range(3), repeat=n)]
        triples += [(w, u, v) for w in short[:13] for u in short for v in short]
        assert all(left_cancel_test(*t) == left_cancel_by_kmul(*t) for t in triples)

    def test_left_cancel_test_reads_both_sides(self, monkeypatch):
        # with a w*u that forgets u, the test must fail exactly on the
        # pairs u, v that name different elements
        fold = kruml._mask
        monkeypatch.setattr(kruml, "_mask", lambda word, mask=0: fold(word))
        short = [w for n in range(3) for w in itertools.product(range(3), repeat=n)]
        got = [left_cancel_test((1,), u, v) for u in short for v in short]
        assert got == [knormalize(u) == knormalize(v) for u in short for v in short]
        assert not all(got)


def rewrite_at(word, p):
    # one step of a_m a_i -> a_i a_(m-1) at positions p, p + 1
    w = list(word)
    assert w[p] > w[p + 1]
    w[p], w[p + 1] = w[p + 1], w[p] - 1
    return tuple(w)


class TestConfluence:
    # the only overlaps of the rule are a_m a_i a_j with m > i > j; with
    # termination, their joining makes the rewriting confluent
    def test_critical_pairs_join_at_the_normal_form(self):
        pairs = 0
        for m, i, j in itertools.combinations(range(7, -1, -1), 3):
            overlap = (m, i, j)
            left, right = rewrite_at(overlap, 0), rewrite_at(overlap, 1)
            # the two joining steps of each side, as the module docstring
            # derives them
            joined = (j, i - 1, m - 2)
            assert rewrite_at(rewrite_at(left, 1), 0) == joined
            assert rewrite_at(rewrite_at(right, 0), 1) == joined
            assert knormalize(overlap) == knormalize(left) == knormalize(right) == joined
            pairs += 1
        assert pairs == 56

    def test_every_reduction_path_ends_at_the_normal_form(self):
        # every word of length <= 6 over a_0..a_5; ends[w] is the set of
        # normal words that some sequence of rewrites takes w to
        ends = {}

        def reach(w):
            if w not in ends:
                redexes = [p for p in range(len(w) - 1) if w[p] > w[p + 1]]
                ends[w] = (frozenset().union(*(reach(rewrite_at(w, p)) for p in redexes))
                           if redexes else frozenset({w}))
            return ends[w]

        words = [w for n in range(7) for w in itertools.product(range(6), repeat=n)]
        assert len(words) == 55987
        assert [w for w in words if reach(w) != {knormalize(w)}] == []


def code_of(word, shift):
    # a normal word's letter-count code, as _coded_rows lists it
    return sum(1 << x * shift for x in word)


def coded_words(max_len, max_index, letters):
    # the kernel's words, checked to be coded by their letter counts, and
    # its rows, each joined over the groups it yields
    shift, groups = _coded_rows(max_len, max_index, letters)
    codes, rows = [], [[] for _ in range(letters)]
    for group, group_rows in groups:
        assert len(group_rows) == letters
        codes += group
        for row, part in zip(rows, group_rows):
            assert len(part) == len(group)
            row += part
    words = [_decode(c, shift) for c in codes]
    assert [code_of(w, shift) for w in words] == codes
    return shift, words, rows


class TestAppend:
    # _coded_rows codes each normal word by its letter counts and gives
    # the code of w*a_i in closed form; the oracle is knormalize on the
    # concatenation, on every input the kruml scenario feeds it
    @staticmethod
    def check_rows(max_len, max_index, letters):
        shift, words, rows = coded_words(max_len, max_index, letters)
        assert sorted(words) == list(normal_words(max_len, max_index))
        for i, row in enumerate(rows):
            assert row == [code_of(knormalize(w + (i,)), shift) for w in words], i
        return len(words)

    def test_matches_normalize_on_injectivity_inputs(self):
        assert self.check_rows(6, 8, 9) == 5005

    def test_matches_normalize_on_equalizer_inputs(self):
        assert self.check_rows(8, 8, 2) == 24310

    def test_matches_normalize_on_all_letters_to_length_8(self):
        assert self.check_rows(8, 8, 9) == 24310

    def test_matches_normalize_on_long_words(self):
        # few letters reach long words, where a_i moves far left; letters
        # above max_index + 1 pass every letter and only add their digit
        assert self.check_rows(40, 1, 3) == 861
        assert self.check_rows(12, 2, 6) == 455

    def test_words_are_the_normal_words_level_by_level(self):
        for args in ((6, 8), (8, 8), (4, 4), (5, 2), (3, -1), (0, 3)):
            for letters in (0, 2, 9):
                _, words, _ = coded_words(*args, letters)
                assert sorted(words) == list(normal_words(*args))
                assert [len(w) for w in words] == sorted(len(w) for w in words)

    def test_frozen_examples(self):
        shift, words, rows = coded_words(3, 5, 6)
        product = {(w, i): _decode(row[k], shift)
                   for i, row in enumerate(rows) for k, w in enumerate(words)}
        assert product[(), 3] == (3,)
        assert product[(0, 2, 5), 2] == (0, 2, 2, 4)
        assert product[(1, 1), 0] == (0, 0, 0)
        assert product[(0, 1), 4] == (0, 1, 4)
        assert shift == 3 and code_of((0, 2, 2, 4), shift) == 1 + 2 * 8 ** 2 + 8 ** 4


def recursive_normal_words(max_len, max_index):
    # the nested-generator walk normal_words replaced, kept as its order
    # oracle: it recurses once per letter, so it is only for short words
    def rec(prefix, low, remaining):
        yield prefix
        if remaining == 0:
            return
        for i in range(low, max_index + 1):
            yield from rec(prefix + (i,), i, remaining - 1)

    return rec((), 0, max_len)


class TestNormalWords:
    # nondecreasing index tuples: counts are binomial C(max_index+1+L, L)
    COUNTS = [((6, 8), 5005), ((8, 8), 24310), ((4, 4), 126)]

    @pytest.mark.parametrize("args,count", COUNTS)
    def test_frozen_counts(self, args, count):
        assert sum(1 for _ in normal_words(*args)) == count

    @pytest.mark.parametrize("args", [(8, 8), (6, 8), (4, 4), (3, -1)])
    def test_order_matches_recursive_walk(self, args):
        assert list(normal_words(*args)) == list(recursive_normal_words(*args))

    def test_long_words_do_not_recurse(self):
        # one word per length over a_0 alone; a walk that recursed once per
        # letter would pass the interpreter's default depth limit of 1000
        words = list(normal_words(1100, 0))
        assert len(words) == 1101
        assert words[-1] == (0,) * 1100

    def test_prefix_order_head(self):
        head = list(itertools.islice(normal_words(3, 2), 10))
        assert head == [
            (), (0,), (0, 0), (0, 0, 0), (0, 0, 1), (0, 0, 2),
            (0, 1), (0, 1, 1), (0, 1, 2), (0, 2),
        ]

    def test_all_normal_and_distinct(self):
        words = list(normal_words(5, 3))
        assert len(words) == len(set(words))
        assert all(is_normal(w) for w in words)

    def test_negative_length_rejected(self):
        # raised at the call, before any word is asked for
        with pytest.raises(ValueError):
            normal_words(-1, 0)
        assert list(normal_words(0, 3)) == [()]


def list_push(small, large, words):
    # the word-list push FinXSystem._push made before it worked on masks:
    # each inserted position i, in ascending order, prepends a_i to the
    # list form of each normal word
    ins = [i for i, z in enumerate(large) if z not in small]
    out = []
    for w in words:
        w = list(w)
        for i in ins:
            _prepend(i, w)
        out.append(tuple(w))
    return out


class TestMaskBound:
    # left_cancel_test and colimit_equal take the mask for letters below
    # _MASK_BOUND and hand a word with a larger one to the letters, which
    # transition always works on; knormalize, kmul and list_push are the
    # oracles on both sides of the bound
    FS = FinXSystem(("x", "y", "z", "t"))
    LETTERS = [_MASK_BOUND - 1, _MASK_BOUND, 10**300]

    @staticmethod
    def words(big):
        return [(big,), (big, 0), (2, big, 1, 0), (0,) * 5 + (big,), (big,) * 3]

    @pytest.mark.parametrize("big", LETTERS, ids=["bound-1", "bound", "huge"])
    def test_transition(self, big):
        fs = self.FS
        subsets = [c for r in range(5) for c in itertools.combinations(fs.ground, r)]
        pairs = [(s, t) for t in subsets for s in subsets if set(s) <= set(t)]
        for w in self.words(big):
            assert (_mask(w) is None) == (big >= _MASK_BOUND)
            for small, large in pairs:
                assert fs.transition(small, large, w) == list_push(small, large, [knormalize(w)])[0]

    @pytest.mark.parametrize("big", LETTERS, ids=["bound-1", "bound", "huge"])
    def test_colimit_equal(self, big):
        fs = self.FS
        small = [("x",), ("y", "t"), ()]
        elements = [ColimitElement(y, w) for y in small for w in self.words(big)]
        elements += [ColimitElement(("x", "y", "t"), fs.transition(("y", "t"), ("x", "y", "t"), w))
                     for w in self.words(big)]
        for e1 in elements:
            for e2 in elements:
                union = tuple(z for z in fs.ground if z in e1.subset or z in e2.subset)
                want = (list_push(e1.subset, union, [knormalize(e1.word)])
                        == list_push(e2.subset, union, [knormalize(e2.word)]))
                assert fs.colimit_equal(e1, e2) == want
        assert sum(fs.colimit_equal(e1, e2) for e1 in elements for e2 in elements) > len(elements)

    @pytest.mark.parametrize("big", LETTERS, ids=["bound-1", "bound", "huge"])
    def test_left_cancel_test(self, big):
        # the large letter in each of w, u and v, with short words that
        # name the same element and ones that do not
        words = self.words(big) + [(), (0,), (1, 0), (0, 0), (big - 1, 0)]
        for w, u, v in itertools.product(words, repeat=3):
            assert left_cancel_test(w, u, v) == left_cancel_by_kmul(w, u, v)
        assert kmul((big,), (0,)) == (0, big - 1)


class TestFinXSystem:
    FS = FinXSystem(("x", "y", "z", "t"))

    def test_transitions(self):
        fs = self.FS
        assert fs.transition(("x",), ("x", "y"), ()) == (1,)
        assert fs.transition(("y",), ("x", "y"), ()) == (0,)
        assert fs.transition(("x",), ("x", "y", "z", "t"), ()) == (1, 1, 1)
        assert fs.transition((), ("x", "y", "z", "t"), ()) == (0, 0, 0, 0)
        assert fs.transition(("x",), ("x", "y", "z", "t"), (2,)) == (1, 1, 1, 2)

    def test_transition_normalizes_input(self):
        assert self.FS.transition(("x",), ("x",), (1, 0)) == (0, 0)

    def test_insertion_path_independence_exhaustive(self):
        fs = self.FS
        for w in ((), (0,), (0, 1), (2, 0)):
            target = fs.transition(("x",), ("x", "y", "z", "t"), w)
            for perm in itertools.permutations(("y", "z", "t")):
                cur, word = ["x"], knormalize(w)
                for lab in perm:
                    i = sum(1 for y in fs.ground[:fs.ground.index(lab)] if y in cur)
                    word = knormalize((i,) + word)
                    cur.append(lab)
                assert word == target

    def test_transition_matches_stepwise_reference(self):
        # each missing label inserted alone, in ground order, indexed by
        # the current members below it and normalized by the rightmost
        # rewriter: shares no code with transition
        ground = ("a", "b", "c", "d", "e", "f")
        fs = FinXSystem(ground)
        for flags in itertools.product((0, 1, 2), repeat=len(ground)):
            small = tuple(z for z, f in zip(ground, flags) if f == 2)
            large = tuple(z for z, f in zip(ground, flags) if f)
            for w in ((), (0,), (3, 0), (1, 1, 4), (5, 2, 0, 2)):
                cur, want = set(small), rightmost_normalize(w)
                for lab in large:
                    if lab not in cur:
                        i = sum(1 for y in ground[:ground.index(lab)] if y in cur)
                        want = rightmost_normalize((i,) + want)
                        cur.add(lab)
                assert fs.transition(small, large, w) == want

    def test_list_push_equals_one_word_pushes(self):
        # every ordered pair small <= large of subsets of the ground and
        # every word of normal_words(4, 4): one push of the whole list of
        # masks gives the word-list push it replaced, each mask's own push
        # and the public transition
        fs = self.FS
        subsets = [c for r in range(5) for c in itertools.combinations(fs.ground, r)]
        pairs = [(s, t) for t in subsets for s in subsets if set(s) <= set(t)]
        words = list(normal_words(4, 4))
        masks = [_mask(w) for w in words]
        assert (len(pairs), len(words)) == (81, 126)
        for small, large in pairs:
            want = list_push(small, large, words)
            pushed = fs._push(small, large, masks)
            assert pushed == [missing_set(w) for w in want]
            assert pushed == [fs._push(small, large, [mk])[0] for mk in masks]
            assert want == [fs.transition(small, large, w) for w in words]

    def test_beta_identities(self):
        # prepending a1 in the copy at {x,y} is the same colimit element
        # as the original word in the copy at {x}; prepending a0 matches
        # the copy at {y}
        fs = self.FS
        for w in ((), (0,), (1, 2), (0, 0, 3)):
            nw = knormalize(w)
            assert fs.colimit_equal(
                fs.element(("x", "y"), (1,) + nw), fs.element(("x",), nw))
            assert fs.colimit_equal(
                fs.element(("x", "y"), (0,) + nw), fs.element(("y",), nw))

    def test_colimit_equal_negative(self):
        fs = self.FS
        assert not fs.colimit_equal(
            fs.element(("x",), ()), fs.element(("y",), ()))

    def test_colimit_equal_reflexive_across_subsets(self):
        fs = self.FS
        e1 = fs.element(("x",), (0,))
        e2 = fs.element(("x", "y"), fs.transition(("x",), ("x", "y"), (0,)))
        assert fs.colimit_equal(e1, e2)

    def test_colimit_equal_unknown_label(self):
        fs = FinXSystem(("x", "y", "z"))
        with pytest.raises(ValueError, match="label 'q' not in the ground set"):
            fs.colimit_equal(ColimitElement(("q",), ()), ColimitElement(("x",), ()))
        with pytest.raises(ValueError, match="subset labels must be distinct"):
            fs.colimit_equal(ColimitElement(("x",), ()), ColimitElement(("y", "y"), ()))

    def test_colimit_equal_on_hand_built_elements(self):
        # unsorted subsets and non-normal words get the verdict of the
        # decision through the public transition, which checks both
        fs = self.FS

        def through_transition(e1, e2):
            union = tuple(sorted(set(e1.subset) | set(e2.subset), key=fs.ground.index))
            return (fs.transition(e1.subset, union, e1.word)
                    == fs.transition(e2.subset, union, e2.word))

        subsets = [p for r in range(3) for c in itertools.combinations(fs.ground, r)
                   for p in itertools.permutations(c)]
        words = ((), (0,), (1, 0), (2, 1), (0, 0), (3, 0, 1), (1, 1, 0))
        elements = [ColimitElement(y, w) for y in subsets for w in words]
        verdicts = [fs.colimit_equal(e1, e2) == through_transition(e1, e2)
                    for e1 in elements for e2 in elements]
        assert all(verdicts)
        assert sum(fs.colimit_equal(e1, e2) for e1 in elements for e2 in elements) > len(elements)

    def test_element_sorts_subset_and_normalizes(self):
        e = self.FS.element(("y", "x"), (1, 0))
        assert e == ColimitElement(("x", "y"), (0, 0))

    def test_errors(self):
        fs = self.FS
        with pytest.raises(ValueError):
            fs.element(("w",), ())
        with pytest.raises(NotSubsetError):
            fs.transition(("x", "z"), ("x", "y"), ())
        with pytest.raises(ValueError):
            FinXSystem(("x", "x"))

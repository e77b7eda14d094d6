"""The Kruml word monoid and its system of finite-subset acts.

Words are tuples of generator indices (empty tuple = identity) in the
monoid generated by a0, a1, a2, ... subject to ai*aj = a(j+1)*ai for
all i <= j.  Oriented right to left this is the rewrite rule

    a_m a_i  ->  a_i a_(m-1)      whenever m > i,

which strictly decreases the index sum, so rewriting terminates.  The
only overlaps are a_m a_i a_j with m > i > j, and both reducts join:

    a_i a_(m-1) a_j  ->  a_i a_j a_(m-2)  ->  a_j a_(i-1) a_(m-2)
    a_m a_j a_(i-1)  ->  a_j a_(m-1) a_(i-1)  ->  a_j a_(i-1) a_(m-2)

so rewriting is confluent (Newman's lemma), and every word has a unique
normal form: the words with nondecreasing indices, found in one
insertion pass: prepending a_m to a normal word moves a_m right past
each smaller letter, m dropping by one at each step.  Appending a_i to
a normal word moves a_i left past each larger letter, and each of those
letters drops by one: w*a_i is w's letters <= i, then i, then w's
larger letters each minus one.  Multiplication is concatenate then
normalize.  Left multiplication is injective (cancellable); right
multiplication is not, e.g. a0*a0 = a1*a0 and a2*a1 = a1*a1.

The monoid is that of the order-preserving injections N -> N with finite
complement, a_i the coface map that skips i (Mac Lane, VII.5): the
normal word l_0 <= ... <= l_(k-1) misses the set {l_p + p}, kept as a
bit mask, and a_m*M inserts bit m, shifting the bits >= m up by one.
Left cancellation holds because each such map is injective.

Each entry point works on the letters or on the mask.  The letter walk,
_prepend, costs up to m steps for a letter a_m; the mask costs a few
integer operations per letter, but it is dense up to the largest letter,
as is the decoding by _word, and a letter of 10**300 cannot be a bit of
it.  So the mask is taken behind a guard on the letters.  knormalize
reads a word of _MASK_MIN_LENGTH letters or more onto the mask, right to
left, while its letters are below the word's length (shorter words are
faster on the walk), and prepends the letters left over to the mask's
word.  left_cancel_test and colimit_equal take the mask while every
letter is below _MASK_BOUND; _mask returns None for any letter it does
not take, large or not a nonnegative int, and the caller goes to the
letters.  FinXSystem.transition, which decodes what it pushes, always
works on the letters.  The letters report the rightmost bad letter, so
the errors are those of knormalize.

FinXSystem models the directed system indexed by finite subsets Y of
an ordered label set X: each object is a copy of the monoid, and the
arrow for Y into Y + {z} is left multiplication by a_i where i counts
the members of Y below z.  A transition inserts the missing labels in
ground order, so i is z's position in the larger subset.  Transitions
along any insertion order agree, so equality of colimit elements is
decided by pushing both into the union of their subsets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NotSubsetError, _quote

KWord = tuple  # tuple of int generator indices

# The mask paths take letters below this.  A transition on the mask costs
# time in the largest letter, which _word decodes bit by bit, on the walk
# not: for a 24-letter word, at a letter of 64 the mask costs about what
# the walk does, at 4096 almost thirty times more.
_MASK_BOUND = 64

# knormalize takes the mask from this length on: on random words whose
# letters are below their length the two paths break even at 20 to 24
# letters, and the mask is twice as fast at 64 letters.
_MASK_MIN_LENGTH = 24


def _prepend(m: int, w: list) -> None:
    """Turn the normal word w, a list, into the normal form of a_m*w."""
    pos = 0
    while pos < len(w) and m > w[pos]:
        m -= 1
        pos += 1
    w.insert(pos, m)


def _check_letters(word: Sequence[int]) -> None:
    """Raise for the rightmost letter that is not a nonnegative int."""
    for m in reversed(word):
        if type(m) is not int:
            raise ValueError(f"generator index {_quote(m)} is not an int")
        if m < 0:
            raise ValueError("generator indices must be nonnegative")


def knormalize(word: Sequence[int]) -> KWord:
    """Normal form by one insertion pass, right to left.  A word of
    _MASK_MIN_LENGTH letters or more is read onto the missing-set mask, as
    in _mask, until a letter is not below its length; the letters left of
    it are then prepended to the mask's word."""
    n = len(word)
    w, rest = [], word
    if n >= _MASK_MIN_LENGTH:
        mask = taken = 0
        for m in reversed(word):
            if type(m) is not int or not 0 <= m < n:
                break
            mask = (mask >> m << m) + mask + (1 << m)
            taken += 1
        else:
            return _word(mask)
        w, rest = list(_word(mask)), word[:n - taken]
    for m in reversed(rest):
        if type(m) is not int or m < 0:
            _check_letters(word)  # raises for m, the rightmost bad letter
        _prepend(m, w)
    return tuple(w)


def _mask(word: Sequence[int], mask: int = 0, bound: int = _MASK_BOUND) -> int | None:
    """The missing set of word*x as a bit mask, for x with missing set mask:
    each letter a_m, right to left, inserts bit m, adding the mask's bits
    >= m to it (which moves them up by one) and then bit m.  None when a
    letter is not an int in range(bound): the caller takes the letter path,
    which rejects a bad letter and works on any large one."""
    for m in reversed(word):
        if type(m) is not int or not 0 <= m < bound:
            return None
        mask = (mask >> m << m) + mask + (1 << m)
    return mask


def _word(mask: int) -> KWord:
    """The normal word missing the set mask: letter v once for each set
    bit between the v-th and the (v+1)-th clear bit."""
    return tuple(v for v, run in enumerate(bin(mask)[:1:-1].split("0")) for _ in run)


def knormalize_random(word: Sequence[int], rng: random.Random) -> KWord:
    """Normal form via a random redex at each step.

    Confluence makes the outcome independent of the strategy; tests
    compare this against knormalize on sampled words.
    """
    _check_letters(word)
    w = list(word)
    while True:
        redexes = [p for p in range(len(w) - 1) if w[p] > w[p + 1]]
        if not redexes:
            return tuple(w)
        p = rng.choice(redexes)
        w[p], w[p + 1] = w[p + 1], w[p] - 1


def is_normal(word: Sequence[int]) -> bool:
    return all(word[p] <= word[p + 1] for p in range(len(word) - 1))


def kmul(u: Sequence[int], v: Sequence[int]) -> KWord:
    return knormalize(tuple(u) + tuple(v))


def left_cancel_test(w: Sequence[int], u: Sequence[int], v: Sequence[int]) -> bool:
    """The implication  w*u = w*v  =>  u = v  for these words."""
    mu, mv = _mask(u), _mask(v)
    if mu is None or mv is None or (wu := _mask(w, mu)) is None:
        return kmul(w, u) != kmul(w, v) or knormalize(u) == knormalize(v)
    return wu != _mask(w, mv) or mu == mv


def right_cancellation_counterexamples(max_index: int) -> list[tuple[int, int, int]]:
    """Single-letter triples (i, j, k), i < j, with a_i*a_k = a_j*a_k.

    The defining relation itself supplies them: (0, 1, 0) from
    a0*a0 = a1*a0, and (1, 2, 1) from a1*a1 = a2*a1.
    """
    out = []
    for i in range(max_index + 1):
        for j in range(i + 1, max_index + 1):
            for k in range(max_index + 1):
                if kmul((i,), (k,)) == kmul((j,), (k,)):
                    out.append((i, j, k))
    return out


def _coded_rows(max_len: int, max_index: int, letters: int):
    """(shift, groups) for the words of normal_words(max_len, max_index),
    each coded by its letter counts as the sum of B**letter, B = 1 << shift.
    groups yields (codes, rows) level by level, each level by last letter
    and then by the parent words' last letter; rows[i][k] is the code of
    codes[k]*a_i for i < letters.  w*a_i is w's letters <= i, then i, then
    w's larger letters each minus one, so a child's rows are its parent's
    plus one term: (c + B**y)*a_i = c*a_i + B**y when i >= y, and
    c*a_i + B**(y-1) when i < y.  Counts stay below B, so nothing carries.
    The walk keeps the level it extends and the one it builds, not the last."""
    shift = (max_len + 1).bit_length()  # a count never exceeds max_len + 1

    def groups():
        root = [0], [[1 << i * shift] for i in range(letters)]  # the empty word
        yield root
        level = [root] + [([], [[] for _ in range(letters)]) for _ in range(max_index)]
        for length in range(1, max_len + 1):
            nxt = [([], [[] for _ in range(letters)]) for _ in level]
            for y in range(max_index + 1):
                one = 1 << y * shift
                offsets = [one if i >= y else one >> shift for i in range(letters)]
                for codes, rows in level[:y + 1]:  # a_y may follow the words ending in a_x <= a_y
                    codes = [c + one for c in codes]
                    rows = [[r + d for r in row] for row, d in zip(rows, offsets)]
                    yield codes, rows
                    if length < max_len:
                        nxt[y][0].extend(codes)
                        for part, row in zip(nxt[y][1], rows):
                            part.extend(row)
            level = nxt

    return shift, groups()


def _decode(code: int, shift: int) -> KWord:
    """The normal word with the letter counts of code."""
    counts = [code >> x * shift & (1 << shift) - 1 for x in range(code.bit_length() // shift + 1)]
    return tuple(x for x, n in enumerate(counts) for _ in range(n))


def normal_words(max_len: int, max_index: int):
    """All normal-form words up to the given length and index bound, in
    depth-first prefix order, which is tuple order: each word right before
    its extensions.  The walk keeps its own stack, so long words cannot
    exhaust the interpreter's recursion limit."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")

    def walk(stack):
        while stack:
            w = stack.pop()
            yield w
            if len(w) < max_len:  # greatest letter pushed first, least walked first
                stack += [w + (y,) for y in range(max_index, (w[-1] if w else 0) - 1, -1)]

    return walk([()])


@dataclass(frozen=True)
class ColimitElement:
    """A representative (Y, w): the word w in the copy indexed by Y."""

    subset: tuple[str, ...]
    word: KWord


class FinXSystem:
    """Directed system of monoid copies indexed by finite subsets of a
    totally ordered ground list of labels (order = list order)."""

    def __init__(self, ground: Sequence[str]):
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground labels must be distinct")
        self._rank = {lab: i for i, lab in enumerate(self.ground)}

    def _check_subset(self, labels: Iterable[str]) -> tuple[str, ...]:
        labels = tuple(labels)
        for lab in labels:
            if lab not in self._rank:
                raise ValueError(f"label {lab!r} not in the ground set")
        if len(set(labels)) != len(labels):
            raise ValueError("subset labels must be distinct")
        return tuple(sorted(labels, key=self._rank.get))

    def element(self, labels: Iterable[str], word: Sequence[int]) -> ColimitElement:
        return ColimitElement(self._check_subset(labels), knormalize(word))

    def transition(self, small: Iterable[str], large: Iterable[str], word: Sequence[int]) -> KWord:
        """Push a word from the copy at the small subset into the copy
        at the large one in one insertion pass: each missing label, in
        ground order, prepends a_i, where i is its position in the large
        subset (its members below the label are those of the small one
        plus the labels already inserted).

        Path independence of the insertion order is a library invariant
        (exercised by the tests), so ascending order is just a fixed
        convention, not a semantic choice.
        """
        small = self._check_subset(small)
        large = self._check_subset(large)
        if not set(small) <= set(large):
            raise NotSubsetError("first subset must be contained in the second")
        return self._walk(small, large, word)

    def _push(self, small: tuple, large: tuple, masks: list) -> list:
        """The transition of each of a list of missing-set masks, on checked
        ground-ordered subsets: each inserted position i, in ascending
        order, inserts bit i into every mask, as in _mask."""
        for i in [i for i, z in enumerate(large) if z not in small]:
            bit = 1 << i
            masks = [(mk >> i << i) + mk + bit for mk in masks]
        return masks

    def _walk(self, small: tuple, large: tuple, word: Sequence[int]) -> KWord:
        """The transition on checked ground-ordered subsets, on the
        letters: each inserted position i, in ascending order, prepends a_i."""
        w = list(knormalize(word))
        for i in [i for i, z in enumerate(large) if z not in small]:
            _prepend(i, w)
        return tuple(w)

    def colimit_equal(self, e1: ColimitElement, e2: ColimitElement) -> bool:
        """Equality in the colimit, decided at the union of the subsets.

        Left multiplications are injective, so two representatives are
        identified iff they agree after transitioning into any common
        upper bound; the union is the least one.  Elements may be built
        unchecked, so their subsets and words are checked here, once.
        """
        s1, s2 = self._check_subset(e1.subset), self._check_subset(e2.subset)
        union = tuple(z for z in self.ground if z in s1 or z in s2)
        m1, m2 = _mask(e1.word), _mask(e2.word)
        if m1 is None or m2 is None:
            return self._walk(s1, union, e1.word) == self._walk(s2, union, e2.word)
        return self._push(s1, union, [m1]) == self._push(s2, union, [m2])

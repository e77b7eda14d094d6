"""Scenario drivers: verdicts, determinism, parameter validation."""

import hashlib
import json
import random
from itertools import combinations, permutations

import pytest

import actcovers
from actcovers import (
    FinXSystem,
    OrderTooLargeError,
    TooFewSamplesError,
    congruence_from_partition,
    is_strongly_flat,
    kmul,
    knormalize,
    normal_words,
    qiao_wei_truncated,
    quotient_act,
    right_zero_adjoin_one,
)
from actcovers import acts, covers, kruml, scenarios
from actcovers.scenarios import (
    KRUML_SAMPLE_FLOOR,
    run_kruml,
    run_lemma,
    run_qiao_wei,
    run_rightzero,
    rightzero_sigmas,
)


def _kruml_witness(phrase):
    rep = run_kruml(0, KRUML_SAMPLE_FLOOR)
    (a,) = [a for a in rep.assertions if phrase in a.desc]
    return a.ok, a.witness


# The loops run_kruml used before it worked on normal words, kept as the
# oracles of its witnesses: each scans in the same order and returns its
# first failure.

def nested_path_witness(fs):
    # each transition through fs._push, the step the tests break
    def transition(small, large, w):
        small, large = fs._check_subset(small), fs._check_subset(large)
        return kruml._word(fs._push(small, large, [kruml._mask(w)])[0])

    subsets = [c for r in range(5) for c in combinations(fs.ground, r)]
    words4 = list(normal_words(4, 4))
    for large in subsets:
        for small in [s for s in subsets if set(s) <= set(large)]:
            missing = [z for z in large if z not in small]
            for w in words4:
                canonical = transition(small, large, w)
                for order in permutations(missing):
                    cur, word = small, knormalize(w)
                    for z in order:
                        nxt = cur + (z,)
                        word = transition(cur, nxt, word)
                        cur = nxt
                    if word != canonical:
                        return (small, large, order, list(w))
    return None


def injectivity_witness(mul):
    for w in normal_words(6, 8):
        seen = {}
        for i in range(9):
            r = mul(w, (i,))
            if r in seen:
                return (list(w), seen[r], i)
            seen[r] = i
    return None


def equalizer_witness(mul):
    for w in normal_words(8, 8):
        if mul(w, (0,)) == mul(w, (1,)):
            return list(w)
    return None


class TestRightzero:
    def test_passes(self):
        for n in (1, 2, 3):
            rep = run_rightzero(n)
            assert rep.passed
            assert len(rep.assertions) == 7

    def test_scenario_name(self):
        assert run_rightzero(2).scenario == "rightzero(n=2)"

    def test_iso_witness_texture(self):
        rep = run_rightzero(2)
        (iso,) = [a for a in rep.assertions if "pairwise isomorphic" in a.desc]
        assert iso.witness == [("z1", "z2", "z1")]

    def test_search_witness_lists_partitions(self):
        rep = run_rightzero(2)
        (found,) = [a for a in rep.assertions if a.desc.startswith("searching")]
        assert found.witness == [
            [["1", "z1"], ["z2"]],
            [["1", "z2"], ["z1"]],
        ]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_rightzero(0)
        with pytest.raises(ValueError):
            run_rightzero(6)


class TestQiaoWei:
    def test_passes_default_cap(self):
        rep = run_qiao_wei(3)
        assert rep.scenario == "qiao-wei(n=3,cap=4)"
        assert rep.passed
        assert len(rep.assertions) == 14

    def test_passes_small(self):
        assert run_qiao_wei(1).passed
        assert run_qiao_wei(2, 3).passed

    def test_count_assertion_records_both_sides(self):
        rep = run_qiao_wei(3)
        assert rep.assertions[0].witness == (10, 10)

    def test_kernel_pullback_witness(self):
        rep = run_qiao_wei(3)
        (kern,) = [a for a in rep.assertions if "kernel" in a.desc]
        assert kern.witness == [
            ["1", "x1^1", "x2^1", "x2^2", "x3^1", "x3^2"],
            ["x0^1"], ["x0^2"], ["x0^3", "x0^4"],
        ]

    def test_iso_witness_texture(self):
        rep = run_qiao_wei(3)
        (iso,) = [a for a in rep.assertions if "translation witnesses" in a.desc]
        assert ("sigma_1", "sigma_2", "x1^1") in iso.witness

    def test_kernel_pullback_must_be_proper(self, monkeypatch):
        # a library that takes x_0 for the zero x_0^cap, in the kernel and
        # in the pullbacks alike, gets two equal relations, both full: only
        # the clause that the kernel is finer than sigma_0 catches it
        m = qiao_wei_truncated(3, 4)
        x0, zero = m.index("x0^1"), m.index("x0^4")
        kernel, pullback = scenarios.left_kernel, scenarios.pullback_relation
        monkeypatch.setattr(scenarios, "left_kernel",
                            lambda m, u: kernel(m, zero if u == x0 else u))
        monkeypatch.setattr(scenarios, "pullback_relation",
                            lambda m, tau, u: pullback(m, tau, zero if u == x0 else u))
        rep = run_qiao_wei(3)
        (kern,) = [a for a in rep.assertions if "kernel" in a.desc]
        assert (kern.ok, kern.witness) == (False, [list(m.elements)])
        assert all(a.ok for a in rep.assertions if a is not kern)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_qiao_wei(0)
        with pytest.raises(ValueError):
            run_qiao_wei(5)
        with pytest.raises(ValueError):
            run_qiao_wei(2, 0)
        with pytest.raises(ValueError):
            run_qiao_wei(2, 7)


class TestIsomorphismsFromWitness:
    def test_no_scenario_searches_for_a_bijection(self, monkeypatch):
        calls = []
        original = acts.are_isomorphic

        def counted(a, b, *args):
            calls.append((a, b))
            return original(a, b, *args)

        for mod in (actcovers, acts, covers, scenarios):
            monkeypatch.setattr(mod, "are_isomorphic", counted, raising=False)
        reports = [run_rightzero(n) for n in range(1, 6)]
        reports += [run_qiao_wei(n, cap) for n in range(1, 5) for cap in range(1, 7)]
        assert all(rep.passed for rep in reports)
        assert calls == []

    def test_pair_without_witness_is_labelled_none(self):
        m = right_zero_adjoin_one(2)
        z1, z2 = rightzero_sigmas(m)[0]
        split = congruence_from_partition(m, ((0,), (1, 2)))
        named = [("z1", z1), ("z2", z2), ("split", split)]
        assert scenarios._pairwise_isomorphic(m, named) == (False, [
            ("z1", "z2", "z1"), ("z1", "split", None), ("z2", "split", None)])


class TestFlatnessFromKernels:
    def test_no_scenario_scans_a_flat_quotient(self, monkeypatch):
        calls = []
        original = scenarios.is_strongly_flat

        def counted(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(scenarios, "is_strongly_flat", counted)
        reports = [run_rightzero(n) for n in range(1, 6)]
        reports += [run_qiao_wei(n, cap) for n in range(1, 5) for cap in range(1, 7)]
        assert all(rep.passed for rep in reports)
        assert calls == []

    def test_only_a_failing_quotient_is_scanned_under_its_own_index(self):
        m = right_zero_adjoin_one(2)
        z1, z2 = rightzero_sigmas(m)[0]
        split = congruence_from_partition(m, ((0,), (1, 2)))
        report = is_strongly_flat(quotient_act(m, split))
        assert not report.strongly_flat
        assert scenarios._non_flat(m, [z1, z2, split]) == [(2, report)]


class TestKruml:
    def test_passes(self):
        rep = run_kruml(0, 300)
        assert rep.passed
        assert len(rep.assertions) == 9
        assert rep.seed == 0
        assert rep.scenario == "kruml(samples=300)"

    def test_right_cancellation_witness(self):
        rep = run_kruml(1, 200)
        (rc,) = [a for a in rep.assertions if "right cancellation" in a.desc]
        assert rc.witness == [(0, 1, 0), (1, 2, 1)]

    def test_sample_floor(self):
        with pytest.raises(TooFewSamplesError):
            run_kruml(0, KRUML_SAMPLE_FLOOR - 1)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
    def test_sampled_words_are_the_randint_stream(self, seed):
        # a passing report's witnesses are None, so its bytes would not
        # show a changed stream: pin the words, and the generator state
        # after them, against the randint form they were first drawn with
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3000):
            want = tuple(theirs.randint(0, 8) for _ in range(theirs.randint(0, 10)))
            assert scenarios._random_word(ours) == want
        assert ours.getstate() == theirs.getstate()


class TestKrumlWitnessOrder:
    """Break one step of run_kruml and compare the witness it reports with
    the one its old loop, run over the same broken step, finds first."""

    @pytest.mark.parametrize("cur,z,bad_word", [
        (("x",), "z", None),
        (("y", "t"), "x", None),
        ((), "t", (1, 2)),
        (("x", "y", "z"), "t", (0, 0, 4)),
        (("z",), "y", (3,)),
    ])
    def test_path_independence(self, monkeypatch, cur, z, bad_word):
        # one single-label step, from cur by z, gains a letter a_0: for
        # every word, or only for bad_word
        push = FinXSystem._push
        bad = None if bad_word is None else kruml._mask(bad_word)

        def broken(self, small, large, masks):
            out = push(self, small, large, masks)
            if small == cur and set(large) == set(cur) | {z}:
                return [o << 1 | 1 if bad in (None, mk) else o
                        for o, mk in zip(out, masks)]
            return out

        monkeypatch.setattr(FinXSystem, "_push", broken)
        want = nested_path_witness(FinXSystem(("x", "y", "z", "t")))
        assert want is not None
        assert _kruml_witness("path independent") == (False, want)

    @pytest.mark.parametrize("small,large,bad_word", [
        ((), ("x", "y", "z", "t"), None),
        (("y",), ("y", "z", "t"), (0, 2)),
        (("x", "t"), ("x", "y", "z", "t"), (4, 4, 4, 4)),
    ])
    def test_canonical_push(self, monkeypatch, small, large, bad_word):
        # only the canonical push across several labels gains a letter, so
        # every single-label edge still commutes and the lattice check must
        # catch it by comparing the reached word with the canonical one
        push = FinXSystem._push
        bad = None if bad_word is None else kruml._mask(bad_word)

        def broken(self, s, t, masks):
            out = push(self, s, t, masks)
            if (s, t) == (small, large):
                return [o << 1 | 1 if bad in (None, mk) else o
                        for o, mk in zip(out, masks)]
            return out

        monkeypatch.setattr(FinXSystem, "_push", broken)
        want = nested_path_witness(FinXSystem(("x", "y", "z", "t")))
        assert want is not None and want[:2] == (small, large)
        assert _kruml_witness("path independent") == (False, want)

    @staticmethod
    def _perturb_rows(monkeypatch, perturb):
        # run_kruml gets each row that _coded_rows yields taken through
        # the perturbed product, read from the true rows of the same
        # group; the oracle gets the same perturbation of kmul.  The rows
        # are replaced as they leave _coded_rows: it builds each group's
        # rows from its parent's, so a wrong row stored inside it would
        # spread to every descendant
        real = scenarios._coded_rows

        def coded_rows(max_len, max_index, letters):
            shift, groups = real(max_len, max_index, letters)

            def perturbed():
                for codes, rows in groups:
                    words = [kruml._decode(c, shift) for c in codes]
                    at = {w: k for k, w in enumerate(words)}
                    product = perturb(lambda u, v: rows[v[0]][at[u]])
                    yield codes, [[product(w, (i,)) for w in words] for i in range(letters)]

            return shift, perturbed()

        monkeypatch.setattr(scenarios, "_coded_rows", coded_rows)
        return perturb(kmul)

    @pytest.mark.parametrize("length,head,i,j", [(4, (2,), 7, 5), (0, (), 3, 1),
                                                 (6, (8,), 8, 0), (2, (1,), 1, 0)])
    def test_injectivity(self, monkeypatch, length, head, i, j):
        # appending a_i to the words of this length and first letter
        # gives the product with a_j instead
        def perturb(mul):
            def product(w, v):
                if v == (i,) and len(w) == length and w[:1] == head:
                    v = (j,)
                return mul(w, v)
            return product

        want = injectivity_witness(self._perturb_rows(monkeypatch, perturb))
        assert want is not None
        assert _kruml_witness("appending distinct letters") == (False, want)

    @pytest.mark.parametrize("length,tail,head", [
        (5, (3,), None), (8, (8,), None), (0, (), None), (1, (0,), None),
        (5, (3,), (2,)), (7, None, (0,)),
    ], ids=["5-tail0", "8-tail1", "0-tail2", "1-tail3", "5-tail3-head2", "7-head0"])
    def test_equalizer(self, monkeypatch, length, tail, head):
        # a_1 appended to the words of this length, last letter and first
        # letter (None: any) gives the product with a_0; a first letter
        # picks only some words of each group that _coded_rows yields
        def perturb(mul):
            def product(w, v):
                if (v == (1,) and len(w) == length and head in (None, w[:1])
                        and tail in (None, w[-1:])):
                    v = (0,)
                return mul(w, v)
            return product

        want = equalizer_witness(self._perturb_rows(monkeypatch, perturb))
        assert want is not None
        assert _kruml_witness("equalizes the letter maps") == (False, want)


class TestKrumlInsertionTree:
    def test_one_push_per_edge(self, monkeypatch):
        # one push of all 126 masks for each of the 81 canonical pairs and
        # each of the 108 edges of the subset lattices above each small
        # subset, and 506 one-word pushes from the colimit_equal calls of
        # the cocone and injection assertions (their two transitions work
        # on the letters); the permutation scan for the least witness runs
        # only when a push fails
        calls = []
        push = FinXSystem._push

        def counted(self, small, large, masks):
            calls.append(len(masks))
            return push(self, small, large, masks)

        monkeypatch.setattr(FinXSystem, "_push", counted)
        assert run_kruml(0, KRUML_SAMPLE_FLOOR).passed
        assert sum(calls) == 81 * 126 + 126 * 108 + 506 == 24320
        assert len(calls) == 81 + 108 + 506 == 695


class TestLemma:
    def test_passes_with_counts_in_desc(self):
        rep = run_lemma(3)
        assert rep.passed
        assert [a.desc for a in rep.assertions] == [
            "order 1: every right-cancellative monoid is a group "
            "(1 examined, 1 right-cancellative)",
            "order 2: every right-cancellative monoid is a group "
            "(2 examined, 1 right-cancellative)",
            "order 3: every right-cancellative monoid is a group "
            "(11 examined, 1 right-cancellative)",
        ]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_group_that_does_not_cancel_is_reported(self, monkeypatch, side):
        # a library whose cancellation test fails Z3 on one side: the
        # order-3 assertion fails with Z3's table
        z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        cancels = scenarios.is_cancellative

        def broken(m, s):
            return (False, (1, 1, 2)) if (m.table, s) == (z3, side) else cancels(m, s)

        monkeypatch.setattr(scenarios, "is_cancellative", broken)
        rep = run_lemma(3)
        assert [a.ok for a in rep.assertions] == [True, True, False]
        assert rep.assertions[2].witness == [list(row) for row in z3]

    def test_order_bound(self):
        with pytest.raises(OrderTooLargeError):
            run_lemma(5)
        with pytest.raises(ValueError):
            run_lemma(0)


class TestReportPlumbing:
    def test_canonical_bytes_deterministic(self):
        a = run_kruml(0, 300).canonical_bytes()
        b = run_kruml(0, 300).canonical_bytes()
        assert a == b
        c = run_rightzero(2).canonical_bytes()
        d = run_rightzero(2).canonical_bytes()
        assert c == d

    def test_canonical_bytes_depend_on_seed(self):
        assert run_kruml(0, 300).canonical_bytes() != \
            run_kruml(1, 300).canonical_bytes()

    def test_canonical_bytes_drop_timing(self):
        doc = json.loads(run_rightzero(2).canonical_bytes())
        assert "elapsed_ms" not in doc
        assert "elapsed_ms" in run_rightzero(2).to_doc()

    def test_render_shape(self):
        rep = run_rightzero(2)
        lines = rep.render().splitlines()
        assert lines[0] == "scenario: rightzero(n=2)"
        assert lines[-1] == "result: PASS (7/7 assertions)"
        assert sum(1 for ln in lines if ln.lstrip().startswith("[ok ]")) == 7

    def test_to_doc_is_json_clean(self):
        for rep in (run_rightzero(2), run_qiao_wei(2), run_lemma(2)):
            json.dumps(rep.to_doc())

    def test_golden_bytes(self):
        # sha256 of the concatenated canonical bytes, pinned when every
        # report was computed through the validating constructors; the
        # library-built objects must not change a single byte.
        h = hashlib.sha256()
        for n in range(1, 6):
            h.update(run_rightzero(n).canonical_bytes())
        for n in range(1, 5):
            for cap in range(1, 7):
                h.update(run_qiao_wei(n, cap).canonical_bytes())
        for k in range(1, 5):
            h.update(run_lemma(k).canonical_bytes())
        h.update(run_kruml(0, 200).canonical_bytes())
        assert h.hexdigest() == (
            "89b6d3a493630148349474a7a950b9a369e364998e93f5ff95fe671f0b4903c6")

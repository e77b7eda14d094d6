"""Mutation suite: each mutant is a deliberate bug the named tests must catch.

A mutant names a file of src/actcovers, an exact old text, the new text
that replaces it, and the tests that must fail once it is applied.  The
harness applies each mutant to a temporary copy of src/ and runs only
the named tests against that copy.  A mutant is killed when they fail;
it survives when they pass.  A mutant whose old text does not occur
exactly once in its file is stale: the code it was written against has
changed, and the mutant is rewritten in the change that moved the code.

Run from the repository root, with pytest (and Hypothesis, for the
property tests) installed:

    python tests/mutants.py

The exit status is 0 exactly when every mutant is killed and none is
stale.  The harness uses the standard library only; pytest does not
collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "congruences-forbid-without-x", "acts.py",
        "forbid[y].add((x, p, x if q == y else q))",
        "forbid[y].add((x, p, q))",
        ("tests/test_acts.py::TestCongruenceEnumeration",)),
    Mutant(
        "congruences-forced-class-ignored", "acts.py",
        "allowed = [v for v in forced or allowed if v not in banned]",
        "allowed = [v for v in allowed if v not in banned]",
        ("tests/test_acts.py::TestCongruenceEnumeration",)),
    Mutant(
        "congruences-two-forced-classes", "acts.py",
        "            if len(forced) > 1:\n                return\n",
        "",
        ("tests/test_acts.py::TestCongruenceEnumeration",)),
    Mutant(
        "flat-kernels-any-element", "flatness.py",
        "for e in range(m.order) if m.table[e][e] == e]",
        "for e in range(m.order)]",
        ("tests/test_flatness.py",)),
    Mutant(
        "flat-kernels-unsorted", "flatness.py",
        "return [unique[v] for v in sorted(unique)]",
        "return list(unique.values())",
        ("tests/test_flatness.py",)),
    Mutant(
        "iso-witness-first-pullback", "acts.py",
        "        if len(subact_closure(qt, [cls[u]])) == qt.size:\n"
        "            return u\n",
        "        return u\n",
        ("tests/test_acts.py::TestCyclicIsoWitness",)),
    Mutant(
        "enumerate-without-ijc-role", "monoid.py",
        "        for c in r:  # (i, j, c)",
        "        for c in ():  # (i, j, c)",
        ("tests/test_monoid.py::TestEnumeration",)),
    Mutant(
        "enumerate-without-aij-role", "monoid.py",
        "        for a in r:  # (a, i, j)",
        "        for a in ():  # (a, i, j)",
        ("tests/test_monoid.py::TestEnumeration",)),
    Mutant(
        "enumerate-without-ab-role", "monoid.py",
        "        for a in r:  # (a, b, j)",
        "        for a in ():  # (a, b, j)",
        ("tests/test_monoid.py::TestEnumeration",)),
    Mutant(
        "enumerate-without-bc-role", "monoid.py",
        "        for b in r:  # (i, b, c)",
        "        for b in ():  # (i, b, c)",
        ("tests/test_monoid.py::TestEnumeration",)),
    Mutant(
        "enumerate-roles-skip-first-element", "monoid.py",
        "    r = range(1, n)\n",
        "    r = range(2, n)\n",
        ("tests/test_monoid.py::TestEnumeration",)),
    Mutant(
        "unique-first-with-itself", "covers.py",
        "cyclic_iso_witness(m, congruences[0], s) is not None",
        "cyclic_iso_witness(m, congruences[0], congruences[0]) is not None",
        ("tests/test_covers.py::TestUniqueUpToIso",)),
    Mutant(
        "relations-never-violated", "monoid.py",
        "return next(((lhs, rhs) for lhs, rhs in relations if value(lhs) != value(rhs)), None)",
        "return None",
        ("tests/test_monoid.py::TestQiaoWei::test_presentation_violation_reported",)),
    Mutant(
        "left-kernel-unchecked", "acts.py",
        '    _require_indices(m.order, "u =", (u,))\n'
        "    return _trusted(RightCongruence",
        "    return _trusted(RightCongruence",
        ("tests/test_acts.py::TestPullback::test_left_kernel_rejects_out_of_range_u",)),
    Mutant(
        "unique-entries-unchecked", "covers.py",
        "    if len(congruences) == 1:\n        _require_monoid(m, congruences[0])\n",
        "",
        ("tests/test_acts.py::TestForeignMonoid",)),
    Mutant(
        "hom-walk-without-conflicts", "acts.py",
        "            elif f[y] != fy:\n                return None\n",
        "",
        ("tests/test_acts.py::TestHoms",)),
    Mutant(
        "scenario-flatness-all-flat", "scenarios.py",
        "for i, s in enumerate(sigmas) if s.class_of not in flat]",
        "for i, s in enumerate(sigmas) if False]",
        ("tests/test_scenarios.py::TestFlatnessFromKernels",)),
    Mutant(
        "equivalence-pass-rows-unchecked", "acts.py",
        "    if _trusted(RightCongruence, m, class_of).relation().rows == rows:\n",
        "    if True:\n",
        ("tests/test_acts.py::TestAgainstHoldsScan",
         "tests/test_properties.py::test_relation_laws_match_holds_scan")),
    Mutant(
        "qiao-wei-associative-wrong-product", "monoid.py",
        "return (j, min(p + q, stable(j)))",
        "return (j, q)",
        ("tests/test_monoid.py::TestQiaoWei::test_defining_products",)),
    Mutant(
        "kruml-product-without-new-letter", "kruml.py",
        "root = [0], [[1 << i * shift] for i in range(letters)]",
        "root = [0], [[0] for i in range(letters)]",
        ("tests/test_kruml.py::TestAppend",)),
    Mutant(
        "kruml-product-larger-letters-kept", "kruml.py",
        "else one >> shift for i in range(letters)]",
        "else one for i in range(letters)]",
        ("tests/test_kruml.py::TestAppend",)),
    Mutant(
        "kruml-row-offset-drops-equal-letter", "kruml.py",
        "offsets = [one if i >= y else",
        "offsets = [one if i > y else",
        ("tests/test_kruml.py::TestAppend",)),
    Mutant(
        "kruml-walk-skips-equal-letter", "kruml.py",
        "for codes, rows in level[:y + 1]:",
        "for codes, rows in level[:y]:",
        ("tests/test_kruml.py::TestAppend",)),
    Mutant(
        "kruml-mask-bits-not-moved", "kruml.py",
        "mask = (mask >> m << m) + mask + (1 << m)\n    return mask",
        "mask = mask | 1 << m\n    return mask",
        ("tests/test_kruml.py::TestMasks::test_round_trip_on_all_short_words",)),
    Mutant(
        "kruml-normalize-mask-bits-not-moved", "kruml.py",
        "mask = (mask >> m << m) + mask + (1 << m)\n            taken += 1",
        "mask = mask | 1 << m\n            taken += 1",
        ("tests/test_kruml.py::TestMasks::test_round_trip_on_long_words",)),
    Mutant(
        "kruml-word-drops-last-bit", "kruml.py",
        'bin(mask)[:1:-1].split("0")',
        'bin(mask)[:2:-1].split("0")',
        ("tests/test_kruml.py::TestMasks::test_round_trip_on_all_short_words",)),
    Mutant(
        "kruml-push-drops-inserted-bit", "kruml.py",
        "masks = [(mk >> i << i) + mk + bit for mk in masks]",
        "masks = [(mk >> i << i) + mk for mk in masks]",
        ("tests/test_kruml.py::TestFinXSystem::test_list_push_equals_one_word_pushes",)),
    Mutant(
        "universality-two-mediators-accepted", "colimit.py",
        "if len(matching) != 1:",
        "if len(matching) < 1:",
        ("tests/test_colimit.py::TestUniversality",)),
    Mutant(
        "monoid-identity-column-unchecked", "monoid.py",
        "if self.table[0][i] != i or self.table[i][0] != i:",
        "if self.table[0][i] != i:",
        ("tests/test_monoid.py::TestValidation",)),
    Mutant(
        "lemma-group-not-checked-cancellative", "scenarios.py",
        "            if group and not (is_cancellative(m, \"left\")[0] and right):\n"
        "                group_bad = [list(row) for row in m.table]\n"
        "                break\n",
        "",
        ("tests/test_scenarios.py::TestLemma",)),
    Mutant(
        "qiao-wei-kernel-proper-unchecked", "scenarios.py",
        "not k_bad and proper,",
        "not k_bad,",
        ("tests/test_scenarios.py::TestQiaoWei::test_kernel_pullback_must_be_proper",)),
    Mutant(
        "kruml-prepend-past-equal-letter", "kruml.py",
        "while pos < len(w) and m > w[pos]:",
        "while pos < len(w) and m >= w[pos]:",
        ("tests/test_kruml.py::TestConfluence::test_every_reduction_path_ends_at_the_normal_form",)),
    Mutant(
        "rightzero-not-associative", "monoid.py",
        "            table[i][j] = j\n",
        "            table[i][j] = j % n + 1\n",
        ("tests/test_monoid.py::TestTrustedFamilies",)),
    Mutant(
        "kruml-lattice-edges-unchecked", "scenarios.py",
        "if fs._push(p, t, reached[k]) != want:",
        "if False:",
        ("tests/test_scenarios.py::TestKrumlWitnessOrder::test_path_independence",)),
    Mutant(
        "kruml-lattice-canonical-unchecked", "scenarios.py",
        "want = fs._push(small, t, masks)",
        "want = fs._push(edges[0][1], t, reached[edges[0][0]]) if edges else masks",
        ("tests/test_scenarios.py::TestKrumlWitnessOrder::test_canonical_push",)),
    Mutant(
        "kruml-injectivity-group-one-repeat-passes", "scenarios.py",
        "min(map(len, map(set, zip(*rows))), default=9) < 9",
        "min(map(len, map(set, zip(*rows))), default=9) < 8",
        ("tests/test_scenarios.py::TestKrumlWitnessOrder::test_injectivity",)),
    Mutant(
        "kruml-equalizer-group-all-equal", "scenarios.py",
        "if any(map(operator.eq, r0, r1)):",
        "if all(map(operator.eq, r0, r1)):",
        ("tests/test_scenarios.py::TestKrumlWitnessOrder::test_equalizer",)),
    Mutant(
        "kruml-sampler-keeps-bound", "scenarios.py",
        "while x >= 9:",
        "while x > 9:",
        ("tests/test_scenarios.py::TestKruml::test_sampled_words_are_the_randint_stream",)),
    Mutant(
        "condition-e-never-fails", "flatness.py",
        "bad = where[row[s]] & ~covered",
        "bad = 0",
        ("tests/test_flatness.py",)),
    Mutant(
        "condition-p-last-hit-only", "flatness.py",
        "covered |= ry[k][w]",
        "covered = ry[k][w]",
        ("tests/test_flatness.py",)),
    Mutant(
        "coessential-largest-refuting-choice", "covers.py",
        "subact_closure(src, min(refuting))",
        "subact_closure(src, max(refuting))",
        ("tests/test_covers.py::TestAgainstProductScan",)),
    Mutant(
        "cover-ignores-endomorphisms", "covers.py",
        "if g.after(f) == g and not f.is_bijective:",
        "if False:",
        ("tests/test_covers.py::TestPrecoverAndCover",)),
    Mutant(
        "precover-accepts-any-candidate", "covers.py",
        "if not any(g.after(f) == gp for f in candidates):",
        "if not candidates:",
        ("tests/test_covers.py::TestPrecoverAndCover",)),
    Mutant(
        "system-transitivity-unchecked", "colimit.py",
        "if system.leq(j, k) and not system.leq(i, k):",
        "if False:",
        ("tests/test_colimit.py::TestValidation",)),
    Mutant(
        "system-coherence-unchecked", "colimit.py",
        "if left != system.arrow(i, k):",
        "if False:",
        ("tests/test_colimit.py",)),
    Mutant(
        "jsonio-identity-index-unchecked", "jsonio.py",
        'if doc.get("identity", 0) != 0:',
        "if False:",
        ("tests/test_jsonio.py::TestMonoidDocs",)),
    Mutant(
        "jsonio-order-without-arrow-pairs", "jsonio.py",
        "    order += [pair for pair in arrows if pair not in order]\n",
        "",
        ("tests/test_jsonio.py::TestSystemDocs",)),
    Mutant(
        "jsonio-arrow-named-twice-accepted", "jsonio.py",
        "if (i, j) in arrows:",
        "if False:",
        ("tests/test_jsonio.py::TestSystemDocs",)),
    Mutant(
        "colimit-equal-without-push", "kruml.py",
        "return self._push(s1, union, [m1]) == self._push(s2, union, [m2])",
        "return [m1] == [m2]",
        ("tests/test_kruml.py::TestFinXSystem",)),
    Mutant(
        "kruml-mask-paths-without-fallback", "kruml.py",
        "_MASK_BOUND = 64",
        "_MASK_BOUND = float(\"inf\")",
        ("tests/test_kruml.py::TestMaskBound",)),
    Mutant(
        "kruml-walk-push-drops-insertions", "kruml.py",
        "            _prepend(i, w)\n",
        "            pass\n",
        ("tests/test_kruml.py::TestMaskBound::test_transition",)),
    Mutant(
        "kruml-normalize-without-length-guard", "kruml.py",
        "if type(m) is not int or not 0 <= m < n:",
        "if type(m) is not int or m < 0:",
        ("tests/test_kruml.py::TestNormalize::test_a_huge_letter_stays_on_the_walk",)),
    Mutant(
        "kruml-normalize-walk-drops-mask-word", "kruml.py",
        "w, rest = list(_word(mask)), word[:n - taken]",
        "w, rest = [], word[:n - taken]",
        ("tests/test_kruml.py::TestNormalize::test_a_huge_letter_stays_on_the_walk",)),
    Mutant(
        "kruml-random-strategy-letters-unchecked", "kruml.py",
        "    _check_letters(word)\n    w = list(word)\n",
        "    w = list(word)\n",
        ("tests/test_kruml.py::TestNormalize::test_random_strategy_checks_letters[negative]",
         "tests/test_kruml.py::TestNormalize::test_random_strategy_checks_letters[str]",
         "tests/test_kruml.py::TestNormalize::test_random_strategy_checks_letters[bool]")),
)


def stale(mutants, src) -> list[str]:
    """Names of the mutants whose old text does not occur exactly once
    in their file under src."""
    return [mu.name for mu in mutants
            if (src / "actcovers" / mu.file).read_text().count(mu.old) != 1]


def run(mu: Mutant) -> str:
    """'killed', 'survived' or 'error' (the tests did not run to a
    verdict), after running mu's tests against a mutated copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "actcovers" / mu.file
        path.write_text(path.read_text().replace(mu.old, mu.new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mu.tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main() -> int:
    gone = set(stale(MUTANTS, SRC))
    ok = True
    for mu in MUTANTS:
        verdict = "stale" if mu.name in gone else run(mu)
        ok &= verdict == "killed"
        print(f"{verdict:8}  {mu.name}  ({mu.file})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

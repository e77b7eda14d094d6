"""Named end-to-end scenarios, each a list of checked assertions.

Every scenario is deterministic given its parameters (kruml also takes
a sampling seed) and reports one (description, verdict, witness) entry
per assertion.  Witnesses are JSON-able structures built from element
labels so failures are auditable from the report alone.
"""

from __future__ import annotations

import json
import operator
import random
import time
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from .acts import (
    Relation,
    _checked_congruence,
    _trusted,
    canonical_projection,
    cyclic_iso_witness,
    is_right_congruence,
    left_kernel,
    one_element_act,
    projection_to_one,
    pullback_relation,
    quotient_act,
    relation_from_subset,
)
from .covers import is_coessential, search_sf_coessential_covers, unique_up_to_iso
from .errors import OrderTooLargeError, TooFewSamplesError
from .flatness import _strongly_flat_congruences, is_strongly_flat
from .kruml import (
    FinXSystem,
    _coded_rows,
    _decode,
    _mask,
    is_normal,
    knormalize,
    knormalize_random,
    left_cancel_test,
    normal_words,
    right_cancellation_counterexamples,
)
from .monoid import (
    ENUMERATION_BOUND,
    _first_violated,
    enumerate_monoids,
    is_cancellative,
    is_group,
    qiao_wei_presentation,
    qiao_wei_truncated,
    right_zero_adjoin_one,
)

KRUML_SAMPLE_FLOOR = 100


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class Assertion:
    desc: str
    ok: bool
    witness: object = None


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    assertions: tuple
    seed: Optional[int]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return all(a.ok for a in self.assertions)

    def to_doc(self) -> dict:
        return {
            "scenario": self.scenario,
            "assertions": [
                {"desc": a.desc, "ok": a.ok, "witness": _jsonable(a.witness)}
                for a in self.assertions
            ],
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
        }

    def canonical_bytes(self) -> bytes:
        """Report bytes with the timing field dropped; two runs with the
        same parameters must produce identical output here."""
        doc = self.to_doc()
        del doc["elapsed_ms"]
        return json.dumps(doc, sort_keys=True).encode()

    def render(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for a in self.assertions:
            mark = "ok " if a.ok else "FAIL"
            lines.append(f"  [{mark}] {a.desc}")
            if a.witness is not None:
                lines.append(f"         witness: {_jsonable(a.witness)!r}")
        good = sum(1 for a in self.assertions if a.ok)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({good}/{len(self.assertions)} assertions)")
        return "\n".join(lines)


def _finish(name: str, assertions, seed, started) -> ScenarioReport:
    elapsed = (time.perf_counter() - started) * 1000.0
    return ScenarioReport(name, tuple(assertions), seed, elapsed)


def _subset_congruences(m, member_sets):
    """(congruences of relation_from_subset, None) over the member sets,
    each relation checked once, or (None, (k, is_right_congruence
    witness)) for the first set k that fails."""
    sigmas = []
    for k, members in enumerate(member_sets):
        rel = relation_from_subset(m, members)
        ok, why = is_right_congruence(m, rel)
        if not ok:
            return None, (k, why)
        sigmas.append(_checked_congruence(m, rel))
    return sigmas, None


def rightzero_sigmas(m):
    """sigma_{z_1}..sigma_{z_n} from the member sets {1, z_i}."""
    return _subset_congruences(m, [(0, i) for i in range(1, m.order)])


def qiao_sigmas(m, n):
    """sigma_0..sigma_n, sigma_i from {1} and the powers of x_i."""
    return _subset_congruences(m, [
        m.submonoid_closure((0, m.index(f"x{i}^1"))) for i in range(n + 1)])


def qiao_rho(m) -> Relation:
    """rho: the powers of x_0 in one class, everything else in the other."""
    zero = sum(1 << s for s in range(m.order) if m.label(s).startswith("x0^"))
    rest = (1 << m.order) - 1 ^ zero
    return _trusted(Relation, m, tuple(
        zero if zero >> s & 1 else rest for s in range(m.order)))


def _non_flat(m, sigmas):
    """(index in sigmas, FlatnessReport) for each sigma that is not ker
    lambda_e for an idempotent e, so whose quotient is not strongly flat;
    the (P)/(E) scans run only on such a quotient, for its least witness."""
    flat = {k.class_of for k in _strongly_flat_congruences(m)}
    return [(i, is_strongly_flat(quotient_act(m, s)))
            for i, s in enumerate(sigmas) if s.class_of not in flat]


def _pairwise_isomorphic(m, named):
    """(all certified, pairs): each pair of (name, sigma) as (name, name,
    label of the least translation witness u, or None).  u certifies the
    bijection [s] -> [u*s]: the pullback along u makes it well defined
    and injective, generation makes it onto."""
    pairs = []
    for (na, sa), (nb, sb) in combinations(named, 2):
        u = cyclic_iso_witness(m, sa, sb)
        pairs.append((na, nb, None if u is None else m.label(u)))
    return all(label is not None for _, _, label in pairs), pairs


def run_rightzero(n: int) -> ScenarioReport:
    """Right-zero semigroup with an identity adjoined: the n translation
    congruences give n pairwise-isomorphic strongly flat coessential
    quotients over the one-element act, and nothing else does.

    The cover search reads its candidates off the idempotents, one
    kernel of left translation each; that list equals the scan of every
    right congruence which the search assertion's text names.  The
    flatness assertion looks each sigma_{z_i} up among those kernels and
    runs the (P)/(E) scans only on a quotient that fails."""
    if not 1 <= n <= 5:
        raise ValueError("n must be between 1 and 5")
    started = time.perf_counter()
    out = []
    m = right_zero_adjoin_one(n)
    theta = one_element_act(m)

    sigmas, bad = rightzero_sigmas(m)
    out.append(Assertion(
        "each subset-translation relation sigma_{z_i} is a right congruence",
        sigmas is not None, bad and (m.label(bad[0] + 1), bad[1])))
    if sigmas is None:
        return _finish(f"rightzero(n={n})", out, None, started)

    distinct = all(
        s1.class_of != s2.class_of for s1, s2 in combinations(sigmas, 2)
    )
    out.append(Assertion(
        "the sigma_{z_i} are pairwise distinct as partitions",
        distinct,
        [[ [m.label(x) for x in k] for k in s.classes] for s in sigmas]))

    bad_flat = [
        (f"z{i + 1}", ("P", r.p_witness) if not r.condition_p else ("E", r.e_witness))
        for i, r in _non_flat(m, sigmas)
    ]
    out.append(Assertion(
        "every quotient S/sigma_{z_i} is strongly flat",
        not bad_flat, bad_flat or None))

    coess = [is_coessential(projection_to_one(quotient_act(m, s))) for s in sigmas]
    bad_coess = [
        (f"z{i + 1}", r.witness) for i, r in enumerate(coess) if not r.verdict
    ]
    out.append(Assertion(
        "every projection S/sigma_{z_i} -> theta is coessential",
        not bad_coess, bad_coess or None))

    iso_ok, witnesses = _pairwise_isomorphic(
        m, [(f"z{i + 1}", s) for i, s in enumerate(sigmas)])
    out.append(Assertion(
        "all quotients are pairwise isomorphic, each certified by a "
        "translation witness and by an explicit bijection",
        iso_ok, witnesses or None))

    found = search_sf_coessential_covers(m, theta)
    expected = {s.class_of for s in sigmas}
    got = {s.class_of for s, _ in found}
    out.append(Assertion(
        "searching every right congruence finds exactly the n translation "
        "congruences as strongly flat coessential quotients over theta",
        got == expected and len(found) == n,
        [[ [m.label(x) for x in k] for k in s.classes] for s, _ in found]))

    out.append(Assertion(
        "the found quotients are unique up to isomorphism",
        unique_up_to_iso(m, [s for s, _ in found]),
        None))
    return _finish(f"rightzero(n={n})", out, None, started)


def run_qiao_wei(n: int, cap: Optional[int] = None) -> ScenarioReport:
    """Truncated model of the two-generator-family monoid: the cyclic
    quotients S/sigma_i (i >= 1) are strongly flat, coessential over
    S/rho, and pairwise isomorphic, so they never witness non-uniqueness.

    Two statements are checked in corrected form.  The power x_j^3
    collapses to x_j^2 in any model of the relations (derivation in the
    monoid module), which fixes the element count; and the pullback of
    sigma_j along x_0 is the kernel of left translation by x_0, which
    is strictly finer than the full relation once cap >= 2.

    Strong flatness of S/sigma_i is decided by looking sigma_i up among
    the kernels of left translation by the idempotents; the (P)/(E)
    scans run only on a quotient that fails, for its least witness.
    """
    if not 1 <= n <= 4:
        raise ValueError("n must be between 1 and 4")
    if cap is None:
        cap = n + 1
    if not 1 <= cap <= 6:
        raise ValueError("cap must be between 1 and 6")
    started = time.perf_counter()
    out = []
    m = qiao_wei_truncated(n, cap)

    expected_order = 1 + cap + sum(min(k, 2) for k in range(1, n + 1))
    out.append(Assertion(
        "element count equals 1 + cap + sum(min(k,2)): one unit, the x_0 "
        "powers, and the stabilized powers of each x_k",
        m.order == expected_order, (m.order, expected_order)))

    assignment = tuple(m.index(f"x{i}^1") for i in range(n + 1))
    violated = _first_violated(m, assignment, qiao_wei_presentation(n, cap))
    out.append(Assertion(
        "all defining relations hold in the multiplication table",
        violated is None, violated))

    zero = m.power(m.index("x0^1"), cap)
    two_sided = all(
        m.mul(s, zero) == zero and m.mul(zero, s) == zero
        for s in range(m.order)
    )
    out.append(Assertion(
        "x_0^cap is a two-sided zero", two_sided, m.label(zero)))

    sigmas, bad = qiao_sigmas(m, n)
    out.append(Assertion(
        "each sigma_i (0 <= i <= n) is a right congruence",
        sigmas is not None, bad))
    if sigmas is None:
        return _finish(f"qiao-wei(n={n},cap={cap})", out, None, started)

    out.append(Assertion(
        "the sigma_i are pairwise distinct",
        all(a.class_of != b.class_of for a, b in combinations(sigmas, 2)),
        None))

    out.append(Assertion(
        "sigma_0 is the full relation (x_0^cap reaches every pair)",
        max(sigmas[0].class_of) == 0, None))

    rels = [s.relation() for s in sigmas]
    pull_bad = [
        (i, j) for j in range(2, n + 1) for i in range(1, j)
        if pullback_relation(m, rels[j], m.index(f"x{i}^1")) != rels[i]]
    out.append(Assertion(
        "pullback of sigma_j along x_i equals sigma_i for 1 <= i < j",
        not pull_bad, pull_bad or None))

    x0 = m.index("x0^1")
    kernel = left_kernel(m, x0)
    k_rel = kernel.relation()
    k_bad = [j for j in range(1, n + 1) if pullback_relation(m, rels[j], x0) != k_rel]
    proper = cap < 2 or max(kernel.class_of) > 0
    out.append(Assertion(
        "pullback of sigma_j along x_0 equals the kernel of left "
        "translation by x_0 (strictly finer than sigma_0 when cap >= 2)",
        not k_bad and proper,
        k_bad or [[m.label(x) for x in k] for k in kernel.classes]))

    rho_rel = qiao_rho(m)
    rho_ok, rho_why = is_right_congruence(m, rho_rel)
    out.append(Assertion(
        "rho (x_0 powers in one class, everything else in the other) "
        "is a right congruence", rho_ok, rho_why))
    if not rho_ok:
        return _finish(f"qiao-wei(n={n},cap={cap})", out, None, started)
    rho = _checked_congruence(m, rho_rel)
    ones = rho.classes[0]

    rz_ok = True
    rz_wit = []
    for j in range(1, n + 1):
        z = m.power(m.index(f"x{j}^1"), j)
        if z not in ones or any(m.mul(s, z) != z for s in ones):
            rz_ok = False
        rz_wit.append((f"x{j}^{j}", m.label(z)))
    out.append(Assertion(
        "x_j^j is a right zero inside the class of 1", rz_ok, rz_wit))

    flat_bad = [(i, r.p_witness, r.e_witness) for i, r in _non_flat(m, sigmas) if i >= 1]
    out.append(Assertion(
        "every S/sigma_i (i >= 1) is strongly flat",
        not flat_bad, flat_bad or None))

    coess_bad = []
    for i in range(1, n + 1):
        g = canonical_projection(m, sigmas[i], rho)
        r = is_coessential(g)
        if not r.verdict:
            coess_bad.append((i, r.witness))
    out.append(Assertion(
        "every projection S/sigma_i -> S/rho (i >= 1) is coessential",
        not coess_bad, coess_bad or None))

    iso_ok, iso_wit = _pairwise_isomorphic(
        m, [(f"sigma_{i}", sigmas[i]) for i in range(1, n + 1)])
    out.append(Assertion(
        "the S/sigma_i (i >= 1) are pairwise isomorphic with "
        "translation witnesses", iso_ok, iso_wit or None))

    out.append(Assertion(
        "S/sigma_0 is the one-element act and is not isomorphic to "
        "S/sigma_1",
        max(sigmas[0].class_of) == 0
        and cyclic_iso_witness(m, sigmas[0], sigmas[1]) is None,
        None))
    return _finish(f"qiao-wei(n={n},cap={cap})", out, None, started)


def _random_word(rng: random.Random) -> tuple:
    # for n = 9 and 11, randint(0, n - 1) draws getrandbits(4) until the
    # value is below n; these are the same draws, without randint's frames
    bits = rng.getrandbits
    n = bits(4)
    while n >= 11:
        n = bits(4)
    w = []
    for _ in range(n):
        x = bits(4)
        while x >= 9:
            x = bits(4)
        w.append(x)
    return tuple(w)


def _lattice_commutes(fs: FinXSystem, subsets: list, masks: list) -> bool:
    """Whether every insertion order from every small subset to every
    larger one pushes every word, given by its mask, to the canonical
    transition.

    Pushing the words from small along each edge of the subset lattice
    above it once suffices: all paths from small to T agree with the
    canonical push into T exactly when, for every T, each edge into T
    carries the canonical words at its source to the canonical words at
    T.  Each push takes all the masks at once."""
    for small in subsets:
        above = [t for t in subsets if set(small) <= set(t)]
        at = {t: k for k, t in enumerate(above)}
        # the edges into each node, from the nodes one label smaller
        into = [[(at[p], p) for p in (tuple(y for y in t if y != z)
                                      for z in t if z not in small)]
                for t in above]
        reached = []
        for t, edges in zip(above, into):
            want = fs._push(small, t, masks)
            for k, p in edges:
                if fs._push(p, t, reached[k]) != want:
                    return False
            reached.append(want)
    return True


def _least_path_witness(fs: FinXSystem, subsets: list, words: list):
    """The first (small, large, order, w) whose insertion order misses the
    canonical push, scanning large, then small, then w, then the orders in
    itertools.permutations order."""
    for large in subsets:
        for small in [s for s in subsets if set(s) <= set(large)]:
            missing = tuple(z for z in large if z not in small)
            for w, mk in zip(words, map(_mask, words)):
                canonical = fs._push(small, large, [mk])[0]
                for order in permutations(missing):
                    cur, pushed = small, mk
                    for z in order:
                        nxt = tuple(sorted(cur + (z,), key=fs._rank.get))
                        pushed = fs._push(cur, nxt, [pushed])[0]
                        cur = nxt
                    if pushed != canonical:
                        return (small, large, order, list(w))
    return None


def run_kruml(seed: int, samples: int = 1000) -> ScenarioReport:
    """Rewriting monoid with a_m a_i -> a_i a_{m-1} for m > i: unique
    sorted normal forms, left cancellative, not right cancellative, and
    its subset-indexed directed system is path independent."""
    if samples < KRUML_SAMPLE_FLOOR:
        raise TooFewSamplesError(samples, KRUML_SAMPLE_FLOOR)
    started = time.perf_counter()
    out = []
    rng = random.Random(seed)

    mismatch = None
    for _ in range(samples):
        w = _random_word(rng)
        if knormalize(w) != knormalize_random(w, rng):
            mismatch = list(w)
            break
    out.append(Assertion(
        f"normal form is independent of reduction order ({samples} samples)",
        mismatch is None, mismatch))

    shape_bad = None
    for _ in range(samples):
        w = _random_word(rng)
        nf = knormalize(w)
        if not is_normal(nf) or knormalize(nf) != nf:
            shape_bad = list(w)
            break
    out.append(Assertion(
        "normal forms are nondecreasing and normalization is idempotent "
        f"({samples} samples)",
        shape_bad is None, shape_bad))

    cancel_bad = None
    for _ in range(samples):
        w, u, v = _random_word(rng), _random_word(rng), _random_word(rng)
        if not left_cancel_test(w, u, v):
            cancel_bad = (list(w), list(u), list(v))
            break
    out.append(Assertion(
        f"sampled left cancellation: w*u = w*v only when u = v "
        f"({samples} samples)",
        cancel_bad is None, cancel_bad))

    # each exhaustive scan reports its least failing word in tuple order
    inj_bad = None
    shift, groups = _coded_rows(6, 8, 9)
    bad = []
    for codes, rows in groups:
        # one pass decides the group; only a failing one is scanned per word
        if min(map(len, map(set, zip(*rows))), default=9) < 9:
            bad += [(c, row) for c, row in zip(codes, zip(*rows)) if len(set(row)) < 9]
    if bad:
        w, row = min((_decode(c, shift), row) for c, row in bad)
        i = next(i for i, r in enumerate(row) if r in row[:i])
        inj_bad = (list(w), row.index(row[i]), i)
    out.append(Assertion(
        "appending distinct letters to any normal word of length <= 6 "
        "gives distinct normal forms (exhaustive, letters a_0..a_8)",
        inj_bad is None, inj_bad))

    ctrex = right_cancellation_counterexamples(2)
    out.append(Assertion(
        "right cancellation fails: bounded search finds a_1*a_1 = a_2*a_1 "
        "and the least counterexample a_0*a_0 = a_1*a_0",
        (1, 2, 1) in ctrex and ctrex and ctrex[0] == (0, 1, 0),
        ctrex))

    fs = FinXSystem(("x", "y", "z", "t"))
    subsets = []
    for r in range(5):
        subsets += [tuple(c) for c in combinations(fs.ground, r)]
    words4 = list(normal_words(4, 4))
    path_ok = _lattice_commutes(fs, subsets, [_mask(w) for w in words4])
    path_bad = None if path_ok else _least_path_witness(fs, subsets, words4)
    out.append(Assertion(
        "subset transitions are path independent: any insertion order "
        "gives the same map (exhaustive, |X| <= 4, words of length <= 4)",
        path_ok, path_bad))

    beta_bad = None
    for w in words4:
        e_x = fs.element(("x",), w)
        e_y = fs.element(("y",), w)
        # element normalizes its word, so a_1*w needs no product of its own
        if not fs.colimit_equal(e_x, fs.element(("x", "y"), (1,) + w)):
            beta_bad = ("x-side", list(w))
            break
        if not fs.colimit_equal(e_y, fs.element(("x", "y"), (0,) + w)):
            beta_bad = ("y-side", list(w))
            break
    out.append(Assertion(
        "cocone identities: ({x}, w) meets ({x,y}, a_1*w) and ({y}, w) "
        "meets ({x,y}, a_0*w) in the colimit (exhaustive, length <= 4)",
        beta_bad is None, beta_bad))

    distinct_inj = not fs.colimit_equal(
        fs.element(("x",), ()), fs.element(("y",), ()))
    out.append(Assertion(
        "the singleton injections at x and y differ at the empty word",
        distinct_inj,
        [list(fs.transition(("x",), ("x", "y"), ())),
         list(fs.transition(("y",), ("x", "y"), ()))]))

    shift, groups = _coded_rows(8, 8, 2)
    bad = []
    for codes, (r0, r1) in groups:
        if any(map(operator.eq, r0, r1)):
            bad += [c for c, x, y in zip(codes, r0, r1) if x == y]
    eq_bad = list(min(_decode(c, shift) for c in bad)) if bad else None
    out.append(Assertion(
        "no word of length <= 8 equalizes the letter maps of a_0 and a_1",
        eq_bad is None, eq_bad))
    return _finish(f"kruml(samples={samples})", out, seed, started)


def run_lemma(max_order: int) -> ScenarioReport:
    """Every right-cancellative finite monoid is a group, exhaustively
    over all multiplication tables up to the given order."""
    if max_order > ENUMERATION_BOUND:
        raise OrderTooLargeError(max_order, ENUMERATION_BOUND)
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    started = time.perf_counter()
    out = []
    for k in range(1, max_order + 1):
        examined = 0
        cancellative = 0
        bad = None
        group_bad = None
        for m in enumerate_monoids(k):
            examined += 1
            right, _ = is_cancellative(m, "right")
            group = is_group(m)
            if right:
                cancellative += 1
                if not group:
                    bad = [list(row) for row in m.table]
                    break
            if group and not (is_cancellative(m, "left")[0] and right):
                group_bad = [list(row) for row in m.table]
                break
        out.append(Assertion(
            f"order {k}: every right-cancellative monoid is a group "
            f"({examined} examined, {cancellative} right-cancellative)",
            bad is None and group_bad is None,
            bad or group_bad))
    return _finish(f"lemma(max_order={max_order})", out, None, started)

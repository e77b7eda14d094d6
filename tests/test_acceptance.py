"""Acceptance gate: seven end-to-end criteria, one verdict line each.

Every test computes all of its sub-checks first, logs a single
PASS/FAIL line (replayed in the terminal summary section), and then
asserts that no sub-check failed.  Criteria 2 and 6 record the
published examples of non-unique strongly flat covers that the paper
refutes: each asserts the corrected value (the order 10, the four-class
kernel pullback, the precover witness of theta's identity) and that the
refuted claim is false, so the gate turns red if the library ever
reproduces the false claim.  README.md derives both.
"""

import itertools
import time

from actcovers import (
    Act,
    ActMap,
    all_right_congruences,
    are_isomorphic,
    build_from_table,
    canonical_projection,
    compute_colimit,
    congruence_from_partition,
    cyclic_iso_witness,
    disjoint_union,
    enumerate_monoids,
    full_congruence,
    homs,
    is_coessential,
    is_cover_wrt,
    is_precover_wrt,
    is_strongly_flat,
    make_system,
    one_element_act,
    projection_to_one,
    pullback_relation,
    qiao_wei_truncated,
    quotient_act,
    quotient_map,
    regular_act,
    relation_to_congruence,
    right_zero_adjoin_one,
    search_sf_coessential_covers,
    verify_universality,
)
from actcovers.scenarios import (
    qiao_rho,
    qiao_sigmas,
    rightzero_sigmas,
    run_kruml,
    run_lemma,
)
from test_covers import brute_coessential

RZ2 = right_zero_adjoin_one(2)


def finish(acceptance_log, index, name, checks, started, budget_s=None):
    elapsed = time.perf_counter() - started
    if budget_s is not None:
        checks = checks + [(f"runtime under {budget_s:g} s", elapsed < budget_s)]
    failing = [desc for desc, ok in checks if not ok]
    verdict = "PASS" if not failing else "FAIL"
    line = (f"criterion {index}: {verdict}  {name} "
            f"({len(checks) - len(failing)}/{len(checks)} checks, {elapsed:.2f}s)")
    if failing:
        line += "  failing: " + "; ".join(failing)
    acceptance_log(index, line)
    assert not failing, "failing sub-checks: " + "; ".join(failing)


def test_criterion_1_rightzero_covers(acceptance_log):
    started = time.perf_counter()
    checks = []
    for n in (2, 3):
        m = right_zero_adjoin_one(n)
        theta = one_element_act(m)
        sigmas, _ = rightzero_sigmas(m)
        quots = [quotient_act(m, s) for s in sigmas]
        checks.append((
            f"n={n}: the sigma_z_i are pairwise distinct partitions",
            len({s.classes for s in sigmas}) == n))
        checks.append((
            f"n={n}: every S/sigma_z_i satisfies (P) and (E)",
            all(is_strongly_flat(q).strongly_flat for q in quots)))
        checks.append((
            f"n={n}: every projection S/sigma_z_i -> theta is coessential",
            all(is_coessential(projection_to_one(q)).verdict for q in quots)))
        witness_ok = agree = True
        for sa in sigmas:
            for sb in sigmas:
                w = cyclic_iso_witness(m, sa, sb)
                iso = are_isomorphic(quotient_act(m, sa), quotient_act(m, sb))
                witness_ok = witness_ok and w is not None
                agree = agree and (w is None) == (iso is None)
        checks.append((
            f"n={n}: translation witness exists for every pair and agrees "
            "with the structural isomorphism search", witness_ok and agree))
        search = search_sf_coessential_covers(m, theta)
        checks.append((
            f"n={n}: the congruence search returns exactly the {n} "
            "translation congruences",
            sorted(s.classes for s, _ in search)
            == sorted(s.classes for s in sigmas)))
    finish(acceptance_log, 1, "right-zero covers (n=2,3)", checks,
           started, budget_s=1.0)


def test_criterion_2_truncated_monoid(acceptance_log):
    started = time.perf_counter()
    n, cap = 3, 4
    m = qiao_wei_truncated(n, cap)
    # The relations force x_j^3 = x_j^2 for j >= 1 (derivation in the
    # actcovers.monoid docstring), so x_j has min(j, 2) distinct powers
    # and the published count of 11, which keeps x3^3, is wrong.
    expected_order = 1 + cap + sum(min(k, 2) for k in range(1, n + 1))
    checks = [(
        "monoid has 10 elements, x3^3 = x3^2 is not one of them",
        expected_order == 10 and m.order == expected_order
        and "x3^3" not in m.elements)]

    sigmas, _ = qiao_sigmas(m, n)
    checks.append((
        "sigma_0..sigma_3 are pairwise distinct",
        len({s.classes for s in sigmas}) == 4))

    x = [m.elements.index(f"x{i}^1") for i in range(4)]
    inner = all(
        pullback_relation(m, sigmas[j], x[i]).pairs
        == sigmas[i].relation().pairs
        for j in range(1, 4) for i in range(1, j))
    checks.append((
        "pullback(sigma_j, x_i) = sigma_i for all 1 <= i < j <= 3", inner))

    # Pulling back along x_0 gives the kernel of s -> x_0 * s, not the
    # full relation SxS that was claimed: x_0 * x_0^p = x_0^(p+1) keeps
    # the powers of x_0 apart until the cap.
    kernel = congruence_from_partition(m, [
        [m.index(lab) for lab in cls] for cls in (
            ("1", "x1^1", "x2^1", "x2^2", "x3^1", "x3^2"),
            ("x0^1",), ("x0^2",), ("x0^3", "x0^4"))])
    full = full_congruence(m).relation().pairs
    outer = True
    for j in range(1, 4):
        pulled = pullback_relation(m, sigmas[j], x[0])
        outer = (outer and pulled.pairs != full
                 and relation_to_congruence(m, pulled).classes == kernel.classes)
    checks.append((
        "pullback(sigma_j, x_0) = ker(x_0 *) with classes {1, x1, x2, x2^2, "
        "x3, x3^2}, {x0}, {x0^2}, {x0^3, x0^4}, not SxS, for j = 1..3",
        outer))

    rho = relation_to_congruence(m, qiao_rho(m))
    one_class = rho.classes[rho.class_of[0]]
    zero_ok = all(
        m.mul(t, m.power(x[j], j)) == m.power(x[j], j)
        for j in (2, 3) for t in one_class)
    checks.append((
        "x_j^j is a right zero inside the class of 1 for j = 2,3", zero_ok))

    quots = [quotient_act(m, s) for s in sigmas[1:]]
    checks.append((
        "every S/sigma_i (i >= 1) is strongly flat",
        all(is_strongly_flat(q).strongly_flat for q in quots)))
    checks.append((
        "every projection S/sigma_i -> S/rho (i >= 1) is coessential",
        all(is_coessential(canonical_projection(m, s, rho)).verdict
            for s in sigmas[1:])))
    iso_ok = all(
        cyclic_iso_witness(m, sa, sb) is not None
        and are_isomorphic(quotient_act(m, sa), quotient_act(m, sb)) is not None
        for sa, sb in itertools.combinations(sigmas[1:], 2))
    checks.append((
        "the S/sigma_i (i >= 1) are pairwise isomorphic", iso_ok))

    finish(acceptance_log, 2, "truncated-monoid pullbacks (n=3, cap=4)",
           checks, started, budget_s=10.0)


def test_criterion_3_kruml_properties(acceptance_log):
    started = time.perf_counter()
    report = run_kruml(0, 1000)
    checks = [(a.desc, a.ok) for a in report.assertions]
    finish(acceptance_log, 3, "rewriting-monoid properties (seed=0, 1000 samples)",
           checks, started, budget_s=30.0)


def test_criterion_4_cancellative_implies_group(acceptance_log):
    started = time.perf_counter()
    report = run_lemma(4)
    checks = [(a.desc, a.ok) for a in report.assertions]
    finish(acceptance_log, 4, "right-cancellative implies group (order <= 4)",
           checks, started, budget_s=60.0)


def all_acts_over(m, max_size):
    """Every action table on 1..max_size points, identity column fixed."""
    per_size = []
    for size in range(1, max_size + 1):
        found = []
        labels = tuple(f"e{i}" for i in range(size))
        free_cols = m.order - 1
        for rows in itertools.product(
                itertools.product(range(size), repeat=free_cols),
                repeat=size):
            action = tuple((x,) + rows[x] for x in range(size))
            try:
                found.append(Act(m, labels, action))
            except ValueError:
                continue
        per_size.append(found)
    return per_size


def scenario_systems():
    S = regular_act(RZ2)
    lam_z1 = ActMap(S, S, (1, 1, 2))
    lam_z2 = ActMap(S, S, (2, 1, 2))
    sigma1 = rightzero_sigmas(RZ2)[0][0]
    q1 = quotient_act(RZ2, sigma1)
    theta = one_element_act(RZ2)
    chain = make_system(
        (0, 1, 2), [(0, 1), (1, 2), (0, 2)], {0: S, 1: S, 2: S},
        {(0, 1): lam_z1, (1, 2): lam_z1, (0, 2): lam_z1})
    qchain = make_system(
        (0, 1, 2), [(0, 1), (1, 2), (0, 2)],
        {0: S, 1: q1, 2: theta},
        {(0, 1): quotient_map(RZ2, sigma1),
         (1, 2): projection_to_one(q1),
         (0, 2): projection_to_one(S)})
    fan = make_system(
        (0, 1, 2), [(0, 2), (1, 2)], {0: S, 1: S, 2: S},
        {(0, 2): lam_z1, (1, 2): lam_z2})
    single = make_system(("a",), [], {"a": S}, {})
    return {"chain": chain, "quotient-chain": qchain,
            "fan": fan, "single": single}


def test_criterion_5_oracle_equivalences(acceptance_log):
    started = time.perf_counter()
    checks = []

    agree = True
    pairs = 0
    for n in range(1, 5):
        for m in enumerate_monoids(n):
            congs = all_right_congruences(m)
            quots = {c.classes: quotient_act(m, c) for c in congs}
            for sa in congs:
                for sb in congs:
                    pairs += 1
                    w = cyclic_iso_witness(m, sa, sb)
                    iso = are_isomorphic(quots[sa.classes], quots[sb.classes])
                    if (w is None) != (iso is None):
                        agree = False
    checks.append((
        "(a) translation witness agrees with structural isomorphism on "
        f"every congruence pair of every monoid of order <= 4 ({pairs} pairs)",
        agree))

    pools = []
    for n in (2, 3):
        m = right_zero_adjoin_one(n)
        acts = [regular_act(m), one_element_act(m)]
        acts += [quotient_act(m, c) for c in all_right_congruences(m)]
        pools.append([a for a in acts if a.size <= 6])
    for n, cap in ((2, 3), (3, 4)):
        m = qiao_wei_truncated(n, cap)
        acts = [one_element_act(m),
                quotient_act(m, relation_to_congruence(m, qiao_rho(m)))]
        acts += [quotient_act(m, s) for s in qiao_sigmas(m, n)[0]]
        pools.append([a for a in acts if a.size <= 6])
    co_agree = True
    epis = 0
    for pool in pools:
        for a in pool:
            for b in pool:
                for g in homs(a, b):
                    if not g.is_epimorphism:
                        continue
                    epis += 1
                    if is_coessential(g).verdict != brute_coessential(g):
                        co_agree = False
    checks.append((
        "(b) choice-function coessential test agrees with closed-subset "
        f"enumeration on every scenario epimorphism ({epis} epis)", co_agree))

    per_size = all_acts_over(RZ2, 4)
    census = [len(found) for found in per_size]
    checks.append((
        "(c) probe census over sizes 1..4 is (1, 5, 22, 125)",
        census == [1, 5, 22, 125]))
    probes = [a for found in per_size for a in found]
    universal = True
    instances = 0
    for system in scenario_systems().values():
        result = compute_colimit(system)
        for probe in probes:
            instances += 1
            if not verify_universality(system, result, probe):
                universal = False
    checks.append((
        "(c) computed colimits are universal against every probe act of "
        f"size <= 4 for every scenario system ({instances} instances)",
        universal))

    finish(acceptance_log, 5, "oracle equivalences", checks, started)


def test_criterion_6_cover_semantics(acceptance_log):
    started = time.perf_counter()
    m = RZ2
    S = regular_act(m)
    theta = one_element_act(m)
    q1, q2 = (quotient_act(m, s) for s in rightzero_sigmas(m)[0])
    family = [S, q1, q2, theta]
    checks = []

    # S/sigma_z1 has no fixed point, so no map theta -> S/sigma_z1
    # exists and id_theta (family member 3) cannot factor through the
    # projection; theta also fails (E), so it stands in for no strongly
    # flat act.  The published claim that this projection is a cover
    # relative to the family with theta in it is false.
    cover_q1 = is_cover_wrt(projection_to_one(q1), family)
    checks.append((
        "projection S/sigma_z1 -> theta is not a cover wrt {S, S/sigma_z1, "
        "S/sigma_z2, theta}: no map theta -> S/sigma_z1, id_theta does not "
        "factor, and theta is not strongly flat",
        list(homs(theta, q1)) == []
        and not cover_q1.verdict and cover_q1.witness == (3, (0,))
        and not is_strongly_flat(theta).strongly_flat))

    u = disjoint_union([S, S])
    fold = ActMap(u, S, (0, 1, 2, 0, 1, 2))
    pre = is_precover_wrt(fold, [S])
    cov = is_cover_wrt(fold, [S])
    checks.append(("fold map S+S -> S is a precover wrt {S}", pre.verdict))
    checks.append((
        "fold map is not a cover and a non-bijective endomorphism witness "
        "is emitted",
        not cov.verdict and cov.witness == (0, 1, 2, 0, 1, 2)))

    def covers_of_theta(fam):
        out = []
        for p in fam:
            for g in homs(p, theta):
                if g.is_epimorphism and is_cover_wrt(g, fam).verdict:
                    out.append(g)
        return out

    stated = covers_of_theta(family)
    stated_iso = all(
        are_isomorphic(g.source, h.source) is not None
        for g, h in itertools.combinations(stated, 2))
    checks.append((
        "any two covers of theta wrt the stated family are isomorphic "
        f"({len(stated)} covers found)", stated_iso))

    reduced = covers_of_theta([S, q1, q2])
    reduced_iso = all(
        are_isomorphic(g.source, h.source) is not None
        for g, h in itertools.combinations(reduced, 2))
    checks.append((
        "any two covers of theta wrt the theta-free family are isomorphic "
        f"({len(reduced)} covers found)", len(reduced) == 2 and reduced_iso))

    finish(acceptance_log, 6, "cover semantics over the right-zero monoid",
           checks, started)


def test_criterion_7_flatness_invariants(acceptance_log):
    started = time.perf_counter()
    checks = []

    test_monoids = [
        RZ2, right_zero_adjoin_one(3),
        build_from_table(("1", "e"), [[0, 1], [1, 1]]),
        qiao_wei_truncated(2, 3), qiao_wei_truncated(3, 4),
    ]
    test_monoids += list(enumerate_monoids(3))
    free_ok = True
    for m in test_monoids:
        copy_range = (1, 2) if m.order > 4 else (1, 2, 3)
        for copies in copy_range:
            f = disjoint_union([regular_act(m)] * copies)
            if not is_strongly_flat(f).strongly_flat:
                free_ok = False
    checks.append((
        f"free acts satisfy (P) and (E) over all {len(test_monoids)} "
        "test monoids", free_ok))

    rep = is_strongly_flat(one_element_act(RZ2))
    labelled = None
    if rep.e_witness is not None:
        xi, s, s2 = rep.e_witness
        labelled = ("theta", RZ2.elements[s], RZ2.elements[s2])
    checks.append((
        "theta over the right-zero monoid fails (E) with witness "
        "(theta, z1, z2)",
        not rep.condition_e and rep.e_witness == (0, 1, 2)
        and labelled == ("theta", "z1", "z2")))

    colim_ok = True
    for system in scenario_systems().values():
        if not all(is_strongly_flat(a).strongly_flat
                   for a in system.acts.values()):
            continue  # not a system of strongly flat acts
        res = compute_colimit(system)
        if not is_strongly_flat(res.act).strongly_flat:
            colim_ok = False
    checks.append((
        "colimits of the strongly flat scenario systems are strongly flat",
        colim_ok))

    finish(acceptance_log, 7, "flatness invariants", checks, started)

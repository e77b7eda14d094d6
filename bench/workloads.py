"""The benchmark's four workloads, built from a seed.

Each builder returns a Batch: a fixed list of operations, the inputs
they were generated from (for the input digest), and the operations
known to fail at the time the benchmark was written.  An operation is
one public call, or one `actcovers.cli.main(argv)`, together with a
canonical form of its result and a check of that result against a
reference computed without the library code path under test.

Library functions are looked up on their module at call time
(`ac.homs`, `cli.main`), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import actcovers as ac
import actcovers.cli as cli
import actcovers.jsonio as jsonio

import oracles

WORKLOADS = ("congruences", "oracles", "kruml", "cli")

# Passed to search_sf_coessential_covers explicitly, so that a change of
# the library's default bound does not change the workload.
SEARCH_MAX_ORDER = 8


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    canon: Callable[[object], object]
    check: Callable[[object], Optional[str]]
    kind: str = ""


@dataclass
class Batch:
    ops: list
    inputs: object
    known_defects: frozenset = frozenset()
    workdir: Optional[Path] = None

    def cleanup(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Batch:
    builders = {"congruences": congruences, "oracles": oracle_checks,
                "kruml": kruml, "cli": cli_calls}
    if name == "cli":
        return builders[name](seed, workdir, tiny)
    return builders[name](seed, tiny)


def _expect(got, want, what: str) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# -- seeded inputs -------------------------------------------------------

def transformation_monoid(rng: random.Random, cap: int = 12):
    """Table of the monoid generated by 2 or 3 random maps of 3 or 4
    points (composition left to right), identity first; None when the
    monoid has more than `cap` elements."""
    d = rng.choice((3, 4))
    gens = [tuple(rng.randrange(d) for _ in range(d))
            for _ in range(rng.choice((2, 3)))]
    elems = [tuple(range(d))]
    index = {elems[0]: 0}
    for g in gens:
        if g not in index:
            index[g] = len(elems)
            elems.append(g)
    i = 0
    while i < len(elems):
        a = elems[i]
        for g in gens:
            c = tuple(g[a[x]] for x in range(d))
            if c not in index:
                index[c] = len(elems)
                elems.append(c)
                if len(elems) > cap:
                    return None
        i += 1
    n = len(elems)
    return [[index[tuple(elems[b][elems[a][x]] for x in range(d))]
             for b in range(n)] for a in range(n)]


def transformation_tables(rng: random.Random, per_order: dict) -> list:
    """Seeded tables, exactly per_order[k] of each order k."""
    want = dict(per_order)
    out = []
    for _ in range(100_000):
        if not any(want.values()):
            return out
        t = transformation_monoid(rng)
        if t is not None and want.get(len(t)):
            want[len(t)] -= 1
            out.append(t)
    raise RuntimeError("could not draw the requested transformation monoids")


def as_monoid(table, prefix: str = "f"):
    labels = ["1"] + [f"{prefix}{i}" for i in range(1, len(table))]
    return ac.build_from_table(labels, table)


def rz_probe(rng: random.Random, size: int):
    """Seeded act over right_zero_adjoin_one(2) with `size` points.

    Acts over {1, z1, z2} are exactly partitions of the points with two
    marked points per block: x*z1 and x*z2 are the two marks of the
    block of x (z_i z_j = z_j makes both maps idempotent and constant
    on blocks)."""
    points = list(range(size))
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, size), rng.randrange(size)))
    blocks = [points[a:b] for a, b in zip([0] + cuts, cuts + [size])]
    action = [None] * size
    for block in blocks:
        m1, m2 = rng.choice(block), rng.choice(block)
        for x in block:
            action[x] = (x, m1, m2)
    return tuple(action)


def scenario_systems(rz2):
    """The four directed systems of acceptance criterion 5(c)."""
    s = ac.regular_act(rz2)
    lam_z1 = ac.ActMap(s, s, (1, 1, 2))
    lam_z2 = ac.ActMap(s, s, (2, 1, 2))
    sigma1 = ac.relation_to_congruence(rz2, ac.relation_from_subset(rz2, (0, 1)))
    q1 = ac.quotient_act(rz2, sigma1)
    theta = ac.one_element_act(rz2)
    return {
        "chain": ac.make_system(
            (0, 1, 2), [(0, 1), (1, 2), (0, 2)], {0: s, 1: s, 2: s},
            {(0, 1): lam_z1, (1, 2): lam_z1, (0, 2): lam_z1}),
        "quotient-chain": ac.make_system(
            (0, 1, 2), [(0, 1), (1, 2), (0, 2)], {0: s, 1: q1, 2: theta},
            {(0, 1): ac.quotient_map(rz2, sigma1),
             (1, 2): ac.projection_to_one(q1),
             (0, 2): ac.projection_to_one(s)}),
        "fan": ac.make_system(
            (0, 1, 2), [(0, 2), (1, 2)], {0: s, 1: s, 2: s},
            {(0, 2): lam_z1, (1, 2): lam_z2}),
        "single": ac.make_system(("a",), [], {"a": s}, {}),
    }


def qiao_congruences(m, n):
    """sigma_0..sigma_n and rho of the truncated monoid."""
    sigmas = []
    for i in range(n + 1):
        members = m.submonoid_closure((0, m.index(f"x{i}^1")))
        sigmas.append(ac.relation_to_congruence(
            m, ac.relation_from_subset(m, members)))
    zeros = tuple(k for k, lab in enumerate(m.elements) if lab.startswith("x0^"))
    ones = tuple(k for k in range(m.order) if k not in zeros)
    return sigmas, ac.congruence_from_partition(m, (ones, zeros))


# -- congruences ---------------------------------------------------------

def congruences(seed: int, tiny: bool = False) -> Batch:
    """Bell-number congruence scan and the strongly flat coessential
    search on three families: right-zero (every partition kept),
    truncated qiao-wei (almost every partition rejected) and seeded
    transformation monoids."""
    rng = random.Random(seed)
    if tiny:
        rz_ns, qw = (2, 3), ((1, 1), (2, 2))
        per_order = {4: 1, 5: 1}
    else:
        rz_ns = (5, 6, 7, 8)
        qw = ((2, 2), (2, 3), (3, 2), (2, 4), (3, 4))
        # The median and the 90th percentile of operation times fall inside
        # clusters of similar order-6/7 and order-8 operations, not at
        # their edges.  Order 9 (right-zero, 21147 partitions all kept) and
        # order 10 (qiao-wei(3, 4), 254 of 115975 kept) are one scan each,
        # which keeps a round short enough for about ten rounds in a run:
        # each operation's median time needs that many executions on a
        # shared machine.
        per_order = {6: 30, 7: 12, 8: 8}
    monoids = [(f"rz{n}", ac.right_zero_adjoin_one(n), "rz") for n in rz_ns]
    monoids += [(f"qw{n},{cap}", ac.qiao_wei_truncated(n, cap), "other")
                for n, cap in qw]
    for i, table in enumerate(transformation_tables(rng, per_order)):
        monoids.append((f"tm{i}", as_monoid(table), "other"))

    ops = []
    for label, m, family in monoids:
        table = [list(r) for r in m.table]
        ops.append(Op(f"arc:{label}", lambda m=m: ac.all_right_congruences(m),
                      _rgs_list, _arc_check(table, family), "arc"))
        # Searching every kept partition of an output-heavy right-zero
        # monoid costs more than the rest of the batch beyond order 7.
        if m.order <= (7 if family == "rz" else SEARCH_MAX_ORDER):
            theta = ac.one_element_act(m)
            ops.append(Op(
                f"search:{label}",
                lambda m=m, theta=theta: ac.search_sf_coessential_covers(
                    m, theta, max_order=SEARCH_MAX_ORDER),
                _search_canon, _search_check(table, family), "search"))
    inputs = [[label, [list(r) for r in m.table]] for label, m, _ in monoids]
    return Batch(ops, inputs)


def _rgs_list(out):
    return [oracles.rgs_of_classes(c.classes) for c in out]


def _arc_check(table, family):
    def check(out):
        got = _rgs_list(out)
        if family == "rz":
            # Every partition is a right congruence here: the output must
            # be all Bell(n) restricted growth strings, ascending.
            if any(a >= b for a, b in zip(got, got[1:])):
                return "output not strictly ascending"
            return _expect(len(got), oracles.bell(len(table)), "congruences")
        return _expect(got, oracles.right_congruences(table), "congruences")
    return check


def _search_canon(found):
    return [[oracles.rgs_of_classes(s.classes), list(g.image)] for s, g in found]


def _search_check(table, family):
    n = len(table)

    def reference():
        if family == "rz":
            # sigma_{z_i} = {1, z_i} plus singletons, for i = 1..n-1.
            return sorted(tuple(0 if x == i else (x if x < i else x - 1)
                                for x in range(n)) for i in range(1, n))
        out = []
        for rgs in oracles.right_congruences(table):
            act = oracles.quotient_action(table, rgs)
            if all(len(oracles.closure(act, [x])) == len(act)
                   for x in range(len(act))) and oracles.strongly_flat(table, act):
                out.append(rgs)
        return out

    def check(found):
        got = _search_canon(found)
        want = [[rgs, [0] * (max(rgs) + 1)] for rgs in reference()]
        return _expect(got, want, "covers")
    return check


# -- oracles -------------------------------------------------------------

def oracle_checks(seed: int, tiny: bool = False) -> Batch:
    """The cross-checks of acceptance criteria 4 and 5: the lemma,
    witness-vs-structural isomorphism on every congruence pair of every
    small monoid, coessentiality on scenario epimorphisms, and colimit
    universality against every small probe act plus seeded larger ones."""
    rng = random.Random(seed)
    max_order, census_size = (3, 2) if tiny else (4, 4)
    seeded_sizes = (3,) if tiny else (5, 5, 5, 6, 6, 6)
    ops = []

    for k in range(1, max_order + 1):
        ops.append(Op(f"lemma:{k}", lambda k=k: ac.run_lemma(k), _report_canon,
                      _lemma_check(k), "lemma"))

    monoids = [m for n in range(1, max_order + 1) for m in ac.enumerate_monoids(n)]
    for mi, m in enumerate(monoids):
        table = [list(r) for r in m.table]
        congs = ac.all_right_congruences(m)
        quots = [ac.quotient_act(m, c) for c in congs]
        for (a, sa), (b, sb) in itertools.product(enumerate(congs), repeat=2):
            ops.append(Op(
                f"iso:{mi}:{a}:{b}",
                lambda m=m, sa=sa, sb=sb, qa=quots[a], qb=quots[b]: (
                    ac.cyclic_iso_witness(m, sa, sb), ac.are_isomorphic(qa, qb)),
                _iso_canon, _iso_check(table, sa, sb), "iso"))

    for pi, pool in enumerate(_scenario_pools(tiny)):
        for (a, src), (b, tgt) in itertools.product(enumerate(pool), repeat=2):
            for hi, g in enumerate(ac.homs(src, tgt)):
                if g.is_epimorphism:
                    ops.append(Op(f"coessential:{pi}:{a}:{b}:{hi}",
                                  lambda g=g: ac.is_coessential(g),
                                  _cover_canon, _coessential_check(g),
                                  "coessential"))

    rz2 = ac.right_zero_adjoin_one(2)
    probes = _probe_census(rz2, census_size)
    seeded = [rz_probe(rng, size) for size in seeded_sizes]
    probes += [ac.Act(rz2, tuple(f"p{i}" for i in range(len(a))), a)
               for a in seeded]
    for sname, system in scenario_systems(rz2).items():
        ops.append(Op(f"colimit:{sname}",
                      lambda system=system: ac.compute_colimit(system),
                      _colimit_canon, _colimit_check(system), "colimit"))
        result = ac.compute_colimit(system)
        for p, probe in enumerate(probes):
            ops.append(Op(
                f"universal:{sname}:{p}",
                lambda system=system, result=result, probe=probe:
                    ac.verify_universality(system, result, probe),
                bool, lambda ok: _expect(ok, True, "universal"), "universal"))
    inputs = {"monoid_tables": [[list(r) for r in m.table] for m in monoids],
              "seeded_probes": [list(map(list, a)) for a in seeded]}
    return Batch(ops, inputs)


def _report_canon(report):
    return json.loads(report.canonical_bytes())


def _lemma_check(k):
    def check(report):
        # Every right-cancellative finite monoid is a group: each order
        # must pass.
        return _expect([a.ok for a in report.assertions], [True] * k, "lemma")
    return check


def _iso_canon(pair):
    u, iso = pair
    return [u, None if iso is None else list(iso.image)]


def _iso_check(table, sa, sb):
    ra, rb = oracles.rgs_of_classes(sa.classes), oracles.rgs_of_classes(sb.classes)

    def check(pair):
        u, iso = pair
        act_a = oracles.quotient_action(table, ra)
        act_b = oracles.quotient_action(table, rb)
        if u is not None and not oracles.translation_iso(table, ra, rb, u):
            return f"witness {u} does not give an isomorphism"
        if iso is not None and not oracles.is_isomorphism(act_a, act_b, iso.image):
            return f"map {iso.image} is not an isomorphism"
        if (u is None) != (iso is None):
            return "witness and structural search disagree"
        if u is None and oracles.isomorphic(act_a, act_b):
            return "isomorphic quotients reported as not isomorphic"
        return None
    return check


def _scenario_pools(tiny: bool):
    pools = []
    for n in ((2,) if tiny else (2, 3)):
        m = ac.right_zero_adjoin_one(n)
        acts = [ac.regular_act(m), ac.one_element_act(m)]
        acts += [ac.quotient_act(m, c) for c in ac.all_right_congruences(m)]
        pools.append([a for a in acts if a.size <= 6])
    for n, cap in (() if tiny else ((2, 3), (3, 4))):
        m = ac.qiao_wei_truncated(n, cap)
        sigmas, rho = qiao_congruences(m, n)
        acts = [ac.one_element_act(m), ac.quotient_act(m, rho)]
        acts += [ac.quotient_act(m, s) for s in sigmas]
        pools.append([a for a in acts if a.size <= 6])
    return pools


def _cover_canon(report):
    w = report.witness
    return [report.verdict, list(w) if w is not None else None]


def _coessential_check(g):
    src = g.source.action
    image, tsize = g.image, g.target.size

    def check(report):
        want = oracles.coessential(src, image, tsize)
        if report.verdict != want:
            return f"verdict {report.verdict}, closed-subset enumeration says {want}"
        if not want:
            sub = frozenset(report.witness)
            if (len(sub) == len(src) or oracles.closure(src, sub) != sub
                    or len({image[x] for x in sub}) != tsize):
                return f"witness {report.witness} is not a proper covering subact"
        return None
    return check


def _probe_census(m, max_size):
    """Every act over m on 1..max_size points, by validating every
    action table with the identity column fixed."""
    found = []
    for size in range(1, max_size + 1):
        labels = tuple(f"e{i}" for i in range(size))
        for rows in itertools.product(
                itertools.product(range(size), repeat=m.order - 1), repeat=size):
            try:
                found.append(ac.Act(m, labels,
                                    tuple((x,) + rows[x] for x in range(size))))
            except ValueError:
                continue
    return found


def _colimit_canon(result):
    return [[list(r) for r in result.act.action],
            {str(i): list(f.image) for i, f in sorted(result.injections.items(),
                                                      key=lambda kv: str(kv[0]))}]


def _colimit_check(system):
    nodes = list(system.nodes)
    acts = {i: system.acts[i].action for i in nodes}
    arrows = {k: f.image for k, f in system.arrows.items()}

    def check(result):
        # Components of the tagged disjoint union under the arrows.
        parent = {(i, x): (i, x) for i in nodes for x in range(len(acts[i]))}

        def root(p):
            while parent[p] != p:
                p = parent[p]
            return p

        for (i, j), image in arrows.items():
            for x, y in enumerate(image):
                ra, rb = root((i, x)), root((j, y))
                if ra != rb:
                    parent[ra] = rb
        classes = len({root(p) for p in parent})
        act = result.act.action
        if len(act) != classes:
            return f"{len(act)} colimit elements, {classes} components"
        inj = {i: result.injections[i].image for i in nodes}
        if any(not oracles.is_equivariant(acts[i], act, inj[i]) for i in nodes):
            return "an injection is not equivariant"
        if any(inj[j][y] != inj[i][x] for (i, j), image in arrows.items()
               for x, y in enumerate(image)):
            return "injections do not commute with the arrows"
        if {y for i in nodes for y in inj[i]} != set(range(len(act))):
            return "injections are not jointly onto"
        return None
    return check


# -- kruml ---------------------------------------------------------------

def kruml(seed: int, tiny: bool = False) -> Batch:
    """Rewriting only: the kruml scenario, normal forms of long words and
    equality in the subset-indexed colimit.  No multiplication tables."""
    rng = random.Random(seed)
    # 60 pairs against 100 words puts the median operation among the
    # normal forms (0.3-10 ms), not among the colimit equalities
    # (15-75 us), whose times follow the machine's swings in speed
    # within milliseconds.
    n_scen, n_words, n_pairs = (1, 4, 4) if tiny else (2, 100, 60)
    samples, (lo, hi) = (100, (10, 20)) if tiny else (1000, (40, 200))
    ops = []
    scen_seeds = [rng.randrange(2**31) for _ in range(n_scen)]
    for s in scen_seeds:
        ops.append(Op(f"run_kruml:{s}", lambda s=s: ac.run_kruml(s, samples),
                      _report_canon,
                      lambda r: _expect(r.passed and len(r.assertions), 9,
                                        "passing assertions"), "run_kruml"))
    words = []
    for i in range(n_words):
        length = lo + (hi - lo) * i // max(n_words - 1, 1)
        words.append(tuple(rng.randint(0, 20) for _ in range(length)))
    for i, w in enumerate(words):
        ops.append(Op(f"knormalize:{i}", lambda w=w: ac.knormalize(w), list,
                      _knormal_check(w, rng.randrange(2**31)), "knormalize"))

    # Subset sizes and word lengths follow the pair index and only the
    # members and letters are drawn, so the cost of the batch does not
    # depend on the seed.
    pairs = []
    for i in range(n_pairs):
        ground = tuple(f"g{k}" for k in range(5 + i % 2))
        fs = ac.FinXSystem(ground)
        k1 = (i // 2) % len(ground)
        y1 = sorted(rng.sample(ground, k1))
        w1 = tuple(rng.randint(0, 8) for _ in range(6 + i % 7))
        if i % 2 == 0:
            # A representative of the same colimit element.
            extra = [z for z in ground if z not in y1]
            y2 = sorted(y1 + rng.sample(extra, min(len(extra), 1 + (i // 2) % 3)),
                        key=ground.index)
            w2 = oracles.kruml_transition(ground, y1, y2, w1)
        else:
            y2 = sorted(rng.sample(ground, (k1 + 2) % len(ground)))
            w2 = tuple(rng.randint(0, 8) for _ in range(6 + (i + 3) % 7))
        pairs.append([list(ground), y1, list(w1), y2, list(w2)])
        e1, e2 = fs.element(y1, w1), fs.element(y2, w2)
        ops.append(Op(f"colimit_equal:{i}",
                      lambda fs=fs, e1=e1, e2=e2: fs.colimit_equal(e1, e2),
                      bool, _colimit_equal_check(ground, y1, w1, y2, w2),
                      "colimit_equal"))
    inputs = {"scenario_seeds": scen_seeds, "words": [list(w) for w in words],
              "pairs": pairs}
    return Batch(ops, inputs)


def _knormal_check(word, seed):
    def check(nf):
        want = oracles.knormal(word)
        if not ac.is_normal(nf):
            return "result is not nondecreasing"
        if tuple(ac.knormalize_random(word, random.Random(seed))) != want:
            return "random-redex normal form disagrees with the reference"
        return _expect(tuple(nf), want, "normal form")
    return check


def _colimit_equal_check(ground, y1, w1, y2, w2):
    def check(equal):
        union = sorted(set(y1) | set(y2), key=ground.index)
        want = (oracles.kruml_transition(ground, y1, union, w1)
                == oracles.kruml_transition(ground, y2, union, w2))
        return _expect(equal, want, "colimit equality")
    return check


# -- cli -----------------------------------------------------------------

# Input-boundary defects known at the time the benchmark was written.
# The first four should exit 2 and crash or exit 0 instead.  The rest
# are valid system documents whose nodes are JSON numbers, as
# jsonio.system_to_doc writes them for the scenario systems:
# system_from_doc turns the nodes into strings but not the order pairs,
# so the document is rejected with exit 2.
KNOWN_DEFECTS = frozenset({
    "check:validate:defect-table-not-list",
    "check:validate:defect-act-without-monoid",
    "check:validate:defect-system-unknown-node",
    "check:is-group:defect-bool-index",
} | {f"check:{op}:{name}" for op in ("validate", "colimit")
     for name in ("chain", "quotient-chain", "fan")})


def run_cli(argv):
    """One in-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_canon(workdir: Path):
    """Exit code, JSON report without its timing, and error text with
    the per-process document directory replaced by a fixed name."""
    def canon(result):
        code, out, err = result
        doc = json.loads(out) if out.startswith("{") else out
        if isinstance(doc, dict):
            doc.pop("elapsed_ms", None)
        return [code, doc, err.replace(str(workdir), "<docs>")]
    return canon


def cli_calls(seed: int, workdir: Path, tiny: bool = False) -> Batch:
    """In-process CLI calls: every scenario subcommand except kruml,
    kruml-nf on seeded words, all five check ops on seeded documents,
    and malformed documents that must exit 2."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    docs = {}

    def write(name, doc):
        text = doc if isinstance(doc, str) else json.dumps(doc)
        docs[name] = text
        (workdir / name).write_text(text)
        return str(workdir / name)

    ops = []
    canon = _cli_canon(workdir)

    def add(argv, check, name=None):
        ops.append(Op(name or ":".join(argv), lambda argv=argv: run_cli(argv + ["--json"]),
                      canon, check, argv[0]))

    # Scenario subcommands; their verdicts come from the library API.
    scen = [("rightzero", ["--n", str(n)], lambda n=n: ac.run_rightzero(n))
            for n in range(1, 3 if tiny else 6)]
    scen += [("qiao-wei", ["--n", str(n), "--cap", str(cap)],
              lambda n=n, cap=cap: ac.run_qiao_wei(n, cap))
             for n in range(1, 2 if tiny else 5) for cap in range(1, 3 if tiny else 7)]
    scen += [("lemma", ["--max-order", str(k)], lambda k=k: ac.run_lemma(k))
             for k in range(1, 3 if tiny else 5)]
    for command, args, run in scen:
        add([command] + args, _scenario_check(run))

    for _ in range(4 if tiny else 20):
        word = [rng.randint(0, 12) for _ in range(rng.randint(5, 40))]
        add(["kruml-nf"] + [str(i) for i in word], _nf_check(word))

    # Monoid documents.
    monoids = {}
    for i, table in enumerate(transformation_tables(
            rng, {3: 1, 4: 1} if tiny else {3: 2, 4: 2, 5: 2, 6: 1, 8: 1})):
        monoids[f"tm{i}"] = as_monoid(table)
    for k in rng.sample(range(2, 7), 1 if tiny else 3):
        monoids[f"cyclic{k}"] = ac.build_from_table(
            [f"c{i}" for i in range(k)],
            [[(i + j) % k for j in range(k)] for i in range(k)])
    monoids["rz"] = ac.right_zero_adjoin_one(rng.randint(1, 4))
    monoids["qw"] = ac.qiao_wei_truncated(rng.randint(1, 2), rng.randint(1, 3))
    for name, m in monoids.items():
        path = write(f"{name}.json", jsonio.monoid_to_doc(m))
        add(["check", path, "--op", "validate"], _exit_check(0), f"check:validate:{name}")
        add(["check", path, "--op", "is-group"],
            _exit_check(0 if ac.is_group(m) else 1), f"check:is-group:{name}")
        canc = all(ac.is_cancellative(m, side)[0] for side in ("left", "right"))
        add(["check", path, "--op", "is-cancellative"],
            _exit_check(0 if canc else 1), f"check:is-cancellative:{name}")

    # Act documents: seeded quotients, probes and regular acts; every
    # other one names its monoid by a relative path.
    acts = {}
    for name, m in list(monoids.items())[:6 if not tiny else 2]:
        congs = ac.all_right_congruences(m)
        acts[f"quot-{name}"] = ac.quotient_act(m, rng.choice(congs))
        acts[f"reg-{name}"] = ac.regular_act(m)
    rz2 = ac.right_zero_adjoin_one(2)
    for size in ((2,) if tiny else (2, 3, 4, 5)):
        a = rz_probe(rng, size)
        acts[f"probe{size}"] = ac.Act(rz2, tuple(f"p{i}" for i in range(size)), a)
    for k, (name, act) in enumerate(acts.items()):
        doc = jsonio.act_to_doc(act)
        if k % 2:
            write(f"monoid-of-{name}.json", doc["monoid"])
            doc["monoid"] = f"monoid-of-{name}.json"
        path = write(f"{name}.json", doc)
        add(["check", path, "--op", "validate"], _exit_check(0), f"check:validate:{name}")
        flat = ac.is_strongly_flat(act).strongly_flat
        add(["check", path, "--op", "strongly-flat"], _exit_check(0 if flat else 1),
            f"check:strongly-flat:{name}")

    # System documents: the scenario systems and seeded quotient chains.
    systems = dict(scenario_systems(rz2))
    for name, m in list(monoids.items())[:1 if tiny else 4]:
        congs = ac.all_right_congruences(m)
        sigma = rng.choice(congs)
        rho = rng.choice([c for c in congs if _refines(sigma, c)])
        s, qs, qr = ac.regular_act(m), ac.quotient_act(m, sigma), ac.quotient_act(m, rho)
        systems[f"qchain-{name}"] = ac.make_system(
            ("s", "q", "r"), [("s", "q"), ("q", "r"), ("s", "r")],
            {"s": s, "q": qs, "r": qr},
            {("s", "q"): ac.quotient_map(m, sigma),
             ("q", "r"): ac.canonical_projection(m, sigma, rho),
             ("s", "r"): ac.quotient_map(m, rho)})
    for name, system in systems.items():
        path = write(f"system-{name}.json", jsonio.system_to_doc(system))
        add(["check", path, "--op", "validate"], _exit_check(0), f"check:validate:{name}")
        add(["check", path, "--op", "colimit"], _colimit_doc_check(system),
            f"check:colimit:{name}")

    for op, name, doc in _malformed(rng, monoids):
        path = str(workdir / "missing.json") if doc is None else write(f"bad-{name}.json", doc)
        add(["check", path, "--op", op], _exit_check(2), f"check:{op}:{name}")

    inputs = {"docs": docs, "argv": [op.name for op in ops]}
    return Batch(ops, inputs, known_defects=KNOWN_DEFECTS, workdir=workdir)


def _refines(sigma, rho) -> bool:
    return all(len({rho.class_of[x] for x in c}) == 1 for c in sigma.classes)


def _malformed(rng, monoids):
    """(op, name, document) for documents the CLI must reject with exit
    2; a document of None names a file that does not exist."""
    n = rng.randint(2, 4)
    good = [[j if i == 0 else (i if j == 0 else rng.randrange(n)) for j in range(n)]
            for i in range(n)]
    while True:
        # A table with the identity in place that is not associative.
        nonassoc = [[j if i == 0 else (i if j == 0 else rng.randrange(3)) for j in range(3)]
                    for i in range(3)]
        t = nonassoc
        if any(t[t[a][b]][c] != t[a][t[b][c]]
               for a in range(3) for b in range(3) for c in range(3)):
            break
    m = monoids["rz"]
    mdoc = jsonio.monoid_to_doc(m)
    size = rng.randint(1, 3)
    act_rows = [[x] + [rng.randrange(size) for _ in range(m.order - 1)]
                for x in range(size)]
    rz2 = ac.right_zero_adjoin_one(2)
    s_doc = jsonio.act_to_doc(ac.regular_act(rz2))
    bad_rows = [[0, 1, 2], [1, 1, 2], [2, 2, 1]]  # z2*z1 must be z1
    return [
        ("validate", "bad-json", "{\"table\": [[0, " + str(rng.randint(0, 9))),
        ("validate", "top-level-array", json.dumps([rng.randint(0, 9)])),
        ("validate", "unknown-shape", json.dumps({"rows": good})),
        ("validate", "not-associative", json.dumps({"table": nonassoc})),
        ("is-group", "identity-not-0", json.dumps({"table": good, "identity": 1})),
        ("validate", "index-out-of-range",
         json.dumps({"table": [row[:-1] + [n + rng.randint(0, 5)] for row in good]})),
        ("strongly-flat", "act-law",
         json.dumps({"monoid": jsonio.monoid_to_doc(rz2), "action": bad_rows})),
        ("validate", "act-shape",
         json.dumps({"monoid": mdoc, "action": [row[:-1] for row in act_rows]})),
        ("validate", "system-not-directed",
         json.dumps({"nodes": ["a", "b"], "acts": {"a": s_doc, "b": s_doc},
                     "arrows": {}})),
        ("colimit", "system-incoherent",
         json.dumps({"nodes": ["a", "b", "c"], "acts": {"a": s_doc, "b": s_doc, "c": s_doc},
                     "arrows": {"a,b": [1, 1, 2], "b,c": [1, 1, 2], "a,c": [0, 1, 2]}})),
        ("validate", "missing-file", None),
        ("validate", "defect-table-not-list", json.dumps({"table": rng.randint(1, 9)})),
        ("validate", "defect-act-without-monoid",
         json.dumps({"elements": [f"a{x}" for x in range(size)], "action": act_rows})),
        ("validate", "defect-system-unknown-node",
         json.dumps({"nodes": ["a", "b"], "acts": {"a": s_doc, "b": s_doc},
                     "arrows": {"a,zz": [0, 1, 2]}})),
        ("is-group", "defect-bool-index",
         json.dumps({"table": [[0, True], [True, 0]]})),
    ]


def _exit_check(code):
    def check(result):
        return _expect(result[0], code, "exit code")
    return check


def _scenario_check(run):
    def check(result):
        code, out, _ = result
        report = run()
        if code != (0 if report.passed else 1):
            return f"exit code {code} for a report that passed={report.passed}"
        doc = json.loads(out)
        doc.pop("elapsed_ms", None)
        return _expect(doc, _report_canon(report), "report")
    return check


def _nf_check(word):
    def check(result):
        code, out, _ = result
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        want = list(oracles.knormal(word))
        normal = all(a <= b for a, b in zip(word, word[1:]))
        return _expect([doc["normal"], doc["input_was_normal"]], [want, normal],
                       "normal form")
    return check


def _colimit_doc_check(system):
    def check(result):
        code, out, _ = result
        if code != 0:
            return f"exit code {code}"
        colim = ac.compute_colimit(system)
        got = json.loads(out)["assertions"][-1]["witness"]
        return _expect(got["act"]["action"], [list(r) for r in colim.act.action],
                       "colimit act")
    return check

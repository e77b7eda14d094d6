"""Command line front end.

One subcommand per scenario plus `kruml-nf` for one-off normal forms
and `check` for operations on JSON documents.  Every subcommand accepts
--json; exit status is 0 exactly when all assertions passed, 1 when
some failed, 2 on bad input.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from .colimit import compute_colimit
from .errors import ActcoversError
from .flatness import is_strongly_flat
from .jsonio import (
    act_from_doc,
    act_to_doc,
    dump_canonical,
    load_document,
    monoid_from_doc,
    system_from_doc,
)
from .kruml import is_normal, knormalize
from .monoid import is_cancellative, is_group
from .scenarios import Assertion, ScenarioReport, run_kruml, run_lemma, run_qiao_wei, run_rightzero

CHECK_OPS = ("validate", "is-group", "is-cancellative", "strongly-flat", "colimit")


def _emit(report: ScenarioReport, as_json: bool) -> int:
    if as_json:
        sys.stdout.write(dump_canonical(report.to_doc()))
    else:
        print(report.render())
    return 0 if report.passed else 1


def _labels(seq, witness):
    if witness is None:
        return None
    return [seq[i] for i in witness]


def _run_check(path: str, op: str) -> ScenarioReport:
    started = time.perf_counter()
    doc = load_document(path)
    base = Path(path).resolve().parent
    assertions = []
    if op == "validate":
        if "nodes" in doc:
            system = system_from_doc(doc, base)
            kind, size = "directed system", len(system.nodes)
        elif "action" in doc:
            act = act_from_doc(doc, base)
            kind, size = "act", act.size
        elif "table" in doc:
            m = monoid_from_doc(doc)
            kind, size = "monoid", m.order
        else:
            raise ValueError("unrecognized document shape")
        assertions.append(Assertion(f"document is a valid {kind}", True, size))
    elif op == "is-group":
        m = monoid_from_doc(doc)
        assertions.append(Assertion("monoid is a group", is_group(m), None))
    elif op == "is-cancellative":
        m = monoid_from_doc(doc)
        for side in ("left", "right"):
            ok, wit = is_cancellative(m, side)
            assertions.append(Assertion(
                f"monoid is {side} cancellative", ok,
                _labels(m.elements, wit)))
    elif op == "strongly-flat":
        act = act_from_doc(doc, base)
        report = is_strongly_flat(act)
        mex = act.monoid.elements
        p_wit = e_wit = None
        if report.p_witness is not None:
            x, y, s, s2 = report.p_witness
            p_wit = [act.elements[x], act.elements[y], mex[s], mex[s2]]
        if report.e_witness is not None:
            x, s, s2 = report.e_witness
            e_wit = [act.elements[x], mex[s], mex[s2]]
        assertions.append(Assertion("condition (P)", report.condition_p, p_wit))
        assertions.append(Assertion("condition (E)", report.condition_e, e_wit))
        assertions.append(Assertion(
            "act is strongly flat", report.strongly_flat, None))
    elif op == "colimit":
        system = system_from_doc(doc, base)
        assertions.append(Assertion("system validates", True, None))
        result = compute_colimit(system)
        assertions.append(Assertion(
            "colimit computed", True,
            {"act": act_to_doc(result.act),
             "injections": {str(i): list(f.image)
                            for i, f in sorted(result.injections.items())}}))
    else:
        raise ValueError(f"unknown op {op!r}")
    elapsed = (time.perf_counter() - started) * 1000.0
    return ScenarioReport(f"check({op})", tuple(assertions), None, elapsed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actcovers",
        description="Workbench for acts over finite monoids: congruences, "
        "strong flatness, coessential covers, and directed colimits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rightzero", help="right-zero monoid cover scenario")
    p.add_argument("--n", type=int, default=2, help="size of the right-zero part")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("qiao-wei", help="truncated two-family monoid scenario")
    p.add_argument("--n", type=int, default=3, help="number of x_k generators")
    p.add_argument("--cap", type=int, default=None,
                   help="truncation exponent for x_0 (default n+1)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("kruml", help="rewriting monoid property scenario")
    p.add_argument("--seed", type=int, required=True, help="sampling seed")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("kruml-nf", help="normalize one word (letter indices)")
    p.add_argument("letters", type=int, nargs="*",
                   help="generator indices, e.g. 3 1 2; empty for the identity")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("lemma", help="right-cancellative implies group, exhaustively")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="run an operation on a JSON document")
    p.add_argument("file", help="path to a monoid/act/system document")
    p.add_argument("--op", choices=CHECK_OPS, default="validate")
    p.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() reuses, built on its first call: parsing reads
    but never changes a parser, so one serves every in-process call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "rightzero":
            return _emit(run_rightzero(args.n), args.json)
        if args.command == "qiao-wei":
            return _emit(run_qiao_wei(args.n, args.cap), args.json)
        if args.command == "kruml":
            return _emit(run_kruml(args.seed, args.samples), args.json)
        if args.command == "lemma":
            return _emit(run_lemma(args.max_order), args.json)
        if args.command == "kruml-nf":
            word = tuple(args.letters)
            nf = knormalize(word)
            if args.json:
                sys.stdout.write(dump_canonical({
                    "input": list(word),
                    "normal": list(nf),
                    "input_was_normal": is_normal(word),
                }))
            else:
                shown = " ".join(str(i) for i in nf) if nf else "(empty word)"
                print(shown)
            return 0
        if args.command == "check":
            return _emit(_run_check(args.file, args.op), args.json)
    except (ActcoversError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

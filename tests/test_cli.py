"""Command line entry point: exit codes, output shapes, check ops."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from actcovers import (
    Act,
    ActMap,
    congruence_from_partition,
    disjoint_union,
    knormalize,
    make_system,
    one_element_act,
    quotient_act,
    regular_act,
    relation_from_subset,
    relation_to_congruence,
    right_zero_adjoin_one,
)
from actcovers import cli
from actcovers.cli import build_parser, main
from actcovers.jsonio import act_to_doc, dump_canonical, monoid_to_doc, system_to_doc

RZ2 = right_zero_adjoin_one(2)


@pytest.fixture
def monoid_file(tmp_path):
    p = tmp_path / "monoid.json"
    p.write_text(dump_canonical(monoid_to_doc(RZ2)))
    return str(p)


@pytest.fixture
def theta_file(tmp_path):
    p = tmp_path / "theta.json"
    p.write_text(dump_canonical(act_to_doc(one_element_act(RZ2))))
    return str(p)


@pytest.fixture
def system_file(tmp_path):
    S = regular_act(RZ2)
    lam = ActMap(S, S, (1, 1, 2))
    system = make_system(
        ("0", "1"), [("0", "1")], {"0": S, "1": S}, {("0", "1"): lam})
    p = tmp_path / "system.json"
    p.write_text(dump_canonical(system_to_doc(system)))
    return str(p)


class TestScenarioCommands:
    def test_rightzero_ok(self, capsys):
        assert main(["rightzero", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("scenario: rightzero(n=2)")
        assert "result: PASS (7/7 assertions)" in out

    def test_rightzero_json(self, capsys):
        assert main(["rightzero", "--n", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"] == "rightzero(n=2)"
        assert len(doc["assertions"]) == 7
        assert all(a["ok"] for a in doc["assertions"])

    def test_qiao_wei_default(self, capsys):
        assert main(["qiao-wei"]) == 0
        assert "qiao-wei(n=3,cap=4)" in capsys.readouterr().out

    def test_kruml_requires_seed(self):
        with pytest.raises(SystemExit):
            main(["kruml"])

    def test_kruml_json_records_seed(self, capsys):
        assert main(["kruml", "--seed", "7", "--samples", "150", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 7

    def test_lemma(self, capsys):
        assert main(["lemma", "--max-order", "2"]) == 0
        assert "(2 examined, 1 right-cancellative)" in capsys.readouterr().out

    def test_bad_parameter_is_exit_2(self, capsys):
        assert main(["rightzero", "--n", "9"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestKrumlNf:
    def test_normalizes(self, capsys):
        assert main(["kruml-nf", "3", "1", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1 2 2"

    def test_empty_word(self, capsys):
        assert main(["kruml-nf"]) == 0
        assert capsys.readouterr().out.strip() == "(empty word)"

    def test_json(self, capsys):
        assert main(["kruml-nf", "1", "0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"input": [1, 0], "normal": [0, 0],
                       "input_was_normal": False}

    @pytest.mark.parametrize("letters, normal", [
        ([5, 10**300], [5, 10**300]),
        ([10**300, 0], [0, 10**300 - 1]),
    ], ids=["normal", "reordered"])
    def test_huge_letter(self, capsys, letters, normal):
        # a short word stays on the letters, never on the missing-set
        # mask, which is dense up to the largest letter
        assert main(["kruml-nf", *map(str, letters)]) == 0
        assert capsys.readouterr().out == " ".join(map(str, normal)) + "\n"

    @pytest.mark.parametrize("letters", [
        [(7 * p) % 11 for p in range(15)] + [10**12] + [(5 * p) % 13 for p in range(14)],
        [(37 * p) % 199 for p in range(200)],
    ], ids=["huge-letter-30", "long-200"])
    def test_long_words(self, capsys, letters):
        # from 24 letters on, a word whose letters are below its length is
        # normalized on the mask, and one with a larger letter on the walk
        assert main(["kruml-nf", *map(str, letters)]) == 0
        assert capsys.readouterr().out == " ".join(map(str, knormalize(letters))) + "\n"

    def test_negative_letter(self, capsys):
        assert main(["kruml-nf", "--", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_letter_mid_word(self, capsys):
        assert main(["kruml-nf", "--", "2", "-1", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: generator indices must be nonnegative\n")


class TestCheck:
    def test_validate_monoid(self, monoid_file, capsys):
        assert main(["check", monoid_file]) == 0
        assert "valid monoid" in capsys.readouterr().out

    def test_validate_act(self, theta_file, capsys):
        assert main(["check", theta_file]) == 0
        assert "valid act" in capsys.readouterr().out

    def test_validate_system(self, system_file, capsys):
        assert main(["check", system_file]) == 0
        assert "valid directed system" in capsys.readouterr().out

    def test_is_group_false(self, monoid_file, capsys):
        assert main(["check", monoid_file, "--op", "is-group"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_is_cancellative_witness(self, monoid_file, capsys):
        assert main(["check", monoid_file, "--op", "is-cancellative"]) == 1
        out = capsys.readouterr().out
        # right cancellation fails at 1*z1 = z1*z1
        assert "['1', 'z1', 'z1']" in out

    def test_strongly_flat_theta(self, theta_file, capsys):
        assert main(["check", theta_file, "--op", "strongly-flat"]) == 1
        out = capsys.readouterr().out
        assert "['theta', 'z1', 'z2']" in out

    def test_strongly_flat_regular(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text(dump_canonical(act_to_doc(regular_act(RZ2))))
        assert main(["check", str(p), "--op", "strongly-flat"]) == 0
        assert "3/3 assertions" in capsys.readouterr().out

    def test_strongly_flat_two_generators(self, tmp_path, capsys):
        # S/sigma_{z1} + theta needs two generators; the first failing
        # equality is theta*z1 = theta*z2, as u*z1 != u*z2 for every u
        q1 = quotient_act(RZ2, relation_to_congruence(
            RZ2, relation_from_subset(RZ2, (0, 1))))
        p = tmp_path / "q1_theta.json"
        p.write_text(dump_canonical(act_to_doc(
            disjoint_union([q1, one_element_act(RZ2)]))))
        assert main(["check", str(p), "--op", "strongly-flat", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [(a["desc"], a["ok"], a["witness"]) for a in doc["assertions"]] == [
            ("condition (P)", False, ["1:theta", "1:theta", "z1", "z2"]),
            ("condition (E)", False, ["1:theta", "z1", "z2"]),
            ("act is strongly flat", False, None)]

    def test_colimit_json(self, system_file, capsys):
        assert main(["check", system_file, "--op", "colimit", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        witness = doc["assertions"][1]["witness"]
        assert witness["act"]["elements"] == ["0:1", "0:z2", "1:1"]
        assert witness["injections"]["0"] == [0, 0, 1]

    def test_colimit_labels_ignore_node_names(self, tmp_path, capsys):
        # node "a" tagging its element "b:1" and node "a:b" tagging its
        # element "1" would both give "a:b:1"; position tags do not
        S = regular_act(RZ2)
        relabelled = Act(RZ2, ("b:1", "b:z1", "b:z2"), S.action)
        doc = {"nodes": ["a", "a:b"], "order": [["a", "a:b"]],
               "acts": {"a": act_to_doc(relabelled), "a:b": act_to_doc(S)},
               "arrows": {"a,a:b": [1, 1, 2]}}
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p), "--op", "colimit", "--json"]) == 0
        witness = json.loads(capsys.readouterr().out)["assertions"][1]["witness"]
        assert witness["act"]["elements"] == ["0:b:1", "0:b:z2", "1:1"]
        assert witness["injections"] == {"a": [0, 0, 1], "a:b": [2, 0, 1]}

    def test_act_with_monoid_path(self, tmp_path, monoid_file, capsys):
        doc = act_to_doc(quotient_act(RZ2, congruence_from_partition(
            RZ2, ((0, 1), (2,)))))
        doc["monoid"] = "monoid.json"
        p = tmp_path / "q1.json"
        p.write_text(dump_canonical(doc))
        assert main(["check", str(p), "--op", "strongly-flat"]) == 0

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/path.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["check", str(p)]) == 2

    def test_invalid_table(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"elements": ["1", "a"],
                                 "table": [[0, 1], [1, 0]]}))
        # that table is Z2, fine; break associativity instead
        q = tmp_path / "bad2.json"
        q.write_text(json.dumps({"elements": ["1", "a", "b"],
                                 "table": [[0, 1, 2], [1, 0, 0], [2, 0, 1]]}))
        assert main(["check", str(q)]) == 2

    @pytest.mark.parametrize("image", [[1.0, 1, 2], "012", 5])
    def test_bad_arrow_image(self, tmp_path, system_file, image, capsys):
        doc = json.loads(Path(system_file).read_text())
        doc["arrows"]["0,1"] = image
        p = tmp_path / "bad_arrow.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p), "--op", "validate"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, field, value", [
        ("monoid", "elements", 7),
        ("theta", "elements", 7),
        ("system", "acts", 5),
        ("system", "arrows", []),
        ("system", "nodes", 5),
        ("system", "order", 5),
        ("system", "order", [5]),
        ("monoid", "table", [[0, 1], 5]),
        ("theta", "action", 5),
        ("theta", "action", [3]),
        ("system", "order", [["0"]]),
        ("system", "order", [["0", "1", "1"]]),
        ("system", "order", [[["0"], "1"]]),
        ("system", "order", [["0", {"1": 1}]]),
    ])
    def test_field_of_wrong_type(self, request, tmp_path, kind, field, value, capsys):
        doc = json.loads(Path(request.getfixturevalue(f"{kind}_file")).read_text())
        doc[field] = value
        p = tmp_path / "bad_field.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_op_rejected_by_argparse(self, monoid_file):
        with pytest.raises(SystemExit):
            main(["check", monoid_file, "--op", "frobnicate"])

    DEEP = 5000  # beyond the JSON decoder's recursion limit

    @pytest.mark.parametrize("text", [
        "[" * DEEP + "]" * DEEP,
        '{"nodes": ' + "[" * DEEP + "]" * DEEP + "}",
    ], ids=["top-level-array", "nodes"])
    def test_over_deep_document(self, tmp_path, text, capsys):
        p = tmp_path / "deep.json"
        p.write_text(text)
        assert main(["check", str(p)]) == 2
        assert capsys.readouterr().err == "error: JSON document is nested too deeply\n"

    def test_over_deep_monoid_path(self, tmp_path, theta_file, capsys):
        (tmp_path / "deep.json").write_text("[" * self.DEEP + "]" * self.DEEP)
        doc = json.loads(Path(theta_file).read_text())
        doc["monoid"] = "deep.json"
        p = tmp_path / "act.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p), "--op", "strongly-flat"]) == 2
        assert capsys.readouterr().err == "error: JSON document is nested too deeply\n"


# a name the decoder accepts but that echoes as 1800 characters
DEEP_NAME = "[" * 900 + "]" * 900
LONG = "n" * 1000
HUGE = 10 ** 300
S_DOC = act_to_doc(regular_act(RZ2))
# ordinary names longer than the default reprlib cut, equal at both ends
NORTH, SOUTH = "sensor_cluster_north_stage_01", "sensor_cluster_south_stage_01"


class TestLongValuesQuotedShort:
    """Error messages quote document values through reprlib, so a long
    value gives one short error line; short values print in full."""

    @pytest.mark.parametrize("text", [
        '{"nodes": [' + DEEP_NAME + '], "acts": {}, "arrows": {}}',
        json.dumps({"nodes": [LONG + "a", LONG + "b"],
                    "acts": {LONG + "a": S_DOC, LONG + "b": S_DOC}, "arrows": {}}),
        json.dumps({"nodes": [LONG + "a", LONG + "b", LONG + "c"],
                    "acts": {LONG + k: S_DOC for k in "abc"},
                    "arrows": {f"{LONG}a,{LONG}b": [1, 1, 2], f"{LONG}b,{LONG}c": [1, 1, 2],
                               f"{LONG}a,{LONG}c": [0, 1, 2]}}),
        json.dumps({"nodes": ["a", "b"], "acts": {"a": S_DOC, "b": S_DOC},
                    "arrows": {"a,b": [0, 1, HUGE]}}),
        json.dumps({"nodes": ["a", "b"], "acts": {"a": S_DOC, "b": S_DOC},
                    "arrows": {f"a,b{LONG}": 5}}),
        json.dumps({"monoid": monoid_to_doc(RZ2), "action": [[0, HUGE, 0]]}),
        json.dumps({"table": [[0, 1], [1, HUGE]]}),
        json.dumps(dict(S_DOC, monoid=LONG * 5)),
    ], ids=["deep-node-name", "not-directed", "incoherent", "image", "arrow-key",
            "action", "table", "monoid-path"])
    def test_one_short_line(self, tmp_path, text, capsys):
        p = tmp_path / "long.json"
        p.write_text(text)
        assert main(["check", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # at most five quoted values of at most 80 characters each
        assert len(err.encode()) < 500

    @pytest.mark.parametrize("doc,message", [
        ({"nodes": ["a", "b"], "acts": {"a": S_DOC}, "arrows": {}}, "node 'b' has no act"),
        ({"nodes": ["a", "b"], "acts": {"a": S_DOC, "b": S_DOC}, "arrows": {}},
         "nodes 'a' and 'b' have no common upper bound"),
        ({"nodes": [NORTH, SOUTH], "acts": {NORTH: S_DOC, SOUTH: S_DOC}, "arrows": {}},
         f"nodes '{NORTH}' and '{SOUTH}' have no common upper bound"),
        ({"nodes": ["a", "b", "c"], "acts": {k: S_DOC for k in "abc"},
          "arrows": {"a,b": [1, 1, 2], "b,c": [1, 1, 2], "a,c": [0, 1, 2]}},
         "arrow composition 'a'->'b'->'c' disagrees with 'a'->'c'"),
        ({"nodes": ["a", "b"], "acts": {"a": S_DOC, "b": S_DOC}, "arrows": {"a,b": [0, 1, 7]}},
         "image[2] = 7 out of range"),
        ({"nodes": ["a", "b"], "acts": {"a": S_DOC, "b": S_DOC}, "arrows": {"ab": [1, 1, 2]}},
         "arrow key 'ab' must be two node names joined by a comma"),
        ({"nodes": ["a", "b"], "acts": {"a": S_DOC, "b": S_DOC}, "arrows": {"a,b,c": [1, 1, 2]}},
         "arrow key 'a,b,c' must be two node names joined by a comma"),
        ({"nodes": ["a", "b"], "acts": {"a": S_DOC, "b": S_DOC},
          "arrows": {"a,b": [0, 1, 2], "a, b": [1, 1, 2]}},
         "arrow key 'a, b' names an arrow already given"),
        ({"monoid": monoid_to_doc(RZ2), "action": [[0, 3, 0]]}, "action[0][1] = 3 out of range"),
        ({"table": [[0, 1], [1, 2]]}, "table entry [1][1] = 2 is out of range"),
        (dict(S_DOC, monoid="missing.json"),
         "cannot read monoid 'missing.json': No such file or directory"),
    ], ids=["no-act", "not-directed", "names-differing-in-the-middle", "incoherent",
            "image", "arrow-key-one-name", "arrow-key-three-names", "arrow-key-repeated",
            "action", "table",
            "missing-monoid"])
    def test_short_values_print_in_full(self, tmp_path, doc, message, capsys):
        p = tmp_path / "short.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def run(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    @pytest.fixture
    def fresh_cache(self):
        cached = cli._parser
        cached.cache_clear()
        yield
        cached.cache_clear()

    @staticmethod
    def calls(monoid_file):
        # failed parses between valid calls; without --json a report
        # shows no timing, so the outputs compare exactly
        return [
            ["check", monoid_file, "--op", "frobnicate"],
            ["kruml-nf", "3", "1", "2"],
            ["kruml"],
            ["lemma", "--max-order", "2"],
            ["check", monoid_file, "--op", "is-group"],
            ["kruml-nf", "--json"],
            ["qiao-wei", "--n", "x"],
            ["check", "/nonexistent/path.json"],
            [],
            ["kruml-nf", "2", "0"],
        ]

    def test_main_builds_one_parser(self, monkeypatch, fresh_cache, monoid_file):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        for _ in range(5):
            for argv in self.calls(monoid_file):
                run(argv)
        assert len(built) == 1

    def test_failed_parse_leaves_the_parser_as_fresh(
            self, monkeypatch, fresh_cache, monoid_file):
        reused = [run(argv) for argv in self.calls(monoid_file)]
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = [run(argv) for argv in self.calls(monoid_file)]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 0, 2, 0, 1, 0, 2, 2, 2, 0]

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

"""Scenario drivers: verdicts, determinism, parameter validation."""

import hashlib
import json

import pytest

from actcovers import OrderTooLargeError, TooFewSamplesError
from actcovers.scenarios import (
    KRUML_SAMPLE_FLOOR,
    run_kruml,
    run_lemma,
    run_qiao_wei,
    run_rightzero,
)


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

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_qiao_wei(0)
        with pytest.raises(ValueError):
            run_qiao_wei(5)
        with pytest.raises(ValueError):
            run_qiao_wei(2, 0)
        with pytest.raises(ValueError):
            run_qiao_wei(2, 7)


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

"""Document encoding round trips and input validation."""

import json

import pytest

from actcovers import (
    ActMap,
    make_system,
    one_element_act,
    quotient_map,
    projection_to_one,
    quotient_act,
    regular_act,
    relation_from_subset,
    relation_to_congruence,
    right_zero_adjoin_one,
)
from actcovers.jsonio import (
    act_from_doc,
    act_to_doc,
    dump_canonical,
    load_document,
    monoid_from_doc,
    monoid_to_doc,
    system_from_doc,
    system_to_doc,
)

RZ2 = right_zero_adjoin_one(2)
S = regular_act(RZ2)
SIGMA1 = relation_to_congruence(RZ2, relation_from_subset(RZ2, (0, 1)))


class TestMonoidDocs:
    def test_roundtrip(self):
        assert monoid_from_doc(monoid_to_doc(RZ2)) == RZ2

    def test_field_order(self):
        assert list(monoid_to_doc(RZ2)) == ["elements", "identity", "table"]

    def test_default_labels(self):
        m = monoid_from_doc({"table": [[0, 1], [1, 1]]})
        assert m.elements == ("s0", "s1")

    def test_identity_must_be_zero(self):
        with pytest.raises(ValueError):
            monoid_from_doc({"table": [[0, 1], [1, 1]], "identity": 1})

    def test_missing_table(self):
        with pytest.raises(ValueError):
            monoid_from_doc({"elements": ["1"]})


class TestActDocs:
    def test_roundtrip(self):
        q1 = quotient_act(RZ2, SIGMA1)
        assert act_from_doc(act_to_doc(q1)) == q1

    def test_monoid_by_path(self, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text(dump_canonical(monoid_to_doc(RZ2)))
        doc = act_to_doc(one_element_act(RZ2))
        doc["monoid"] = "m.json"
        a = act_from_doc(doc, base=tmp_path)
        assert a == one_element_act(RZ2)

    def test_monoid_by_absolute_path(self, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text(dump_canonical(monoid_to_doc(RZ2)))
        doc = act_to_doc(S)
        doc["monoid"] = str(mpath)
        assert act_from_doc(doc) == S

    def test_missing_action(self):
        with pytest.raises(ValueError):
            act_from_doc({"monoid": monoid_to_doc(RZ2)})

    def test_default_labels(self):
        doc = {"monoid": monoid_to_doc(RZ2), "action": [[0, 0, 0]]}
        assert act_from_doc(doc).elements == ("a0",)


class TestSystemDocs:
    @staticmethod
    def _system():
        qm = quotient_map(RZ2, SIGMA1)
        q1 = qm.target
        return make_system(
            ("0", "1", "2"),
            [("0", "1"), ("1", "2"), ("0", "2")],
            {"0": S, "1": q1, "2": one_element_act(RZ2)},
            {("0", "1"): qm, ("1", "2"): projection_to_one(q1),
             ("0", "2"): projection_to_one(S)},
        )

    def test_roundtrip(self):
        system = self._system()
        back = system_from_doc(system_to_doc(system))
        assert back.nodes == system.nodes
        assert back.order == system.order
        assert back.acts == system.acts
        assert back.arrows == system.arrows

    def test_arrow_keys(self):
        doc = system_to_doc(self._system())
        assert sorted(doc["arrows"]) == ["0,1", "0,2", "1,2"]

    def test_order_defaults_to_arrow_pairs(self):
        doc = system_to_doc(self._system())
        del doc["order"]
        back = system_from_doc(doc)
        assert back.order == self._system().order

    def test_missing_field(self):
        doc = system_to_doc(self._system())
        del doc["arrows"]
        with pytest.raises(ValueError):
            system_from_doc(doc)

    @pytest.mark.parametrize("key", ["ab", "a,b,c"])
    def test_arrow_key_must_name_two_nodes(self, key):
        doc = system_to_doc(self._system())
        doc["arrows"][key] = doc["arrows"].pop("0,1")
        with pytest.raises(ValueError, match=f"arrow key '{key}' must be two node names"):
            system_from_doc(doc)

    @pytest.mark.parametrize("key", ["0, 1", " 0,1", "0 ,1 "])
    def test_arrow_named_twice_rejected(self, key):
        # the names are stripped, so these keys name the arrow of "0,1";
        # the second key is quoted, whichever image it carries
        same = system_to_doc(self._system())["arrows"]["0,1"]
        for image in (same, [0, 0, 0]):
            doc = system_to_doc(self._system())
            doc["arrows"][key] = image
            with pytest.raises(ValueError, match=f"^arrow key '{key}' names an arrow already given$"):
                system_from_doc(doc)

    def test_incoherent_system_rejected_on_load(self):
        lam_z1 = ActMap(S, S, (1, 1, 2))
        lam_z2 = ActMap(S, S, (2, 1, 2))
        system = make_system(
            ("0", "1", "2"),
            [("0", "1"), ("1", "2"), ("0", "2")],
            {"0": S, "1": S, "2": S},
            {("0", "1"): lam_z1, ("1", "2"): lam_z1, ("0", "2"): lam_z1},
        )
        doc = system_to_doc(system)
        doc["arrows"]["0,2"] = list(lam_z2.image)
        from actcovers import IncoherentArrowsError
        with pytest.raises(IncoherentArrowsError):
            system_from_doc(doc)


class TestLoadDump:
    def test_load_document(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text('{"a": 1}')
        assert load_document(p) == {"a": 1}

    def test_load_rejects_non_object(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_document(p)

    def test_dump_canonical_stable(self):
        doc = monoid_to_doc(RZ2)
        s1 = dump_canonical(doc)
        s2 = dump_canonical(json.loads(s1))
        assert s1 == s2
        assert s1.endswith("\n")

"""JSON encoding and decoding for the document formats the CLI accepts.

Field orders are fixed so that serialized documents are byte-stable:
monoids are {"elements", "identity", "table"}, acts are {"monoid",
"elements", "action"} where "monoid" may be an inline document or a
path string, and systems are {"nodes", "order", "acts", "arrows"} with
arrow keys "i,j".
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .acts import Act, ActMap
from .colimit import DirectedSystem, make_system
from .errors import _quote
from .monoid import Monoid, build_from_table


def _read_json(path: Path):
    """The JSON value in a file; a document nested too deeply for the
    decoder is a ValueError like any other malformed input."""
    text = path.read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def _expect(value, kind, what: str):
    """The value if it is a JSON array (list) or object (dict) as asked."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {'array' if kind is list else 'object'}")
    return value


def monoid_to_doc(m: Monoid) -> dict:
    return {
        "elements": list(m.elements),
        "identity": 0,
        "table": [list(row) for row in m.table],
    }


def monoid_from_doc(doc: dict) -> Monoid:
    if not isinstance(doc, dict) or "table" not in doc:
        raise ValueError("monoid document needs a 'table' field")
    elements = doc.get("elements")
    if elements is None:
        elements = [f"s{i}" for i in range(len(doc["table"]))]
    _expect(elements, list, "monoid 'elements'")
    if doc.get("identity", 0) != 0:
        raise ValueError("identity must sit at index 0")
    return build_from_table([str(e) for e in elements],
                            [list(_expect(row, list, "monoid 'table' row"))
                             for row in doc["table"]])


def act_to_doc(a: Act) -> dict:
    return {
        "monoid": monoid_to_doc(a.monoid),
        "elements": list(a.elements),
        "action": [list(row) for row in a.action],
    }


def _resolve_monoid(field, base: Union[Path, None]) -> Monoid:
    if isinstance(field, str):
        path = Path(field)
        if base is not None and not path.is_absolute():
            path = base / path
        try:
            return monoid_from_doc(_read_json(path))
        except OSError as exc:
            raise ValueError(f"cannot read monoid {_quote(field)}: {exc.strerror}") from None
    return monoid_from_doc(field)


def act_from_doc(doc: dict, base: Union[Path, None] = None) -> Act:
    if not isinstance(doc, dict) or "action" not in doc:
        raise ValueError("act document needs an 'action' field")
    m = _resolve_monoid(doc["monoid"], base)
    action = tuple(tuple(_expect(row, list, "act 'action' row"))
                   for row in _expect(doc["action"], list, "act 'action'"))
    elements = doc.get("elements")
    if elements is None:
        elements = [f"a{i}" for i in range(len(action))]
    _expect(elements, list, "act 'elements'")
    return Act(m, tuple(str(e) for e in elements), action)


def system_to_doc(system: DirectedSystem) -> dict:
    return {
        "nodes": list(system.nodes),
        "order": sorted([list(p) for p in system.order]),
        "acts": {str(i): act_to_doc(system.acts[i]) for i in system.nodes},
        "arrows": {
            f"{i},{j}": list(f.image)
            for (i, j), f in sorted(system.arrows.items())
        },
    }


def system_from_doc(doc: dict, base: Union[Path, None] = None) -> DirectedSystem:
    for field, kind in (("nodes", list), ("acts", dict), ("arrows", dict)):
        if field not in doc:
            raise ValueError(f"system document needs a {field!r} field")
        _expect(doc[field], kind, f"system {field!r}")
    nodes = [str(n) for n in doc["nodes"]]
    acts = {str(k): act_from_doc(v, base) for k, v in doc["acts"].items()}
    arrows = {}
    for key, image in doc["arrows"].items():
        if not isinstance(image, list):
            raise ValueError(f"arrow {_quote(key)} image must be a list")
        parts = [part.strip() for part in str(key).split(",")]
        if len(parts) != 2:
            raise ValueError(f"arrow key {_quote(key)} must be two node names joined by a comma")
        i, j = parts
        if (i, j) in arrows:
            raise ValueError(f"arrow key {_quote(key)} names an arrow already given")
        arrows[(i, j)] = ActMap(acts[i], acts[j], tuple(image))
    order = []
    for p in _expect(doc.get("order", []), list, "system 'order'"):
        _expect(p, list, "system order pair")
        if len(p) != 2 or any(isinstance(x, (list, dict)) for x in p):
            raise ValueError("system order pair must hold two node names")
        order.append(tuple(p))
    order += [pair for pair in arrows if pair not in order]
    return make_system(nodes, order, acts, arrows)


def load_document(path: Union[str, Path]) -> dict:
    doc = _read_json(Path(path))
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    return doc


def dump_canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"

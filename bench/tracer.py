"""Spans around the public functions of actcovers, installed from outside.

`Tracer.install()` replaces every public function, every public method
and the constructor of every class defined in the traced modules with a
wrapper that records a span: name, start, end, parent span and the
operation it ran under.  `from .acts import homs` copies the binding
into the importing module, so the wrapper is installed under every
name in every actcovers module that holds the original object.
`uninstall()` puts the originals back.

Self time is a span's duration minus the time covered by its child
spans, wrapper bookkeeping of the children included.  Work counters
(for instance hom candidates tried) are read from arguments and
results after the span has ended, so their cost is not charged to it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

from oracles import bell

PACKAGE = "actcovers"
MODULES = ("monoid", "acts", "flatness", "covers", "colimit", "kruml",
           "scenarios", "jsonio", "cli")

# O(1) accessors: a span costs more than the call, so they are not wrapped.
ACCESSORS = frozenset({"mul", "power", "index", "label", "act", "together",
                       "holds", "leq", "arrow"})

# Stored spans are capped; beyond the cap, spans are only aggregated.
SPAN_LIMIT = 200_000


def _choices(g) -> int:
    sizes = [0] * g.target.size
    for y in g.image:
        sizes[y] += 1
    total = 1
    for s in sizes:
        total *= s
    return total


def _after_arc(counts, args, result):
    counts["acts.all_right_congruences.kept"] += len(result)
    counts["acts.all_right_congruences.partitions"] += bell(args[0].order)


def _after_homs(counts, args, result):
    counts["acts.homs.found"] += len(result)


def _after_cocones(counts, args, result):
    counts["colimit.cocones.found"] += len(result)


def _after_coessential(counts, args, result):
    key = "covers.is_coessential.choices_max"
    counts[key] = max(counts[key], _choices(args[0]))


def _after_knormalize(counts, args, result):
    counts["kruml.knormalize.letters"] += len(args[0])


# Work counts read from a call's arguments and result, by span name.
AFTER = {
    "acts.all_right_congruences": _after_arc,
    "acts.homs": _after_homs,
    "colimit.cocones": _after_cocones,
    "covers.is_coessential": _after_coessential,
    "kruml.knormalize": _after_knormalize,
}

# Private helpers counted (not timed) under the innermost open span:
# acts._extend runs once per hom candidate tried.
COUNTED = {"acts._extend": "candidates"}


class Tracer:
    def __init__(self):
        self.targets = self._discover()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.op = -1
        self.reset()

    def reset(self) -> None:
        """Forget aggregates and counts; stored spans are kept."""
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list] = []

    # -- discovery -----------------------------------------------------

    def _discover(self):
        """(name, owner, attribute, original, kind) for every target."""
        out = []
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, val in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    out.append((f"{short}.{attr}", mod, attr, val, "function"))
                elif inspect.isclass(val) and not issubclass(val, BaseException):
                    if "__init__" in vars(val):
                        out.append((f"{short}.{attr}", val, "__init__",
                                    vars(val)["__init__"], "method"))
                    for meth, fn in sorted(vars(val).items()):
                        if (not meth.startswith("_") and meth not in ACCESSORS
                                and inspect.isfunction(fn)):
                            out.append((f"{short}.{attr}.{meth}", val, meth,
                                        fn, "method"))
        for name in COUNTED:
            short, attr = name.split(".")
            mod = sys.modules[f"{PACKAGE}.{short}"]
            out.append((name, mod, attr, getattr(mod, attr), "counted"))
        return out

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        wrappers = {}
        for name, owner, attr, original, kind in self.targets:
            if kind == "counted":
                wrapper = self._counter(COUNTED[name], original)
            elif inspect.isgeneratorfunction(original):
                wrapper = self._generator(name, original)
            else:
                wrapper = self._function(name, original)
            wrappers[id(original)] = (original, wrapper)
            if kind == "method":
                self._patch(owner, attr, wrapper)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        sid = len(self.span_start)
        if sid < SPAN_LIMIT:
            self.span_name.append(nid)
            self.span_op.append(self.op)
            self.span_parent.append(parent)
            self.span_end.append(0.0)
            start = time.perf_counter()
            self.span_start.append(start)
        else:
            sid = -1
            self.dropped += 1
            start = time.perf_counter()
        frame = [nid, sid, start, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, end: float) -> None:
        self._stack.pop()
        if frame[1] >= 0:
            self.span_end[frame[1]] = end
        self.calls[name] += 1
        self.self_s[name] += end - frame[2] - frame[3]

    def _charge_parent(self, frame: list) -> None:
        if self._stack:
            self._stack[-1][3] += time.perf_counter() - frame[2]

    def _function(self, name, original):
        nid = self._name_id(name)
        after = AFTER.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(nid)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._exit(name, frame, time.perf_counter())
                tracer.raised[name] += 1
                tracer._charge_parent(frame)
                raise
            tracer._exit(name, frame, time.perf_counter())
            if after is not None:
                after(tracer.counts, args, result)
            tracer._charge_parent(frame)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _generator(self, name, original):
        """Each resumption of the generator is one span; the count of
        items it yields is kept as <name>.tables."""
        nid = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            gen = original(*args, **kwargs)
            while True:
                frame = tracer._enter(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._exit(name, frame, time.perf_counter())
                    tracer._charge_parent(frame)
                    return
                except BaseException:
                    tracer._exit(name, frame, time.perf_counter())
                    tracer.raised[name] += 1
                    tracer._charge_parent(frame)
                    raise
                tracer._exit(name, frame, time.perf_counter())
                tracer.counts[name + ".tables"] += 1
                tracer._charge_parent(frame)
                yield item

        wrapper.__wrapped__ = original
        return wrapper

    def _counter(self, counter, original):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._stack:
                owner = tracer.names[tracer._stack[-1][0]]
                tracer.counts[f"{owner}.{counter}"] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    # -- results -------------------------------------------------------

    def layer_values(self, layer_metrics) -> dict[str, float]:
        """Value of each listed per-layer metric from the aggregates."""
        out = {}
        for name in layer_metrics:
            base, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[base]
            elif field == "raised":
                out[name] = self.raised[base]
            elif field == "self_s":
                out[name] = self.self_s[base]
            elif field == "kept_ratio":
                out[name] = _ratio(self.counts[base + ".kept"],
                                   self.counts[base + ".partitions"])
            elif field == "found_ratio":
                out[name] = _ratio(self.counts[base + ".found"],
                                   self.counts[base + ".candidates"])
            else:
                out[name] = self.counts[name]
        return out

    def write_spans(self, path, meta: dict) -> None:
        n = len(self.span_start)
        doc = dict(meta)
        doc["names"] = self.names
        doc["fields"] = ["name", "op", "parent", "start", "end"]
        doc["dropped"] = self.dropped
        doc["spans"] = [
            [self.span_name[i], self.span_op[i], self.span_parent[i],
             round(self.span_start[i], 7), round(self.span_end[i], 7)]
            for i in range(n)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _ratio(num, den) -> float:
    return num / den if den else 0.0

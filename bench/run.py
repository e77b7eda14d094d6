"""Benchmark of actcovers: one seeded workload, timed from outside.

    python3 bench/run.py --workload congruences --seed 1 --seconds 30 --trace 0

Set-up (loading the package, seeded inputs, warm-up) is repeated over
the run, at least SETUP_MIN times and more while the set-ups take less
than SETUP_SHARE of --seconds (at most SETUP_MAX times), and its median
reported as setup_s.
The workload's fixed batch of operations runs in rounds for about
--seconds.  Every time is given at reference speed: a fixed piece of
pure Python that never calls the library (the reference work) runs
between the operations, and each execution time is scaled by
REF_NOMINAL_S over the reference work's time just before and just
after it (set-up times over its median in the rounds around them).
Each operation's time is the median of its executions; wall_s is the
sum of those times over the batch and op_p50_ms / op_p90_ms are their
percentiles.  After each round, outside the timed region, every output
is checked against an independent reference (outputs already checked
in an earlier round are compared with that round).

With --trace 1 the first half of the time runs untraced and the second
half with spans around every public function of the library; the
per-layer metrics come from the traced rounds and the spans are written
to .bench_traces/<workload>.json.  Traced and untraced rounds must give
the same output digest.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `failed` counts every
execution whose output failed its check; `correct` is false when an
operation outside the known-defect list failed, or when outputs
differed between rounds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_MIN, SETUP_MAX = 5, 25
SETUP_SHARE = 0.1

# The machine this runs on is shared: its speed swings by a factor of
# two within milliseconds and drifts over minutes, and pure Python runs
# slower or faster with it nearly in proportion.  Times are therefore
# measured against a fixed piece of work run between the operations,
# and reported as if that work took REF_NOMINAL_S.  The work is part
# arithmetic on small tuples and dict updates, part lookups in a table
# larger than the processor's fast caches, like the library's own mix.
REF_NOMINAL_S = 0.005
REF_EVERY_S = 0.02       # operation time between two runs of the work
REF_AROUND_SETUP = 10    # runs of the work on each side of a set-up
_REF_TABLE = {(i, i * 7 % 1013, i % 97): i for i in range(40000)}
_REF_KEYS = list(_REF_TABLE)
random.Random(5).shuffle(_REF_KEYS)
_REF_KEYS = _REF_KEYS[:2500]


def _reference_work() -> int:
    d = {}
    acc = 0
    for i in range(2000):
        t = (i % 7, i % 11, i % 13)
        d[t] = d.get(t, 0) + 1
        acc += len([x for x in t if x & 1])
    for k in _REF_KEYS:
        acc += _REF_TABLE[k]
        acc += len(tuple(x for x in k if x & 1))
    return acc + len(d)


def _reference_time() -> float:
    """Seconds the reference work takes now, without garbage collection
    (whose cost would depend on the library's heap)."""
    gc.disable()
    try:
        t = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t
    finally:
        gc.enable()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("congruences", "oracles", "kruml", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_library():
    """Import actcovers from this checkout's src/, never another copy."""
    if not (SRC / "actcovers" / "__init__.py").is_file():
        raise SystemExit(f"error: no actcovers sources under {SRC}")
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import actcovers
    if Path(actcovers.__file__).resolve().parent != SRC / "actcovers":
        raise SystemExit(f"error: imported actcovers from {actcovers.__file__}")


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class Raised:
    """An exception an operation raised, kept as its result."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"


class Runner:
    def __init__(self, batch, tracer=None, layer_names=()):
        self.batch = batch
        self.tracer = tracer
        self.layer_names = layer_names
        self.first = {}          # op index -> (canonical output, verdict)
        self.attempted = 0
        self.failed = 0
        self.failures = {}       # op name -> first reason
        self.digests = []        # (traced, digest) per round
        self.walls = {False: [], True: []}   # measured round times
        self.scaled = {False: [], True: []}  # round times at reference speed
        self.refs = []           # reference times, every round
        self.op_times = []       # per untraced round, each op at reference speed
        self.layers = []         # per traced round

    def round(self, traced: bool) -> None:
        ops = self.batch.ops
        results = [None] * len(ops)
        times = [0.0] * len(ops)
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.reset()
            tracer.install()
        refs = []
        before = [0] * len(ops)  # index in refs of the last run before each op
        due = 0.0                # operation time left before the next reference
        gc.collect()
        perf = time.perf_counter
        started = perf()
        for i, op in enumerate(ops):
            if due <= 0.0:
                refs.append(_reference_time())
                due = REF_EVERY_S
            before[i] = len(refs) - 1
            if tracer is not None:
                tracer.op = i
            t = perf()
            try:
                r = op.call()
            except Exception as exc:  # an operation may fail; the run goes on
                r = Raised(exc)
            times[i] = perf() - t
            due -= times[i]
            results[i] = r
        refs.append(_reference_time())
        wall = perf() - started
        scaled = [t * 2.0 * REF_NOMINAL_S / (refs[b] + refs[b + 1])
                  for t, b in zip(times, before)]
        if tracer is not None:
            tracer.uninstall()
            scale = REF_NOMINAL_S / statistics.median(refs)
            layer = tracer.layer_values(self.layer_names)
            self.layers.append({n: v * scale if n.endswith("_s") else v
                                for n, v in layer.items()})
        self.walls[traced].append(wall)
        self.scaled[traced].append(sum(scaled))
        self.refs.extend(refs)
        if not traced:
            self.op_times.append(scaled)
        self._check(results, traced)

    def _check(self, results, traced: bool) -> None:
        canon_all = []
        for i, (op, r) in enumerate(zip(self.batch.ops, results)):
            try:
                canon = ({"raised": r.text} if isinstance(r, Raised)
                         else op.canon(r))
            except Exception as exc:  # a malformed result fails its check
                canon = {"canon raised": f"{type(exc).__name__}: {exc}"}
            canon_all.append([op.name, canon])
            seen = self.first.get(i)
            if seen is not None and seen[0] == canon:
                verdict = seen[1]
            else:
                verdict = self._verdict(op, r, canon)
                if seen is None:
                    self.first[i] = (canon, verdict)
            self.attempted += 1
            if verdict is not None:
                self.failed += 1
                self.failures.setdefault(op.name, verdict)
        self.digests.append((traced, _digest(canon_all)))

    @staticmethod
    def _verdict(op, r, canon):
        if isinstance(r, Raised):
            return f"raised {r.text}"
        if isinstance(canon, dict) and "canon raised" in canon:
            return canon["canon raised"]
        try:
            return op.check(r)
        except Exception as exc:  # a check that cannot read the output
            return f"check raised {type(exc).__name__}: {exc}"

    def run_for(self, seconds: float, traced: bool, between=None) -> None:
        """At least one round, then more while another round still fits
        in `seconds`; after each round, `between` gets the share of the
        time used so far."""
        started = time.perf_counter()
        while True:
            self.round(traced)
            if between is not None:
                used = (time.perf_counter() - started) / seconds if seconds > 0 else 1.0
                between(min(used, 1.0))
            if time.perf_counter() - started + self.walls[traced][-1] > seconds:
                return


def _quantile(values, q):
    """q-quantile of the samples (exclusive method, as statistics.quantiles)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def main(argv=None, tiny: bool = False) -> int:
    """Run one workload and print its report; `tiny` shrinks every input
    (for the benchmark's own tests)."""
    args = parse_args(argv)
    _import_library()
    import workloads
    from metrics import END_TO_END_NAMES, PER_LAYER_NAMES, UNITS

    work = ROOT / ".bench_work"
    setups = []
    setup_at = []            # number of reference runs before each set-up
    runner = None

    def set_up():
        gc.collect()
        t = time.perf_counter()
        _load_package()
        batch = workloads.build(args.workload, args.seed,
                                work / f"{args.workload}-{os.getpid()}-{len(setups)}",
                                tiny)
        _warm_up(batch)
        setups.append(time.perf_counter() - t)
        setup_at.append(len(runner.refs) if runner is not None else 0)
        return batch

    def set_up_again(done: float) -> None:
        # The other set-ups are spread over the run, so that their median
        # does not hang on the machine's load in its first second.  Short
        # set-ups (the cli workload's takes about a tenth of a second) are
        # repeated more often, so that their median rests on more samples.
        while len(setups) < repeats and done >= len(setups) / repeats:
            set_up().cleanup()

    batch = None
    try:
        started = time.perf_counter()
        batch = set_up()
        repeats = min(SETUP_MAX, max(SETUP_MIN, int(
            SETUP_SHARE * args.seconds / (time.perf_counter() - started))))
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        runner = Runner(batch, tracer,
                        [n for n in PER_LAYER_NAMES if not n.startswith("trace.")])
        if args.trace:
            runner.run_for(args.seconds / 2, traced=False,
                           between=lambda f: set_up_again(f / 2))
            runner.run_for(args.seconds / 2, traced=True,
                           between=lambda f: set_up_again(0.5 + f / 2))
        else:
            runner.run_for(args.seconds, traced=False, between=set_up_again)
        set_up_again(1.0)
    finally:
        if batch is not None:
            batch.cleanup()
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()
    inputs_digest = _digest(batch.inputs)

    digests = {d for _, d in runner.digests}
    unexpected = sorted(set(runner.failures) - batch.known_defects)
    correct = not unexpected and len(digests) == 1
    # Each operation's time is the median of its untraced executions at
    # reference speed.
    samples = [statistics.median(ts) for ts in zip(*runner.op_times)]
    # A set-up runs between rounds.  The reference runs of the rounds
    # around it stand for the machine's speed while it ran; the runs
    # right next to a set-up would not, as it leaves the caches cold.
    ref = statistics.median(runner.refs)
    setups = [t * REF_NOMINAL_S / statistics.median(
                  runner.refs[max(0, at - REF_AROUND_SETUP):at + REF_AROUND_SETUP])
              for t, at in zip(setups, setup_at)]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(samples),
        "op_p50_ms": statistics.median(samples) * 1000.0,
        "op_p90_ms": _quantile(samples, 0.9) * 1000.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        layer = {name: statistics.median(r[name] for r in runner.layers)
                 for name in runner.layers[0]}
        layer["trace.overhead_frac"] = (statistics.median(runner.scaled[True])
                                        / statistics.median(runner.scaled[False]) - 1.0)
        metrics = {n: {"value": layer[n], "unit": UNITS[n]} for n in PER_LAYER_NAMES}
        tracer.write_spans(ROOT / ".bench_traces" / f"{args.workload}.json",
                           {"workload": args.workload, "seed": args.seed,
                            "ops": [op.name for op in batch.ops]})
    else:
        metrics = {n: {"value": values[n], "unit": UNITS[n]} for n in END_TO_END_NAMES}

    rounds = len(runner.digests)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"inputs sha256 {inputs_digest}")
    print(f"outputs sha256 {' '.join(sorted(digests))}  "
          f"({rounds} rounds{', traced and untraced' if args.trace else ''}; "
          f"{'identical' if len(digests) == 1 else 'DIFFERENT'})")
    for traced, walls in runner.walls.items():
        if walls:
            print(f"{'traced' if traced else 'untraced'} rounds {len(walls)}: "
                  + " ".join(f"{w:.4f}" for w in walls) + " s measured, ops "
                  + " ".join(f"{w:.4f}" for w in runner.scaled[traced])
                  + " s at reference speed")
    print(f"reference work {len(runner.refs)} runs, median {ref * 1000:.3f} ms, "
          "quartiles " + " ".join(f"{q * 1000:.3f}" for q in statistics.quantiles(
              runner.refs, n=4)) + f" ms (nominal {REF_NOMINAL_S * 1000:g} ms)")
    print(f"ops per round {len(batch.ops)}; op time samples {len(samples)} "
          f"(median of {len(runner.op_times)} untraced rounds each), "
          f"{len(samples) - int(0.9 * len(samples))} at or above p90")
    print("set-ups " + " ".join(f"{t:.4f}" for t in setups) + " s at reference speed")
    for name in END_TO_END_NAMES:
        print(f"  {name:14s} {values[name]:.6g} {UNITS[name]}")
    print(f"  {'failed_frac':14s} {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} executions)")
    for name, why in sorted(runner.failures.items()):
        known = "known defect" if name in batch.known_defects else "UNEXPECTED"
        print(f"  failed [{known}] {name}: {why[:200]}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def _load_package() -> None:
    """Load and execute every actcovers module again, as an import does.

    The fresh module objects are thrown away; relative imports inside
    them resolve to the modules already loaded, so the live package is
    untouched."""
    for name in sorted(n for n in sys.modules
                       if n == "actcovers" or n.startswith("actcovers.")):
        spec = importlib.util.find_spec(name)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _warm_up(batch) -> None:
    """Run the first operation of each kind once, untimed and unchecked."""
    seen = set()
    for op in batch.ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.call()
            except Exception:  # checked in the timed rounds
                pass


if __name__ == "__main__":
    sys.exit(main())

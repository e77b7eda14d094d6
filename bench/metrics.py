"""Metric names, units and directions, and the layer-to-end-to-end map.

BENCHMARK.json lists the same metrics; the benchmark's tests keep the
two in step.  `moves` and `on` record, before any optimisation is
measured, which end-to-end metric a layer metric should move and on
which workload.
"""

END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    # The sandbox the benchmark was written on drifts in speed by up to
    # half over minutes.  Times are reported at reference speed, which
    # takes most of that out (run.py); the bounds keep the largest margin
    # allowed for what is left.
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)


def _layer(names, unit, better, moves, on):
    return [(n, unit, better, moves, on) for n in names]


PER_LAYER = tuple(
    _layer(["acts.all_right_congruences.self_s"], "s", "lower",
           "wall_s, op_p90_ms", "congruences; no change on kruml")
    + _layer(["acts.all_right_congruences.partitions"], "count", "lower",
             "wall_s, op_p90_ms", "congruences; no change on kruml")
    + _layer(["acts.all_right_congruences.kept"], "count", "higher",
             "wall_s, op_p90_ms", "congruences; no change on kruml")
    + _layer(["acts.all_right_congruences.kept_ratio"], "ratio", "higher",
             "wall_s, op_p90_ms", "congruences; no change on kruml")
    + _layer(["acts.RightCongruence.calls"], "count", "lower",
             "wall_s", "congruences, mainly the right-zero family")
    + _layer(["acts.RightCongruence.self_s"], "s", "lower",
             "wall_s", "congruences, mainly the right-zero family")
    + _layer(["acts.Act.calls", "acts.ActMap.calls"], "count", "lower",
             "wall_s, op_p50_ms; setup_s through probe-census validation",
             "oracles; failed count on cli must not rise")
    + _layer(["acts.Act.self_s", "acts.ActMap.self_s"], "s", "lower",
             "wall_s, op_p50_ms; setup_s through probe-census validation",
             "oracles; failed count on cli must not rise")
    + _layer(["acts.homs.calls", "acts.homs.candidates"], "count", "lower",
             "op_p90_ms, wall_s", "oracles")
    + _layer(["acts.homs.found", "colimit.cocones.found"], "count", "higher",
             "op_p90_ms, wall_s", "oracles")
    + _layer(["acts.homs.found_ratio"], "ratio", "higher", "op_p90_ms, wall_s", "oracles")
    + _layer(["acts.homs.self_s", "colimit.cocones.self_s",
              "colimit.verify_universality.self_s", "colimit.compute_colimit.self_s",
              "colimit.validate_system.self_s"], "s", "lower",
             "op_p90_ms, wall_s", "oracles")
    + _layer(["acts.cyclic_iso_witness.self_s", "acts.are_isomorphic.self_s",
              "acts.pullback_relation.self_s", "acts.quotient_act.self_s",
              "acts.congruence_closure.self_s"], "s", "lower",
             "op_p50_ms", "oracles, congruences")
    + _layer(["monoid.Monoid.calls", "monoid.enumerate_monoids.tables"], "count", "lower",
             "setup_s everywhere; wall_s", "oracles, cli")
    + _layer(["monoid.Monoid.self_s", "monoid.enumerate_monoids.self_s"], "s", "lower",
             "setup_s everywhere; wall_s", "oracles, cli")
    + _layer(["flatness.satisfies_condition_p.self_s",
              "flatness.satisfies_condition_e.self_s"], "s", "lower",
             "op_p50_ms; op_p90_ms for the largest strongly-flat check",
             "congruences; cli")
    + _layer(["covers.is_coessential.calls", "covers.is_coessential.choices_max"],
             "count", "lower", "op_p50_ms, wall_s", "congruences, oracles")
    + _layer(["covers.is_coessential.self_s",
              "covers.search_sf_coessential_covers.self_s",
              "covers.unique_up_to_iso.self_s"], "s", "lower",
             "op_p50_ms, wall_s", "congruences, oracles")
    + _layer(["kruml.knormalize.calls", "kruml.knormalize.letters"], "count", "lower",
             "wall_s, op_p50_ms", "kruml; no change elsewhere")
    + _layer(["kruml.knormalize.self_s", "kruml.knormalize_random.self_s",
              "kruml.FinXSystem.transition.self_s",
              "kruml.FinXSystem.colimit_equal.self_s"], "s", "lower",
             "wall_s, op_p50_ms", "kruml; no change elsewhere")
    + _layer([f"jsonio.{f}.self_s" for f in
              ("load_document", "monoid_from_doc", "act_from_doc", "system_from_doc")]
             + ["cli.main.self_s"]
             + [f"scenarios.run_{s}.self_s" for s in
                ("rightzero", "qiao_wei", "kruml", "lemma")], "s", "lower",
             "op_p50_ms, failed count", "cli")
    + _layer([f"jsonio.{f}.raised" for f in
              ("load_document", "monoid_from_doc", "act_from_doc", "system_from_doc")],
             "count", "lower", "op_p50_ms, failed count", "cli")
    + _layer(["trace.overhead_frac"], "ratio", "lower",
             "none (the cost of tracing)", "every workload")
)

END_TO_END_NAMES = tuple(m[0] for m in END_TO_END)
PER_LAYER_NAMES = tuple(m[0] for m in PER_LAYER)
UNITS = {m[0]: m[1] for m in END_TO_END + PER_LAYER}

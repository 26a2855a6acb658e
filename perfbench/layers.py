"""The layers of ``caloop`` (one per module of ``src/caloop/``), what the
traced run wraps in each, and the per-layer metrics computed from the trace.

``arith`` holds only ``alpha``/``beta`` and unused code, so it has no metrics.
"""

from __future__ import annotations

from workloads import CATALOG

# (name, unit, better); every traced run reports all of them, 0 where a
# workload does not touch the layer.
PER_LAYER = (
    [
        ("core.mul_coords.calls", "count", "lower"),
        ("core.mul_coords.self_s", "s", "lower"),
        ("core.mul_coords.us_small", "us", "lower"),
        ("core.mul_coords.us_big", "us", "lower"),
        ("core.left_div_coords.calls", "count", "lower"),
        ("core.left_div_coords.self_s", "s", "lower"),
        ("core.pow_coords.calls", "count", "lower"),
        ("core.pow_coords.self_s", "s", "lower"),
        ("core.pow_coords.exponent_sum", "count", "lower"),
        ("calculus.assoc_coords.calls", "count", "lower"),
        ("calculus.assoc_coords.self_s", "s", "lower"),
        ("calculus.inner_l_coords.calls", "count", "lower"),
        ("calculus.inner_l_coords.self_s", "s", "lower"),
        ("poly.mul.calls", "count", "lower"),
        ("poly.mul.self_s", "s", "lower"),
        ("poly.mul.term_pairs", "count", "lower"),
        ("poly.add.calls", "count", "lower"),
        ("poly.add.self_s", "s", "lower"),
        ("poly.peak_terms", "count", "lower"),
        ("poly.peak_degree", "count", "lower"),
    ]
    + [(f"symbolic.{name}.s", "s", "lower") for name in CATALOG]
    + [
        ("symbolic.mutation.flipped", "count", "higher"),
        ("words.parse_with_warnings.calls", "count", "lower"),
        ("words.parse_with_warnings.self_s", "s", "lower"),
        ("words.evaluate.self_s", "s", "lower"),
        ("words.format_canonical.calls", "count", "lower"),
        ("words.format_canonical.self_s", "s", "lower"),
        ("words.chars_parsed", "count", "higher"),
        ("words.hostile.failed", "count", "lower"),
        ("quotient.product_table.calls", "count", "lower"),
        ("quotient.product_table.self_s", "s", "lower"),
        ("quotient.left_division_table.self_s", "s", "lower"),
        ("quotient.center_indices.self_s", "s", "lower"),
        ("quotient.check.axioms.self_s", "s", "lower"),
        ("quotient.check.automorphic-full.self_s", "s", "lower"),
        ("quotient.check.automorphic-sampled.self_s", "s", "lower"),
        ("quotient.export_table.self_s", "s", "lower"),
        ("quotient.validate_table_file.self_s", "s", "lower"),
        ("quotient.mul.calls", "count", "lower"),
        ("quotient.inner_l.calls", "count", "lower"),
        ("quotient.products_checked", "count", "higher"),
        ("quotient.quadruples_checked", "count", "higher"),
        ("quotient.table_bytes", "bytes", "lower"),
        ("quotient.hostile.failed", "count", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("stage.verify_s", "s", "lower"),
        ("stage.mutation_s", "s", "lower"),
        ("stage.table_s", "s", "lower"),
        ("stage.axioms_s", "s", "lower"),
        ("stage.full_check_s", "s", "lower"),
        ("stage.sampled_check_s", "s", "lower"),
        ("stage.op_p90_ms", "ms", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

# Polynomial addition and subtraction; a - b runs sub, which runs neg and add.
_ADD_GROUP = ("poly.add", "poly.sub", "poly.rsub", "poly.neg")


def _count(key, size):
    def before(tracer, args, kwargs):
        tracer.counters[key] += size(args)
    return before


def _peak(key, value):
    def after(tracer, result):
        tracer.counters[key] = max(tracer.counters[key], value(result))
    return after


def _term_pairs(args) -> int:
    a, b = args
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else int(b != 0))


def _identity_span(args, kwargs) -> str:
    mutated = (args[1] if len(args) > 1 else kwargs.get("product")) is not None
    return f"symbolic.{'mutated.' if mutated else ''}{args[0]}"


def _check_span(args, kwargs) -> str:
    return f"quotient.check.{args[1] if len(args) > 1 else kwargs['level']}"


def _after_identity(tracer, report) -> None:
    from caloop import poly

    degree, terms = poly.peak_stats()
    tracer.counters["poly.peak_degree"] = max(tracer.counters["poly.peak_degree"], degree)
    tracer.counters["poly.peak_terms"] = max(tracer.counters["poly.peak_terms"], terms)


def _after_check(tracer, report) -> None:
    tracer.counters["quotient.products_checked"] += report.counts.get("products-checked", 0)
    tracer.counters["quotient.quadruples_checked"] += report.counts.get("quadruples-checked", 0)


def targets():
    """What the traced run wraps, layer by layer."""
    from tracing import Target as T

    return [
        # core: the Z^8 kernel
        T("caloop.core", "mul_coords", "core.mul_coords", hot=True),
        T("caloop.core", "left_div_coords", "core.left_div_coords", hot=True),
        T("caloop.core", "pow_coords", "core.pow_coords", hot=True,
          before=_count("core.pow_coords.exponent_sum", lambda a: abs(a[1]))),
        # calculus
        T("caloop.calculus", "assoc_coords", "calculus.assoc_coords", hot=True),
        T("caloop.calculus", "inner_l_coords", "calculus.inner_l_coords", hot=True),
        T("caloop.calculus", "associator", "calculus.associator", hot=True),
        T("caloop.calculus", "inner_l", "calculus.inner_l", hot=True),
        # poly: ring operations (each wrapper also replaces the reflected alias)
        T("caloop.poly:Polynomial", "__mul__", "poly.mul", hot=True,
          before=_count("poly.mul.term_pairs", _term_pairs)),
        T("caloop.poly:Polynomial", "__add__", "poly.add", hot=True),
        T("caloop.poly:Polynomial", "__sub__", "poly.sub", hot=True),
        T("caloop.poly:Polynomial", "__rsub__", "poly.rsub", hot=True),
        T("caloop.poly:Polynomial", "__neg__", "poly.neg", hot=True),
        # symbolic
        T("caloop.symbolic", "verify_all", "symbolic.verify_all"),
        T("caloop.symbolic", "verify_identity", _identity_span, after=_after_identity),
        T("caloop.symbolic", "mutated_product_polys", "symbolic.mutated_product_polys", hot=True),
        # words
        T("caloop.words", "parse_with_warnings", "words.parse_with_warnings",
          before=_count("words.chars_parsed", lambda a: len(a[0]))),
        T("caloop.words", "evaluate", "words.evaluate", hot=True),
        T("caloop.words", "format_canonical", "words.format_canonical"),
        # quotient
        T("caloop.quotient:QuotientLoop", "product_table", "quotient.product_table",
          after=_peak("quotient.table_bytes", lambda t: t.nbytes)),
        T("caloop.quotient:QuotientLoop", "left_division_table", "quotient.left_division_table"),
        T("caloop.quotient:QuotientLoop", "center_indices", "quotient.center_indices"),
        T("caloop.quotient:QuotientLoop", "exhaustive_check", _check_span, after=_after_check),
        T("caloop.quotient:QuotientLoop", "export_table", "quotient.export_table"),
        T("caloop.quotient", "validate_table_file", "quotient.validate_table_file"),
        T("caloop.quotient:QuotientLoop", "mul", "quotient.mul", hot=True),
        T("caloop.quotient:QuotientLoop", "inner_l", "quotient.inner_l", hot=True),
        # cli
        T("caloop.cli", "main", "cli.main"),
    ]


def metrics(tracer, workload, stage_values: dict, overhead_s: float, hostile_failed: int) -> dict:
    """Every per-layer metric, from one traced run and its untraced twin."""
    totals = tracer.totals()
    counters = tracer.counters

    def calls(name):
        return totals[name][0] if name in totals else 0

    def self_s(*names):
        return sum(totals[n][2] for n in names if n in totals)

    out = {}
    for layer_fn in (
        "core.mul_coords", "core.left_div_coords", "core.pow_coords",
        "calculus.assoc_coords", "calculus.inner_l_coords", "poly.mul",
        "words.parse_with_warnings", "words.format_canonical",
        "quotient.product_table", "quotient.mul", "quotient.inner_l", "cli.main",
    ):
        out[f"{layer_fn}.calls"] = calls(layer_fn)
        out[f"{layer_fn}.self_s"] = self_s(layer_fn)
    mul_us = 1e6 * self_s("core.mul_coords") / max(calls("core.mul_coords"), 1)
    out["core.mul_coords.us_small"] = mul_us if workload.name == "laws-small" else 0.0
    out["core.mul_coords.us_big"] = mul_us if workload.name == "laws-big" else 0.0
    out["poly.add.calls"] = sum(tracer.calls_under(n, _ADD_GROUP) for n in _ADD_GROUP)
    out["poly.add.self_s"] = self_s(*_ADD_GROUP)
    for name in CATALOG:
        span = f"symbolic.{name}"
        out[f"{span}.s"] = totals[span][1] / totals[span][0] if span in totals else 0.0
    out["symbolic.mutation.flipped"] = getattr(workload, "flipped", 0)
    out["words.evaluate.self_s"] = self_s("words.evaluate")
    out["words.hostile.failed"] = hostile_failed if workload.name == "words" else 0
    out["quotient.hostile.failed"] = hostile_failed if workload.name == "quotient-m2" else 0
    for stage in ("left_division_table", "center_indices", "check.axioms",
                  "check.automorphic-full", "check.automorphic-sampled",
                  "export_table", "validate_table_file"):
        out[f"quotient.{stage}.self_s"] = self_s(f"quotient.{stage}")
    for key in ("core.pow_coords.exponent_sum", "poly.mul.term_pairs", "poly.peak_terms",
                "poly.peak_degree", "words.chars_parsed", "quotient.products_checked",
                "quotient.quadruples_checked", "quotient.table_bytes"):
        out[key] = counters[key]
    for name, _, _ in PER_LAYER:
        if name.startswith("stage."):
            out[name] = stage_values.get(name, 0.0)
    out["trace.overhead_s"] = overhead_s
    return {name: {"value": out[name], "unit": unit} for name, unit, _ in PER_LAYER}

"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
from pathlib import Path

import pytest

import run

run._import_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Target, Tracer  # noqa: E402

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_self_time_is_duration_minus_traced_children():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def middle():
        now[0] += 1.0
        hot_leaf()
        hot_leaf()
        now[0] += 3.0

    hot_leaf = tracer.wrap(leaf, Target("m", "leaf", "leaf", hot=True))
    traced_middle = tracer.wrap(middle, Target("m", "middle", "middle"))
    tracer.enter("root")
    now[0] += 0.5
    traced_middle()
    tracer.exit()

    totals = tracer.totals()
    assert totals["leaf"] == [2, 4.0, 4.0]
    assert totals["middle"] == [1, 8.0, 4.0]
    assert totals["root"] == [1, 8.5, 0.5]
    assert tracer.agg[("leaf", "middle")] == [2, 4.0, 0.0]


def test_install_rebinds_every_alias_and_uninstall_restores_them():
    import caloop
    from caloop import calculus, core, poly, quotient, words

    originals = (core.mul_coords, poly.Polynomial.__dict__["__mul__"], calculus.inner_l)
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        assert calculus.mul_coords is core.mul_coords is quotient.mul_coords
        assert words.associator is calculus.associator is caloop.associator
        assert words.inner_l.__wrapped__ is originals[2]
        assert core.mul_coords.__wrapped__ is originals[0]
        assert poly.Polynomial.__dict__["__rmul__"] is poly.Polynomial.__dict__["__mul__"]
        assert poly.Polynomial.__dict__["__radd__"] is poly.Polynomial.__dict__["__add__"]
        caloop.X * caloop.Y
        assert tracer.totals()["core.mul_coords"][0] == 1
    finally:
        tracer.uninstall()
    assert core.mul_coords is calculus.mul_coords is quotient.mul_coords is originals[0]
    assert poly.Polynomial.__dict__["__rmul__"] is originals[1]
    assert words.inner_l is caloop.inner_l is originals[2]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_matches_untraced_and_reports_every_layer_metric(name):
    workload = workloads.build(name, smoke=True)
    workload.setup(run.OUT_DIR)
    metrics, summary = run.traced(workload, seed=7)
    assert summary["mismatched"] == 0
    assert summary["regular_failed"] == 0
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(metrics)
    if name == "prove":
        assert metrics["symbolic.mutation.flipped"]["value"] == 5
        assert metrics["poly.mul.calls"]["value"] > 0
    if name == "quotient-m2":
        assert metrics["quotient.products_checked"]["value"] == 256 * 256
        assert metrics["quotient.table_bytes"]["value"] > 0


def test_traced_counts_repeat_exactly():
    def counts():
        workload = workloads.build("words", smoke=True)
        workload.setup(run.OUT_DIR)
        metrics, _ = run.traced(workload, seed=3)
        return {k: v["value"] for k, v in metrics.items() if k.endswith((".calls", "_sum"))}

    assert counts() == counts()


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "laws-small", "--seed", "5", "--seconds", "0.2",
                     "--trace", "0", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for spec in BENCHMARK["end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0


def test_words_passes_share_their_hostile_mix():
    def mix(seed, index):
        ops = workloads.Words(count=2000).make_pass(seed, index)
        return sorted((op.kind, op.run.args[0].count("(") if op.kind == "deep" else 0)
                      for op in ops if op.hostile)

    assert mix(1, 0) == mix(2, 5)
    assert len(mix(1, 0)) == round(workloads.HOSTILE_SHARE * 2000)


def test_benchmark_lists_the_workloads_it_runs():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)

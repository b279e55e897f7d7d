"""Tests of the benchmark itself: output checks, the wall cap, tracing."""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from sscurves import cli  # noqa: E402

EXPECTED = checker.load_expected()
OPS = {op.id: op for w in ops.WORKLOADS.values() for op in w.ops}


def _run(argv, limit=30.0):
    rc, seconds, out, err, timed_out = worker.run_op(cli.main, argv, limit)
    return {"rc": rc, "seconds": seconds, "stdout": out, "stderr": err,
            "timed_out": timed_out}


def _verify_doc(want):
    """A verify report with exactly the recorded content."""
    return {"genus": want["genus"], "supersingular": want["supersingular"],
            "lpoly": want["lpoly"],
            "pieces": [{"label": label, "genus": g, "supersingular": v,
                        "lpoly": lp}
                       for label, (g, v, lp) in want["pieces"].items()]}


def _verify_result(doc):
    return {"rc": 0, "stdout": json.dumps(doc), "timed_out": False}


def test_byte_exact_output_accepted_and_tampered_rejected():
    op = OPS["structure.decompose_g221"]
    res = _run(op.command("unused"))
    assert checker.check(op, res, EXPECTED) is None
    tampered = dict(res, stdout=res["stdout"].replace("221", "222", 1))
    assert "differs" in checker.check(op, tampered, EXPECTED)
    assert "exit code" in checker.check(op, dict(res, rc=3), EXPECTED)


def test_verify_verdict_may_strengthen_only():
    op = OPS["verify.g1000_f2m"]
    want = EXPECTED[op.id]
    assert want["supersingular"] == "certified"
    doc = _verify_doc(want)
    assert checker.check(op, _verify_result(doc), EXPECTED) is None

    stronger = copy.deepcopy(doc)
    stronger["supersingular"] = True
    for p in stronger["pieces"]:
        if p["supersingular"] == "certified":
            p["supersingular"] = True
            p["lpoly"] = [1]
    assert checker.check(op, _verify_result(stronger), EXPECTED) is None

    weaker = copy.deepcopy(doc)
    numeric = next(p for p in weaker["pieces"] if p["supersingular"] is True)
    numeric["supersingular"] = "certified"
    assert "weakens" in checker.check(op, _verify_result(weaker), EXPECTED)

    changed = copy.deepcopy(doc)
    numeric = next(p for p in changed["pieces"] if p["lpoly"])
    numeric["lpoly"] = numeric["lpoly"][:-1] + [0]
    assert "L-polynomial" in checker.check(op, _verify_result(changed),
                                           EXPECTED)


def test_seeded_properties():
    radical = OPS["structure.radical_1"]        # h = 2: dimension 4
    doc = {"basis": ["0x1", "0x2", "0x4", "0x8"]}
    assert checker.check(radical, _verify_result(doc), EXPECTED) is None
    doc = {"basis": ["0x1", "0x2", "0x3", "0x8"]}
    assert "dimension" in checker.check(radical, _verify_result(doc), EXPECTED)
    iso = OPS["structure.iso_0"]
    assert checker.check(iso, _verify_result({"isomorphic": False}),
                         EXPECTED) is not None


def test_seeded_inputs_repeat_and_pairs_are_isomorphic(tmp_path):
    assert ops.seeded_inputs("structure", 7) == ops.seeded_inputs("structure", 7)
    assert ops.seeded_inputs("structure", 7) != ops.seeded_inputs("structure", 8)
    ops.write_seeded_inputs("structure", 7, tmp_path)
    for i in range(len(ops.ISO_PAIRS)):
        op = OPS["structure.iso_%d" % i]
        res = _run(op.command(tmp_path))
        assert checker.check(op, res, EXPECTED) is None


def test_cap_turns_a_long_op_into_a_failed_op(tmp_path):
    assert _run(["construct", "--mode", "f2", "223", "--json",
                 "--out", str(tmp_path / "g223_f2.json")])["rc"] == 0
    op = OPS["capacity.quotients_g223_json"]
    res = _run(op.command(tmp_path), limit=0.3)
    assert res["timed_out"] and res["rc"] is None
    assert res["seconds"] < 5
    assert run.judge(op, res, EXPECTED) == (True, None)


def test_tail_needs_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(100)))
    assert (value, pct, beyond) == (89, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_children():
    def span(i, name, layer, start, end, parent, value=0):
        return {"id": i, "op": "x", "name": name, "layer": layer,
                "start_ns": start, "end_ns": end, "parent": parent,
                "value": value}
    s = [span(0, "cli.main", "cli", 0, 100, -1),
         span(1, "zeta.count_points", "zeta", 10, 60, 0, 16),
         span(2, "zeta.count_artin_schreier", "zeta", 20, 50, 1, 16),
         span(3, "field.ensure_tables", "field", 25, 35, 2, 1)]
    m = spans.summarize(s)
    assert m["cli.self_s"] == pytest.approx(50e-9)
    assert m["zeta.count_s"] == pytest.approx(40e-9)
    assert m["field.tables_s"] == pytest.approx(10e-9)
    assert (m["zeta.count_calls"], m["zeta.points"]) == (1, 16)
    assert m["field.tables_built"] == 1


def test_tracer_wraps_imported_names_and_restores_them():
    from sscurves import zeta
    original = cli.count_points
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.count_points is not original
        assert zeta.count_points is cli.count_points
        res = _run(["decompose", "30"])
    finally:
        tracer.uninstall()
    assert cli.count_points is original
    assert res["rc"] == 0
    assert [s[1] for s in tracer.spans] == ["cli.main"]


def test_metric_names_and_units_match_benchmark_json():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    layer_names = (list(spans.summarize([]))
                   + ["field.mul_ns.d%d" % d for d in (8, 20, 24, 64)]
                   + ["field.pow_us.d24", "trace.overhead_s"])
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: run.layer_unit(k) for k in layer_names}
    assert [w["name"] for w in bench["workloads"]] == ["verify", "structure"]

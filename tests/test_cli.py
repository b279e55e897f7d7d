import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from sscurves import cli, jsonio
from sscurves.builder import build_components, glue_single_block
from sscurves.cli import main
from sscurves.decomp import decompose
from sscurves.limits import DEFAULT_LOG2_POINTS

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
EXPECTED = os.path.join(FIXTURES, "expected")
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_full(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def golden_names(*suffixes):
    """Sorted names of the fixtures with a golden file of any of suffixes."""
    return sorted({f[:-len(s)] for f in os.listdir(EXPECTED)
                   for s in suffixes if f.endswith(s)})


def golden(name):
    with open(os.path.join(EXPECTED, name)) as fh:
        return fh.read()


def sha256_line(name, text):
    """The line sha256sum prints for a file called name that holds text."""
    return "%s  %s\n" % (hashlib.sha256(text.encode()).hexdigest(), name)


def sha256_listing(capsys, commands):
    """sha256sum's lines for the output of each (name, argv); each exits 0."""
    listing = ""
    for name, argv in commands:
        rc, out = run(capsys, *argv)
        assert rc == 0, name
        listing += sha256_line(name, out)
    return listing


def test_decompose(capsys):
    rc, out = run(capsys, "decompose", "221", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["blocks"] == [[0, 0], [2, 2], [6, 1]]
    assert doc["moduli_bound"] == 12
    rc, out = run(capsys, "decompose", "1", "--json")
    assert rc == 0 and json.loads(out)["blocks"] == [[0, 0]]


def test_decompose_invalid(capsys):
    rc, _ = run(capsys, "decompose", "0")
    assert rc == 2


def test_construct_221_equation(capsys):
    rc, out = run(capsys, "construct", "--mode", "f2", "221")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ("y^64+y^32+y^16+y^4+y^2+y = "
                        "x^288+x^160+x^144+x^96+x^80+x^36+x^18")
    assert "xR_6 = x^9+x^5+x^3" in lines
    assert "xR_5 = x^9+x^5" in lines
    assert "xR_3 = x^9" in lines and "xR_2 = x^9" in lines
    assert "xR_1 = 0" in lines and "xR_4 = 0" in lines


def test_construct_glued_30_equation(capsys):
    rc, out = run(capsys, "construct", "--mode", "f2m", "--glue", "30")
    assert rc == 0
    assert out.splitlines()[0] == "y^16+y = a^6*x^40+x^20+a^12*x^10+a^9*x^5"


def test_construct_errors(capsys):
    rc, _ = run(capsys, "construct", "--mode", "f2m", "--glue", "5")
    assert rc == 2    # two blocks cannot be glued
    rc, _ = run(capsys, "construct", "--mode", "f2", "--glue", "5")
    assert rc == 2


def test_construct_g1(capsys):
    rc, out = run(capsys, "construct", "--mode", "f2", "1")
    assert rc == 0 and out.splitlines()[0] == "y^2+y = x^3"


def test_fixture_stability(capsys, tmp_path):
    # every constructed fixture, as construct --json prints it and as
    # construct --out writes it
    for name, argv in (
            ("g1_f2.json", ["--mode", "f2", "1"]),
            ("g5_f2.json", ["--mode", "f2", "5"]),
            ("g221_f2.json", ["--mode", "f2", "221"]),
            ("g30_f2m_glued.json", ["--mode", "f2m", "--glue", "30"]),
            ("g63_f2m.json", ["--mode", "f2m", "63"])):
        with open(os.path.join(FIXTURES, name)) as fh:
            pinned = fh.read()
        assert run(capsys, "construct", *argv, "--json") == (0, pinned), name
        out = tmp_path / name
        assert run(capsys, "construct", *argv, "--out", str(out))[0] == 0
        assert out.read_text() == pinned, name


@pytest.mark.parametrize("name", golden_names(".verify.json"))
def test_verify_output_is_pinned(capsys, name):
    rc, out = run(capsys, "verify", "--json",
                  os.path.join(FIXTURES, name + ".json"))
    assert (rc, out) == (0, golden(name + ".verify.json"))


def test_verify_exact_route_is_pinned(capsys):
    # with both bounds at 80 every piece of g221_f2 is counted: 63 numeric
    # pieces and a proven verdict
    rc, out = run(capsys, "verify", "--json", "--budget-log2", "80",
                  "--max-degree", "80", os.path.join(FIXTURES, "g221_f2.json"))
    assert (rc, out) == (0, golden("g221_f2.verify-b80.json"))


def test_verify_stratum_route_is_pinned(capsys):
    # past --max-degree 8 the pieces of g221_f2 are out of reach: the strata
    # certify it, and the additivity check is skipped or left out
    fixture = os.path.join(FIXTURES, "g221_f2.json")
    for flags, suffix in ((["--max-degree", "8"], ".verify-d8.json"),
                          (["--max-degree", "8", "--skip-additivity"],
                           ".verify-d8-skip.json")):
        assert run(capsys, "verify", "--json", *flags, fixture) == (
            0, golden("g221_f2" + suffix)), suffix


def test_verify_additivity_past_the_ladder_is_pinned(capsys):
    # the genus-1 pieces of g63_f2m are counted up to k = 3 by the ladder, so
    # --kmax 4 makes the additivity check count each piece at k = 4 itself
    rc, out = run(capsys, "verify", "--json", "--kmax", "4",
                  os.path.join(FIXTURES, "g63_f2m.json"))
    assert (rc, out) == (0, golden("g63_f2m.verify-k4.json"))


def test_verify_at_the_frontier_is_pinned(capsys, tmp_path):
    # g16383_f2 has 16,383 pieces in 1,181 Frobenius classes, most of them
    # certified, and its additivity check is skipped; its 2.7 MB report is
    # pinned by sha256
    curve = str(tmp_path / "g16383_f2.json")
    assert run(capsys, "construct", "--mode", "f2", "16383",
               "--out", curve)[0] == 0
    rc, out = run(capsys, "verify", "--json", curve)
    assert (rc, hashlib.sha256(out.encode()).hexdigest() + "\n") == (
        0, golden("g16383_f2.verify.sha256"))


@pytest.mark.parametrize("name", golden_names(".verify.txt", ".lpoly.txt"))
def test_verify_text_and_lpoly_are_pinned(capsys, name):
    # the text report shows the order of the checks; lpoly's exit code is
    # kept beside its output
    fixture = os.path.join(FIXTURES, name + ".json")
    assert run(capsys, "verify", fixture) == (0, golden(name + ".verify.txt"))
    rc, out = run(capsys, "lpoly", fixture)
    assert ("%d\n" % rc, out) == (golden(name + ".lpoly.exit"),
                                  golden(name + ".lpoly.txt"))


@pytest.mark.parametrize("flags", [[], ["--budget-log2", "8"],
                                   ["--max-degree", "4"]])
def test_lpoly_and_verify_agree_on_the_self_route(capsys, flags):
    # lpoly refuses exactly when verify does not count the curve itself,
    # and otherwise prints the L that verify reports from its own counts
    for name in sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json")):
        fixture = os.path.join(FIXTURES, name)
        rc, out = run(capsys, "verify", "--json", *flags, fixture)
        report = json.loads(out) if rc == 0 else {"pieces": [{}]}
        first = report["pieces"][0]
        counted = (first.get("label"), first.get("mode")) == (
            "self", "numeric")
        rc, out = run(capsys, "lpoly", "--json", *flags, fixture)
        assert (rc == 3) == (not counted), (name, flags)
        if counted:
            assert json.loads(out)["lpoly"] == report["lpoly"], (name, flags)


@pytest.mark.parametrize("name",
                         golden_names(".quotients.txt", ".quotients.json"))
def test_quotients_output_is_pinned(capsys, name):
    # the text output is the one that prints rendered coefficients
    fixture = os.path.join(FIXTURES, name + ".json")
    for argv, suffix in ((["quotients", fixture], ".quotients.txt"),
                         (["quotients", "--json", fixture], ".quotients.json")):
        assert run(capsys, *argv) == (0, golden(name + suffix)), suffix


def test_quotients_at_the_frontier_are_pinned(capsys, tmp_path):
    # g16383_f2 has 16,383 quotient pieces; its JSON and text listings are
    # pinned by sha256, in sha256sum's own format
    curve = str(tmp_path / "g16383_f2.json")
    assert run(capsys, "construct", "--mode", "f2", "16383",
               "--out", curve)[0] == 0
    assert sha256_listing(capsys, (
        ("g16383_f2.quotients.json", ["quotients", "--json", curve]),
        ("g16383_f2.quotients.txt", ["quotients", curve]))) == golden(
            "g16383_f2.quotients.sha256")


@pytest.mark.parametrize("g, mode, pins", [
    # 127 pieces and 223 terms, coefficients rendered through the F_2^20
    # log table
    (223, "f2", "g223_f2.quotients.sha256"),
    # pieces with two terms, coefficients rendered through the F_2^14 log table
    (383, "f2", "g383_f2.quotients.sha256"),
    # 1,023 single-term pieces
    (1023, "f2", "g1023_f2.quotients.sha256"),
    # a fibre product: its pieces are fibre_combinations
    (1000, "f2m", "g1000_f2m.verify.sha256"),
    # its alpha space splits over F_2^84: 2,047 pieces over subfields of
    # degree 1-84, 145 of them counted and 1,902 certified
    (6015, "f2", "g6015_f2.verify-d84.sha256")])
def test_listings_of_built_curves_are_pinned(capsys, tmp_path, g, mode, pins):
    # pins, named <stem><kind>.sha256, holds sha256sum's line for each of
    # the outputs <stem><kind>.<ext> below
    commands = {".quotients.json": ["quotients", "--json"],
                ".quotients.txt": ["quotients"],
                ".verify.json": ["verify", "--json"],
                ".verify-d84.json": ["verify", "--json", "--max-degree", "84"]}
    stem = "g%d_%s" % (g, mode)
    kind = pins[len(stem):-len(".sha256")]
    curve = str(tmp_path / (stem + ".json"))
    assert run(capsys, "construct", "--mode", mode, str(g),
               "--out", curve)[0] == 0
    assert sha256_listing(capsys, [
        (stem + suffix, argv + [curve]) for suffix, argv in commands.items()
        if suffix.startswith(kind + ".")]) == golden(pins)


def test_text_rendered_by_pohlig_hellman_is_pinned(capsys, tmp_path):
    # the text listings pinned above live in fields of degree <= 20, whose
    # logs the log list answers; these four render through Pohlig-Hellman:
    # the quotients of g239_f2 over F_2^24; F_2^21, where 7^2 divides ord(x)
    # and the digit loop runs twice; F_2^32, where x is not primitive and
    # coefficients outside its orbit print in hex; and F_2^49, whose prime
    # 4,432,676,798,593 is past the baby-step bound, so the short walk finds
    # the digits
    curve = str(tmp_path / "g239_f2.json")
    assert run(capsys, "construct", "--mode", "f2", "239",
               "--out", curve)[0] == 0
    commands = {
        "g239_f2.quotients.txt": ["quotients", curve],
        "g2097151_f2m.construct.txt": ["construct", "--mode", "f2m",
                                       "2097151"],
        "g4294967295_f2m_glued.construct.txt": ["construct", "--mode", "f2m",
                                                "--glue", "4294967295"],
        "g562949953421311_f2m.construct.txt": ["construct", "--mode", "f2m",
                                               "562949953421311"]}
    assert sha256_listing(capsys, commands.items()) == golden(
        "pohlig_hellman.text.sha256")


def test_output_determinism(capsys):
    rc1, out1 = run(capsys, "construct", "--mode", "f2m", "109", "--json")
    rc2, out2 = run(capsys, "construct", "--mode", "f2m", "109", "--json")
    assert rc1 == rc2 == 0 and out1 == out2


def test_count_lpoly_quotients(capsys, tmp_path):
    g1 = os.path.join(FIXTURES, "g1_f2.json")
    rc, out = run(capsys, "count", g1, "--ext", "2", "--json")
    assert rc == 0 and json.loads(out)["count"] == 9
    rc, out = run(capsys, "lpoly", g1, "--json")
    assert rc == 0 and json.loads(out)["lpoly"] == ["1", "0", "2"]
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    rc, out = run(capsys, "quotients", g5, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert sorted(d["genus"] for d in doc) == [1, 2, 2]
    assert doc[0]["alpha"] == "0x1"


def test_verify_good_and_bad(capsys, tmp_path):
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    rc, out = run(capsys, "verify", g5, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["supersingular"] is True
    assert doc["checks"]["powersum_additivity"] is True
    assert doc["failures"] == []

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "format": "curve", "kind": "single",
        "field": {"degree": 1, "modulus": "0x2"},
        "S": ["0x1", "0x0", "0x1"],
        "R": [["0x0", "0x1"], ["0x0", "0x1"]],
        "metadata": {"tool_version": "0.1.0"},
    }))
    rc, out = run(capsys, "verify", str(bad), "--json")
    assert rc == 1
    assert json.loads(out)["supersingular"] is False
    # R_1 = R_2 = x with S = y^4 + y: the same message with or without a
    # construction in the metadata
    for meta in ({"tool_version": "0.1.0"},
                 {"construction": {"g": 1, "mode": "f2", "glue": False}}):
        doc = json.loads(bad.read_text())
        doc["metadata"] = meta
        bad.write_text(json.dumps(doc))
        assert run_full(capsys, "verify", str(bad)) == (
            1, "FAIL: curve is reducible\n", "")
        assert run_full(capsys, "lpoly", str(bad)) == (
            2, "", "error: curve is reducible\n")


def test_verify_221_mixed(capsys):
    g221 = os.path.join(FIXTURES, "g221_f2.json")
    rc, out = run(capsys, "verify", g221, "--json", "--budget-log2", "14",
                  "--skip-additivity")
    assert rc == 0
    doc = json.loads(out)
    assert doc["supersingular"] == "certified"
    modes = {p["mode"] for p in doc["pieces"]}
    assert modes == {"numeric", "certified-not-recounted"}


def test_schema_errors(capsys, tmp_path):
    bogus = tmp_path / "x.json"
    bogus.write_text("{\"kind\": \"single\"}")
    rc, _ = run(capsys, "verify", str(bogus))
    assert rc == 2
    bogus.write_text("not json")
    rc, _ = run(capsys, "count", str(bogus))
    assert rc == 2
    rc, _ = run(capsys, "count", str(tmp_path / "missing.json"))
    assert rc == 2


def test_budget_exit_code(capsys):
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    rc, _ = run(capsys, "count", g5, "--ext", "40", "--budget-log2", "16")
    assert rc == 3


def test_out_of_memory_exits_3(capsys, monkeypatch):
    # a MemoryError left main with a traceback and exit 1, the code of a
    # curve that is not supersingular; running out of memory is a bound
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_supersingular", out_of_memory)
    rc, out, err = run_full(capsys, "verify", os.path.join(FIXTURES,
                                                           "g5_f2.json"))
    assert (rc, out) == (3, "")
    assert err == "capacity/budget error: out of memory\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["8", "0", "x"])
def test_environment_sets_no_bound(capsys, monkeypatch, value):
    # SSCURVES_MAX_DEGREE=8 turned verify's report into the --max-degree 8
    # one, and SSCURVES_BUDGET_LOG2=8 refused a count over F_2^12; the
    # bounds come from the command line alone
    monkeypatch.setenv("SSCURVES_MAX_DEGREE", value)
    monkeypatch.setenv("SSCURVES_BUDGET_LOG2", value)
    rc, out = run(capsys, "verify", "--json",
                  os.path.join(FIXTURES, "g221_f2.json"))
    assert (rc, out) == (0, golden("g221_f2.verify.json"))
    rc, _ = run(capsys, "count", os.path.join(FIXTURES, "g5_f2.json"),
                "--ext", "12")
    assert rc == 0


def test_budget_default(capsys):
    # without a flag the limits default applies: a count over F_2^24 fits,
    # one over F_2^25 does not
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    rc, _ = run(capsys, "count", g5, "--ext", str(DEFAULT_LOG2_POINTS))
    assert rc == 0
    rc, _ = run(capsys, "count", g5, "--ext", str(DEFAULT_LOG2_POINTS + 1))
    assert rc == 3


def test_iso_and_radical(capsys, tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    r1.write_text(json.dumps({"field": {"degree": 4, "modulus": "0x13"},
                              "coeffs": ["0x0", "0x0", "0x1"]}))
    r2.write_text(json.dumps({"field": {"degree": 4, "modulus": "0x13"},
                              "coeffs": ["0x0", "0x0", "0x7"]}))
    rc, out = run(capsys, "iso", "--mode", "curves", str(r1), str(r2), "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True and doc["mode"] == "curves"
    assert "witness" in doc and "witness_field" in doc

    rc, out = run(capsys, "radical", str(r1), "--json")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["basis"]) == 4

    b1 = tmp_path / "b1.json"
    b2 = tmp_path / "b2.json"
    b1.write_text(json.dumps({"field": {"degree": 4, "modulus": "0x13"},
                              "basis": [["0x0", "0x1"]]}))
    b2.write_text(json.dumps({"field": {"degree": 4, "modulus": "0x13"},
                              "basis": [["0x0", "0x6"]]}))
    rc, out = run(capsys, "iso", "--mode", "covers", str(b1), str(b2), "--json")
    assert rc == 0 and json.loads(out)["isomorphic"] is True


def test_iso_negative_answers(capsys, tmp_path):
    field = {"degree": 2, "modulus": "0x7"}
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    r1.write_text(json.dumps({"field": field, "coeffs": ["0x1", "0x1"]}))
    r2.write_text(json.dumps({"field": field, "coeffs": ["0x1", "0x0", "0x1"]}))
    assert run_full(capsys, "iso", str(r1), str(r2)) == (
        0, "not isomorphic\n", "")
    rc, out = run(capsys, "iso", str(r1), str(r2), "--json")
    assert rc == 0
    assert json.loads(out) == {"isomorphic": False, "mode": "curves"}
    r2.write_text(json.dumps({"field": {"degree": 4, "modulus": "0x13"},
                              "coeffs": ["0x1", "0x1"]}))
    assert run_full(capsys, "iso", str(r1), str(r2)) == (
        2, "", "error: operands live over different fields\n")


def test_iso_and_radical_json_are_pinned(capsys, tmp_path):
    # the README's r1.json and r2.json, byte for byte
    field = '{"field": {"degree": 4, "modulus": "0x13"}, '
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    r1.write_text(field + '"coeffs": ["0x0", "0x0", "0x1"]}\n')
    r2.write_text(field + '"coeffs": ["0x0", "0x0", "0x7"]}\n')
    assert run(capsys, "iso", "--mode", "curves", str(r1), str(r2),
               "--json") == (0, """{
  "isomorphic": true,
  "witness": "0x4",
  "witness_field": {
    "degree": 4,
    "modulus": "0x13"
  },
  "mode": "curves"
}
""")
    assert run(capsys, "radical", str(r1), "--json") == (0, """{
  "ambient": {
    "degree": 4,
    "modulus": "0x13"
  },
  "basis": [
    "0x1",
    "0x2",
    "0x4",
    "0x8"
  ]
}
""")


def test_roundtrip_through_files(capsys, tmp_path):
    out_path = tmp_path / "c.json"
    rc, out = run(capsys, "construct", "--mode", "f2m", "30", "--json",
                  "--out", str(out_path))
    assert rc == 0
    assert out_path.read_text() == out
    rc, out2 = run(capsys, "count", str(out_path), "--ext", "1", "--json")
    assert rc == 0
    # fibre product of genus 30 over F_16
    assert json.loads(out2)["count"] >= 1


def test_field_degree_bound_applies_at_load(capsys, tmp_path):
    # an over-sized field fails before its modulus is tested (a Rabin test
    # of this degree-3000 modulus alone takes seconds)
    field = {"degree": 3000, "modulus": "0x%x" % ((1 << 3000) | 0b1011)}
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"format": "curve", "kind": "single",
                               "field": field, "S": ["0x1", "0x1"],
                               "R": [["0x1"]]}))
    r = tmp_path / "r.json"
    r.write_text(json.dumps({"field": field, "coeffs": ["0x1", "0x1"]}))
    t0 = time.perf_counter()
    for argv in (["quotients", "--max-degree", "64", str(big)],
                 ["verify", str(big)], ["count", str(big)],
                 ["radical", str(r)], ["iso", str(r), str(r)]):
        assert main(argv) == 3
        assert "exceeds bound 64" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1.0


def test_radical_of_a_wide_polynomial(tmp_path):
    # e_poly(x^(2^12) + x) = x^(2^24) + x: its splitting degree came from
    # Frobenius iterated modulo a degree-2^24 ordinary polynomial, which
    # never finished; right division works on its 25 coefficients
    r = tmp_path / "r.json"
    r.write_text(json.dumps({"field": {"degree": 1, "modulus": "0x3"},
                             "coeffs": ["0x1"] + ["0x0"] * 11 + ["0x1"]}))
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sscurves.cli", "radical",
                           str(r)], capture_output=True, text=True, env=env,
                          timeout=10)
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "radical dimension 24 in degree-24 field\n"


@pytest.mark.parametrize("g", [223, 239])
def test_quotients_render_in_large_fields(g, tmp_path):
    # pieces over F_2^20 (g = 223) and F_2^24 (g = 239): coefficients are
    # rendered by discrete logs, which a walk over the field never finished
    curve = tmp_path / "c.json"
    assert main(["construct", "--mode", "f2", str(g), "--json",
                 "--out", str(curve)]) == 0
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sscurves.cli", "quotients",
                           str(curve)], capture_output=True, text=True,
                          env=env, timeout=10)
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "127 quotients, genus total %d" % g
    assert len(lines) == 128 and any("a^" in line for line in lines)


def fibre_file(tmp_path, name, components, metadata=None):
    """A hand-written fibre product over F_2; components are exponent lists."""
    doc = {"format": "curve", "kind": "fibre_product",
           "field": {"degree": 1, "modulus": "0x3"},
           "components": [{"terms": [{"exp": e, "coeff": "0x1"} for e in exps]}
                          for exps in components]}
    if metadata is not None:
        doc["metadata"] = metadata
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_fibre_genus_comes_from_the_span(capsys, tmp_path):
    for comps, genus, L in (
            # x^5 and x^5 + x^3: the combination x^3 has genus 1, so the
            # genus is 2 + 2 + 1 = 5, not the 6 the component degrees suggest
            ([[5], [5, 3]], 5, [1, 2, 4, 8, 12, 16, 24, 32, 32, 32, 32]),
            # x^5 + x and x^5: members of genus 2, 2 and 0 (x^2 reduces to x)
            ([[5, 1], [5]], 4, [1, 2, 4, 4, 8, 8, 16, 16, 16])):
        path = fibre_file(tmp_path, "g%d.json" % genus, comps)
        rc, out = run(capsys, "verify", path, "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["genus"] == genus and doc["supersingular"] is True
        assert doc["failures"] == []
        rc, out = run(capsys, "lpoly", path)
        assert rc == 0
        assert out == "genus %d\nL = %s\n" % (genus, L)


def test_fibre_genus_ignores_metadata(capsys, tmp_path):
    # a genus-30 product whose metadata claims genus 29 is verified as 30
    good = tmp_path / "g30.json"
    assert main(["construct", "--mode", "f2m", "30", "--out",
                 str(good)]) == 0
    doc = json.loads(good.read_text())
    doc["metadata"]["construction"]["g"] = 29
    wrong = tmp_path / "g29.json"
    wrong.write_text(json.dumps(doc))
    capsys.readouterr()
    rc, out = run(capsys, "verify", str(wrong), "--json")
    assert rc == 0
    assert run(capsys, "verify", str(good), "--json") == (rc, out)
    doc = json.loads(out)
    assert doc["genus"] == 30 and doc["checks"]["piece_genus_total"] is True


def test_invalid_fibre_files(capsys, tmp_path):
    # dependent components: verify fails, count and lpoly refuse
    dup = fibre_file(tmp_path, "dup.json", [[5], [5]])
    message = ("fibre product has a component combination with even "
               "reduced degree")
    rc, out = run(capsys, "verify", dup)
    assert rc == 1 and out == "FAIL: %s\n" % message
    for argv in (["count", dup], ["lpoly", dup]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
    # components that reduce to a constant on their own: a constant, the
    # zero polynomial and x^4 + x^2 (= 0 modulo h^2 + h) fail the same way,
    # before verify takes the genus-0 span for a rational curve
    for name, comps in (("const.json", [[0]]), ("zero.json", [[]]),
                        ("x4x2.json", [[4, 2]])):
        path = fibre_file(tmp_path, name, comps)
        for argv in (["verify", path], ["verify", path, "--skip-additivity"]):
            rc, out = run(capsys, *argv)
            assert rc == 1 and out == "FAIL: %s\n" % message, argv
        for argv in (["count", path], ["lpoly", path]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == "error: %s\n" % message
    # an x^7 component, and a span leading with x^7 (x^9 + x^7 plus x^9),
    # are refused when the file is loaded
    for name, comps in (("x7.json", [[7]]), ("lead7.json", [[9, 7], [9]])):
        path = fibre_file(tmp_path, name, comps)
        with pytest.raises(ValueError, match="degree 7 is not of the form"):
            jsonio.load_curve(path)
        for cmd in ("verify", "count", "lpoly"):
            assert main([cmd, path]) == 2, (name, cmd)
            assert "degree 7 is not of the form" in capsys.readouterr().err


WEIGHT3 = ("error: exponent 7 has binary weight 3; only weights up to 2 "
           "are counted\n")


def test_verify_rejections_of_fibre_products(capsys, tmp_path):
    # x^7 has binary weight 3, so no count takes x^9 + x^7: every command
    # refuses the file at load, also with x^5 beside it and as x^8193 + x^7
    # past the budget
    for name, comps in (("x9x7.json", [[9, 7]]),
                        ("x9x7_x5.json", [[9, 7], [5]]),
                        ("x8193x7.json", [[8193, 7]])):
        path = fibre_file(tmp_path, name, comps)
        for argv in (["count"], ["verify"],
                     ["verify", "--json", "--budget-log2", "8"], ["lpoly"],
                     ["quotients"]):
            assert run_full(capsys, argv[0], path, *argv[1:]) == (
                2, "", WEIGHT3), (name, argv)
    # quotients take single-equation curves only
    path = fibre_file(tmp_path, "x9.json", [[9]])
    assert run_full(capsys, "quotients", path) == (
        2, "", "error: quotients need a single-equation curve file\n")


def test_verify_rejects_a_wrong_count(capsys, tmp_path, monkeypatch):
    # one count one too low, and failures names only the checks that
    # failed, each once.  g1_f2's count over F_2: its L becomes
    # 1 - T + 2T^2, whose slopes are 0 and 1.  Its count over F_4: L is
    # still 1 + 2T^2 and its polygon accepts, but the count is not the one
    # L predicts.  With x^5 beside x^9 and a budget of 2^8, verify counts
    # the pieces: the x^9 piece's count over F_2^6 (129, the Weil maximum),
    # which its L from k = 1..4 must predict.  g63_f2m's class over F_4
    # (combinations 0x3a and 0x3b, L = 1 - 2T + 4T^2) at k = 1: its trace
    # turns odd, so both of its checks fail, on both members
    from sscurves import zeta
    count_points = zeta.count_points
    newton = "newton polygon rejects supersingularity"
    predictions = "functional_equation_predictions"

    def one_off(wrong):
        def count(curve, k, budget=zeta.DEFAULT_BUDGET):
            return count_points(curve, k, budget) - wrong(curve, k)
        return count

    g1 = os.path.join(FIXTURES, "g1_f2.json")
    checks = ('checks: {"weil_bounds": true, "functional_equation_predictions"'
              ': false, "lpoly_degree": true, "irreducible": true')
    monkeypatch.setattr(zeta, "count_points", one_off(lambda c, k: k == 1))
    rc, out = run(capsys, "verify", g1)
    assert rc == 1 and out.splitlines()[1:] == [
        "supersingular: false", checks + ', "powersum_additivity": false}',
        "FAILURES: newton polygon rejects supersingularity, "
        "functional_equation_predictions, powersum_additivity"]
    monkeypatch.setattr(zeta, "count_points", one_off(lambda c, k: k == 2))
    rc, out = run(capsys, "verify", g1, "--skip-additivity")
    assert rc == 1 and out.splitlines()[1:] == [
        "supersingular: false", checks + "}",
        "FAILURES: functional_equation_predictions"]
    rc, out = run(capsys, "verify", g1, "--json", "--skip-additivity")
    doc = json.loads(out)
    assert doc["pieces"][0]["supersingular"] is False
    assert doc["pieces"][0]["failed"] == doc["failures"] == [predictions]
    monkeypatch.setattr(zeta, "count_points", one_off(
        lambda c, k: k == 6 and getattr(c, "rhs", None) is not None
        and c.rhs.terms == ((9, 1),)))
    path = fibre_file(tmp_path, "x9_x5.json", [[9], [5]])
    rc, out = run(capsys, "verify", path, "--json", "--budget-log2", "8")
    doc = json.loads(out)
    assert rc == 1 and doc["supersingular"] is False
    assert {p["label"]: p["supersingular"] for p in doc["pieces"]} == {
        "combination 0x1": False, "combination 0x2": True,
        "combination 0x3": True}
    assert [p.get("failed") for p in doc["pieces"]] == [
        [predictions], None, None]
    assert doc["checks"]["piece_genus_total"] is True
    assert doc["failures"] == [predictions]
    monkeypatch.setattr(zeta, "count_points", one_off(
        lambda c, k: k == 1 and getattr(c, "rhs", None) is not None
        and c.rhs.field.degree == 2))
    rc, out = run(capsys, "verify", os.path.join(FIXTURES, "g63_f2m.json"),
                  "--json")
    doc = json.loads(out)
    assert rc == 1 and doc["supersingular"] is False
    assert {p["label"]: p["failed"] for p in doc["pieces"]
            if "failed" in p} == {"combination 0x3a": [newton, predictions],
                                  "combination 0x3b": [newton, predictions]}
    assert doc["failures"] == [newton, predictions]


def test_verify_reports_an_additivity_mismatch(capsys, monkeypatch):
    from sscurves import zeta
    count_points = zeta.count_points

    def off_by_two_in_additive(curve, k, budget=zeta.DEFAULT_BUDGET):
        n = count_points(curve, k, budget)
        return n + 2 if sys._getframe(1).f_code.co_name == "_additive" else n

    # only the check's own count of the curve is off; the ladder's is not
    monkeypatch.setattr(zeta, "count_points", off_by_two_in_additive)
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    assert zeta.powersum_additivity_check(jsonio.load_curve(g5), 2) is False
    rc, out = run(capsys, "verify", g5, "--json")
    doc = json.loads(out)
    assert rc == 1 and doc["supersingular"] is True
    assert doc["checks"]["powersum_additivity"] is False
    assert doc["failures"] == ["powersum_additivity"]


def edited_fixture(tmp_path, name, edit):
    """A copy of a fixture with its document changed by edit(doc)."""
    with open(os.path.join(FIXTURES, name)) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_boolean_field_degree_is_refused(capsys, tmp_path):
    # "degree": true used to load as degree 1
    path = edited_fixture(tmp_path, "g1_f2.json",
                          lambda doc: doc["field"].update(degree=True))
    for cmd in ("verify", "count", "quotients"):
        assert run_full(capsys, cmd, path) == (
            2, "", "error: bad field degree True\n"), cmd


def test_boolean_exponent_is_refused(capsys, tmp_path):
    # "exp": true used to load as exponent 1, and verify --json printed the
    # report of the file with "exp": 1
    path = fibre_file(tmp_path, "bool.json", [[3, True]])
    for cmd in ("verify", "count", "lpoly"):
        assert run_full(capsys, cmd, path) == (
            2, "", "error: bad exponent True\n"), cmd


def test_non_list_fields_are_refused(capsys, tmp_path):
    # "R", "components" and a component's "terms" used to end in a TypeError
    # traceback with exit 1
    for name, edit, message in (
            ("g5_f2.json", lambda doc: doc.update(R=5),
             "curve file's 'R' must be a JSON list"),
            ("g63_f2m.json", lambda doc: doc.update(components=5),
             "curve file's 'components' must be a JSON list"),
            ("g63_f2m.json", lambda doc: doc["components"][0].update(terms=5),
             "sparse polynomial's 'terms' must be a JSON list")):
        path = edited_fixture(tmp_path, name, edit)
        for cmd in ("verify", "count"):
            assert run_full(capsys, cmd, path) == (
                2, "", "error: %s\n" % message), (cmd, message)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(field={"degree": 4, "modulus": "0x11"}),
     "bad field description: modulus is not irreducible"),
    (lambda doc: doc["field"].update(modulus="0x7"),
     "bad field description: modulus degree mismatch"),
    (lambda doc: doc["field"].update(modulus="zz"), "bad field modulus 'zz'"),
    (lambda doc: doc.update(field={"degree": 0, "modulus": "0x1"}),
     "bad field degree 0"),
    (lambda doc: doc.update(field={"degree": -1, "modulus": "0x1"}),
     "bad field degree -1"),
    (lambda doc: doc["field"].update(modulus=19), "bad field modulus 19"),
    (lambda doc: doc["S"].__setitem__(0, "zz"), "bad field element 'zz'"),
    (lambda doc: doc["S"].__setitem__(0, "0x2"),
     "element 0x2 out of range for degree 1"),
    (lambda doc: doc.update(S=5),
     "linearized polynomial must be a coefficient list"),
    (lambda doc: doc.update(kind="triple"), "unknown curve kind 'triple'"),
    # the shape CurveSpec.validate asks of S and of the R slots
    (lambda doc: doc["S"].__setitem__(0, "0x0"),
     "S must have a nonzero coefficient of y"),
    (lambda doc: doc.update(field={"degree": 2, "modulus": "0x7"},
                            S=["0x1", "0x2"]), "S must be monic"),
    (lambda doc: doc["R"].append(["0x1"]), "expected 1 twist slots"),
    (lambda doc: doc.update(R=[["0x0"]]), "all R_k vanish")])
def test_malformed_fields_and_elements_are_refused(capsys, tmp_path, edit,
                                                    message):
    path = edited_fixture(tmp_path, "g1_f2.json", edit)
    for cmd in ("verify", "count", "quotients"):
        assert run_full(capsys, cmd, path) == (
            2, "", "error: %s\n" % message), cmd


def test_single_equation_genus_ignores_metadata(capsys, tmp_path):
    # metadata claiming genus 6 for the genus-5 fixture changes nothing
    good = os.path.join(FIXTURES, "g5_f2.json")
    wrong = edited_fixture(
        tmp_path, "g5_f2.json",
        lambda doc: doc["metadata"]["construction"].update(g=6))
    for argv in (["verify", "--json"], ["lpoly"]):
        got = run_full(capsys, argv[0], wrong, *argv[1:])
        assert got == run_full(capsys, argv[0], good, *argv[1:]), argv
        assert got[0] == 0
    assert got[1].startswith("genus 5\n")


def test_stratum_branch_without_metadata(capsys, tmp_path):
    # the alpha space of g221 splits over F_2^24, beyond --max-degree 8: the
    # verdict is certified from the strata of the equation itself
    argv = ("--max-degree", "8", "--skip-additivity")
    good = os.path.join(FIXTURES, "g221_f2.json")
    bare = edited_fixture(tmp_path, "g221_f2.json",
                          lambda doc: doc.pop("metadata"))
    for extra in ((), ("--json",)):
        got = run_full(capsys, "verify", bare, *argv, *extra)
        assert got == run_full(capsys, "verify", good, *argv, *extra)
    rc, out, err = got
    doc = json.loads(out)
    assert rc == 0 and err == "" and doc["supersingular"] == "certified"
    assert doc["checks"]["stratum_genus_total"] is True
    assert [(p["label"], p["count"], p["genus"]) for p in doc["pieces"]] == [
        ("stratum u=1", 1, 1), ("stratum u=2", 14, 2), ("stratum u=3", 48, 4)]


def test_certifiable_shape_allows_constant_and_x_terms(capsys, tmp_path):
    # x^8193 + 1 is the cover x^8193 twisted by a constant, and x^8193 + x
    # is x R(x) with R = x^8192 + x (x^2 reduces to x): the same certified
    # verdict as x^8193, where both were refused for want of a shape
    plain = fibre_file(tmp_path, "plain.json", [[8193]])
    for name, comps in (("const.json", [[8193, 0]]), ("x.json", [[8193, 1]])):
        path = fibre_file(tmp_path, name, comps)
        for argv in (["verify", "--json"], ["verify"]):
            got = run_full(capsys, argv[0], path, *argv[1:])
            assert got == run_full(capsys, argv[0], plain, *argv[1:]), argv
        rc, out, _ = run_full(capsys, "verify", path, "--json")
        doc = json.loads(out)
        assert rc == 0 and doc["genus"] == 4096
        assert doc["supersingular"] == "certified"


def test_lpoly_of_a_genus_0_curve(capsys, tmp_path):
    # no components, or one component x: rational curves with L = 1
    for name, comps in (("empty.json", []), ("x.json", [[1]])):
        path = fibre_file(tmp_path, name, comps)
        assert run_full(capsys, "lpoly", path) == (0, "genus 0\nL = [1]\n", "")
        rc, out = run(capsys, "lpoly", path, "--json")
        assert rc == 0 and json.loads(out) == {"genus": 0, "lpoly": ["1"]}
        assert run_full(capsys, "verify", path) == (
            0, "genus 0\nsupersingular: true\nchecks: "
               '{"rational": true, "powersum_additivity": true}\n', "")


def test_verify_kmax_must_be_positive(capsys):
    # --kmax 0 used to report additivity true after checking nothing
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    for kmax in ("0", "-1"):
        with pytest.raises(SystemExit) as ex:
            main(["verify", g5, "--kmax", kmax])
        assert ex.value.code == 2
        assert ("argument --kmax: must be at least 1, got %s\n" % kmax
                in capsys.readouterr().err)
    rc, out = run(capsys, "verify", g5, "--kmax", "1", "--json")
    assert rc == 0 and json.loads(out)["checks"]["powersum_additivity"] is True


def test_verify_additivity_error_is_not_a_verdict(capsys, monkeypatch):
    # an error inside the additivity check exits 2 as it did when the check
    # ran after the ladder; it is not a FAIL report with exit 1
    from sscurves import zeta

    def fail(*args):
        raise ValueError("no pieces")

    monkeypatch.setattr(zeta, "_pieces", fail)
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    assert run_full(capsys, "verify", g5) == (2, "", "error: no pieces\n")
    assert run(capsys, "verify", g5, "--skip-additivity")[0] == 0


def test_count_ext_must_be_positive(capsys):
    # --ext 0 used to fail deep in the field code, naming a field degree
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    for ext in ("0", "-1"):
        with pytest.raises(SystemExit) as ex:
            main(["count", g5, "--ext", ext])
        assert ex.value.code == 2
        assert ("argument --ext: must be at least 1, got %s\n" % ext
                in capsys.readouterr().err)
    assert run_full(capsys, "count", g5, "--ext", "1") == (0, "3\n", "")


def basis_file(tmp_path, name, basis):
    path = tmp_path / name
    path.write_text(json.dumps({"field": {"degree": 4, "modulus": "0x13"},
                                "basis": basis}))
    return str(path)


@pytest.mark.parametrize("text", [
    "[]", "5", "null", '"curve"', "{", "",
    pytest.param("[" * 1100 + "]" * 1100, id="nested-1100"),
    pytest.param("[" * 100000 + "]" * 100000, id="nested-100000")])
def test_iso_and_radical_refuse_documents_that_are_not_objects(
        capsys, tmp_path, text):
    # a list used to end in an AttributeError traceback and exit 1, and
    # deep nesting in a RecursionError traceback and exit 1, which verify
    # reports for a failed verification (json's C decoder stops at 1,100
    # levels up to 3.11, and somewhere below 100,000 from 3.12 on)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    ok = basis_file(tmp_path, "ok.json", [["0x0", "0x1"]])
    for argv in (["radical", str(bad)], ["iso", str(bad), str(bad)],
                 ["iso", "--mode", "covers", str(ok), str(bad)],
                 ["verify", str(bad)], ["count", str(bad)]):
        rc, out, err = run_full(capsys, *argv)
        assert (rc, out) == (2, "") and err.startswith("error: "), argv
        assert err.count("\n") == 1


@pytest.mark.parametrize("basis", [5, None, "0x1", {"0x1": 1}])
def test_iso_covers_refuses_a_basis_that_is_not_a_list(
        capsys, tmp_path, basis):
    # 5 and null used to end in a TypeError traceback and exit 1
    bad = basis_file(tmp_path, "bad.json", basis)
    ok = basis_file(tmp_path, "ok.json", [["0x0", "0x1"]])
    for first, second in ((bad, ok), (ok, bad)):
        assert run_full(capsys, "iso", "--mode", "covers", first, second) == (
            2, "", "error: basis must be a list of linearized polynomials\n")


def test_iso_covers_rejects_a_zero_element(capsys, tmp_path):
    # a zero polynomial has no 2-degree: this used to end in a TypeError;
    # the refusals come before the lengths are compared, which printed
    # "not isomorphic" for bases of unequal length
    zero = basis_file(tmp_path, "zero.json", [["0x0", "0x1"], []])
    ok = basis_file(tmp_path, "ok.json", [["0x0", "0x1"], ["0x1", "0x0", "0x1"]])
    lone_zero = basis_file(tmp_path, "lone_zero.json", [["0x0"]])
    empty = basis_file(tmp_path, "empty.json", [])
    line = basis_file(tmp_path, "line.json", [["0x0", "0x1"]])
    for first, second in ((zero, ok), (ok, zero), (zero, zero),
                          (lone_zero, ok), (ok, lone_zero)):
        assert run_full(capsys, "iso", "--mode", "covers", first, second) == (
            2, "", "error: zero polynomial in a basis\n")
    for first, second in ((empty, line), (line, empty)):
        assert run_full(capsys, "iso", "--mode", "covers", first, second) == (
            2, "", "error: empty basis\n")
    # [x, x] spans what [x] spans: against [x] this printed "not isomorphic"
    # and exited 0, and against itself "isomorphic via rho = 0x1"
    twice = basis_file(tmp_path, "twice.json", [["0x0", "0x1"], ["0x0", "0x1"]])
    for first, second in ((twice, line), (line, twice), (twice, twice)):
        assert run_full(capsys, "iso", "--mode", "covers", first, second) == (
            2, "", "error: basis elements are F_2-dependent\n")


def test_iso_covers_rejects_degree_0_bases(capsys, tmp_path):
    # X^2 = c has one double root: the root search used to run to degree 64
    # and exit 3
    const = basis_file(tmp_path, "const.json", [["0x1"]])
    pair = basis_file(tmp_path, "pair.json", [["0x1"], ["0x2"]])
    for first, second in ((const, const), (const, pair), (pair, const)):
        assert run_full(capsys, "iso", "--mode", "covers", first, second) == (
            2, "", "error: bases need an element of 2-degree at least 1\n")


@pytest.mark.parametrize("i0, ext", [(10, 20), (32, 64)])
def test_iso_prices_the_root_split(capsys, tmp_path, i0, ext):
    # R = x^(2^i0) over F_2 gives X^d = 1 with d = 2^i0 + 1, split over
    # F_2^ext: about ext d^2 products, which took 23 s at i0 = 10 and at
    # i0 = 32 would have built a list of 2^32 + 2 coefficients
    field = {"degree": 1, "modulus": "0x3"}
    coeffs = ["0x0"] * i0 + ["0x1"]
    r = tmp_path / "r.json"
    r.write_text(json.dumps({"field": field, "coeffs": coeffs}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"field": field, "basis": [coeffs]}))
    refused = (3, "", "capacity/budget error: splitting X^%d = c over F_2^%d "
                      "exceeds the budget 2^24\n" % ((1 << i0) + 1, ext))
    for mode, path in (("curves", r), ("covers", b)):
        start = time.perf_counter()
        assert run_full(capsys, "iso", "--mode", mode, str(path),
                        str(path)) == refused, mode
        assert time.perf_counter() - start < 1, mode


def test_iso_root_split_fits_at_the_bound(capsys, tmp_path):
    # R = x^16 over F_2: X^17 = 1 splits over F_2^8, 8 * 17^2 = 2312 products
    r = tmp_path / "r.json"
    r.write_text(json.dumps({"field": {"degree": 1, "modulus": "0x3"},
                             "coeffs": ["0x0"] * 4 + ["0x1"]}))
    assert run_full(capsys, "iso", str(r), str(r), "--budget-log2", "12") == (
        0, "isomorphic via rho = 0x1 in degree-8 field (curves)\n", "")
    assert run_full(capsys, "iso", str(r), str(r), "--budget-log2", "11") == (
        3, "", "capacity/budget error: splitting X^17 = c over F_2^8 exceeds "
               "the budget 2^11\n")


def test_iso_covers_prices_its_splits_together(capsys, tmp_path):
    # the top coefficients of b.json are 8 independent elements of F_2^8,
    # so 255 candidates c, each split of X^3 = c costing 8 * 9 or 24 * 9
    # products: each fit 2^12 alone, so all 255 ran and exit 0 followed
    field = {"degree": 8, "modulus": "0x11b"}
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"field": field, "basis": [
        [hex(1 << i), hex(1 << i)] for i in range(8)]}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"field": field, "basis": [
        ["0x0", hex(1 << i)] for i in range(8)]}))
    assert run_full(capsys, "iso", "--mode", "covers", "--budget-log2", "12",
                    str(a), str(b)) == (
        3, "", "capacity/budget error: splitting X^3 = c over F_2^24 exceeds "
               "the budget 2^12 after 3888 products of earlier splits\n")
    assert run_full(capsys, "iso", "--mode", "covers", str(a), str(b)) == (
        0, "not isomorphic\n", "")


def test_iso_covers_walks_the_pivots_not_the_span(tmp_path):
    # 24 unit polynomials gamma^j x^(2^i), i < 6 and j < 4: the walk over
    # span(L2) built 2^24 polynomials (77.6 s and 2.85 GB), while the four
    # independent top coefficients give 15 candidates; the child is capped
    # so that a walk over the span fails fast
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    b = basis_file(tmp_path, "b.json", [["0x0"] * i + [hex(1 << j)]
                                        for i in range(6) for j in range(4)])
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sscurves.cli", "iso",
                           "--mode", "covers", "--json", b, b],
                          capture_output=True, text=True, preexec_fn=cap,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=10)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["witness"], doc["witness_field"]["degree"]) == ("0x40dc3", 20)


def test_iso_curves_refuses_r_of_2_degree_below_1(capsys, tmp_path):
    # y^2 + y = x is rational and R = 0 gives no curve: two copies of the
    # constant R = 1 printed "not isomorphic" and exited 0; radical refuses
    # them with the same message
    files = {}
    for name, coeffs in (("one", ["0x1"]), ("zero", []), ("x2", ["0x0", "0x1"])):
        files[name] = str(tmp_path / (name + ".json"))
        with open(files[name], "w") as fh:
            json.dump({"field": {"degree": 4, "modulus": "0x13"},
                       "coeffs": coeffs}, fh)
    refused = (2, "", "error: R must have 2-degree >= 1\n")
    for first, second in (("one", "one"), ("zero", "x2"), ("one", "x2")):
        assert run_full(capsys, "iso", "--mode", "curves", files[first],
                        files[second]) == refused, (first, second)
    assert run_full(capsys, "radical", files["one"]) == refused


def test_count_checks_validity_before_budget(capsys, tmp_path):
    # x^8193 and x^8193 + 1 sum to a constant: count refuses the file with
    # verify's message, also where the count would exceed the budget
    dep = fibre_file(tmp_path, "dep.json", [[8193], [8193, 0]])
    message = ("fibre product has a component combination with even "
               "reduced degree")
    assert run_full(capsys, "verify", dep) == (1, "FAIL: %s\n" % message, "")
    for ext in ("1", "30"):
        assert run_full(capsys, "count", dep, "--ext", ext) == (
            2, "", "error: %s\n" % message)


def test_additivity_skipped_past_max_degree(capsys):
    # the pieces of g221 live over F_2^24: past --max-degree 8 the ladder
    # certifies from the strata and the additivity check is skipped
    g221 = os.path.join(FIXTURES, "g221_f2.json")
    rc, out = run(capsys, "verify", g221, "--max-degree", "8", "--json")
    doc = json.loads(out)
    assert rc == 0 and doc["supersingular"] == "certified"
    assert doc["checks"]["powersum_additivity"] == "skipped (budget)"


def test_hand_written_files_with_s_outside_f2(capsys, tmp_path):
    # y^8 + a y^4 + y = ... over F_4: its counts over F_4^12 and F_4^14 are
    # those of L = 1 + 4096 T^12; it used to verify as genus 7, with only
    # the additivity check objecting, and lpoly printed a degree-14 L
    g6 = os.path.join(FIXTURES, "g6_f4.json")
    assert run_full(capsys, "verify", g6) == (
        0, "genus 6\nsupersingular: true\nchecks: "
           '{"weil_bounds": true, "functional_equation_predictions": true, '
           '"lpoly_degree": true, "irreducible": true, '
           '"powersum_additivity": true}\n', "")
    assert run_full(capsys, "lpoly", g6) == (
        0, "genus 6\nL = %s\n" % ([1] + [0] * 11 + [4096]), "")
    # counts 17, 129, 1025, 8193 = 2 * 8^k + 1 over F_8: two components,
    # once verified as an irreducible curve of genus 0
    doc = {"format": "curve", "kind": "single",
           "field": {"degree": 3, "modulus": "0xb"},
           "S": ["0x6", "0x0", "0x2", "0x1"],
           "R": [["0x5"], ["0x4"], ["0x1"]], "metadata": {}}
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps(doc))
    assert run_full(capsys, "verify", str(path)) == (
        1, "FAIL: curve is reducible\n", "")
    for argv in (["lpoly"], ["count", "--ext", "2"]):
        assert run_full(capsys, argv[0], str(path), *argv[1:]) == (
            2, "", "error: curve is reducible\n"), argv


def test_lpoly_refuses_before_the_ladder(capsys, tmp_path, monkeypatch):
    # a curve too large to count directly is refused before any quotient
    # piece is built, and x^8193 + x^7 already at load
    from sscurves import zeta
    built = []
    pieces = zeta._pieces
    monkeypatch.setattr(zeta, "_pieces",
                        lambda *a: built.append(a) or pieces(*a))
    message = ("capacity/budget error: curve is too large to count directly; "
               "use verify for the piecewise ladder\n")
    for path, argv in (
            (os.path.join(FIXTURES, "g221_f2.json"), ["--budget-log2", "8"]),
            (fibre_file(tmp_path, "plain.json", [[8193]]), [])):
        assert run_full(capsys, "lpoly", path, *argv) == (3, "", message)
    x7 = fibre_file(tmp_path, "x7.json", [[8193, 7]])
    assert run_full(capsys, "lpoly", x7) == (2, "", WEIGHT3)
    assert built == []


def test_counts_build_their_fields_under_max_degree(capsys, tmp_path,
                                                    monkeypatch):
    # count --ext 3 --max-degree 8 on a curve over F_32 counted over F_2^15
    # and printed 34817, lpoly --max-degree 4 counted g5 up to F_2^7, and
    # verify counted pieces and the additivity check past the bound
    from sscurves import field
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    g1000 = str(tmp_path / "g1000_f2m.json")
    assert run(capsys, "construct", "--mode", "f2m", "1000",
               "--out", g1000)[0] == 0
    assert run_full(capsys, "count", g1000, "--ext", "3") == (0, "34817\n", "")
    built = []
    make_field = field.make_field

    def spy(n, *args, **kwargs):
        built.append(n)
        return make_field(n, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "sscurves" or name.startswith("sscurves."))
                and getattr(module, "make_field", None) is make_field):
            monkeypatch.setattr(module, "make_field", spy)
    refusal = ("capacity/budget error: count field F_2^15 exceeds the budget "
               "2^24 or the degree bound 8\n")
    too_large = ("capacity/budget error: curve is too large to count "
                 "directly; use verify for the piecewise ladder\n")
    for bound, argv, expected in (
            (8, ("count", g1000, "--ext", "3"), (3, "", refusal)),
            (4, ("lpoly", g5), (3, "", too_large)),
            (8, ("verify", g1000, "--json"), None),
            (4, ("verify", g5, "--json"), None)):
        built.clear()
        got = run_full(capsys, *argv, "--max-degree", str(bound))
        assert all(n <= bound for n in built), (argv, built)
        if expected is not None:
            assert got == expected, argv
            continue
        rc, out, err = got
        doc = json.loads(out)
        assert rc == 0 and err == "" and doc["supersingular"] == "certified"
        modes = [p["mode"] for p in doc["pieces"]]
        if argv[1] == g5:
            assert modes == ["numeric"] + ["certified-not-recounted"] * 2
            assert doc["checks"]["powersum_additivity"] is True
        else:
            assert modes == ["certified-not-recounted"] * 63
            assert doc["checks"]["powersum_additivity"] == "skipped (budget)"


def test_construct_builds_its_field_under_max_degree(capsys, tmp_path):
    # construct --mode f2m 1000 --max-degree 2 wrote a curve over F_32
    # that verify --max-degree 2 then refused
    out = tmp_path / "g1000_f2m.json"
    assert run_full(capsys, "construct", "--mode", "f2m", "1000",
                    "--max-degree", "2", "--out", str(out)) == (
        3, "", "capacity/budget error: field degree 5 exceeds bound 2\n")
    assert not out.exists()
    assert run(capsys, "construct", "--mode", "f2m", "1000",
               "--max-degree", "5", "--out", str(out))[0] == 0
    assert run(capsys, "construct", "--mode", "f2", "5",
               "--max-degree", "1")[0] == 0


def test_construct_json_renders_nothing(capsys, tmp_path):
    # the glued curves of genus 2^w - 1 for w = 49, 59, 61 and 62 have
    # coefficients whose discrete logs are past the budget (w = 49, 59, 61)
    # or take about a second each (w = 62): construct --json exited 3 or ran
    # past a minute while it rendered text lines it never printed
    listing = ""
    for w in (49, 59, 61, 62):
        g = (1 << w) - 1
        rc, out = run(capsys, "construct", "--mode", "f2m", "--glue", str(g),
                      "--json")
        assert rc == 0, w
        listing += sha256_line("g%d_f2m_glued.json" % g, out)
        assert jsonio.curve_from_json(json.loads(out)) == glue_single_block(
            build_components(decompose(g)))
    assert listing == golden("g2w-1_f2m_glued.construct.sha256")
    # text output still renders first, and exits 3 before --out is written
    out = tmp_path / "g49.json"
    rc, stdout, err = run_full(capsys, "construct", "--mode", "f2m", "--glue",
                               str((1 << 49) - 1), "--out", str(out))
    assert (rc, stdout) == (3, "") and "discrete log in F_2^49" in err
    assert not out.exists()


def test_count_above_degree_64_within_both_bounds(capsys):
    # the count field is bounded by the two flags only; degree 64 was fixed
    from sscurves.zeta import LPoly, predicted_count
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    rc, out = run(capsys, "lpoly", g5, "--json")
    L = LPoly(2, tuple(int(c) for c in json.loads(out)["lpoly"]))
    assert run_full(capsys, "count", g5, "--ext", "70", "--budget-log2",
                    "80", "--max-degree", "80") == (
        0, "%d\n" % predicted_count(L, 70), "")
    assert run_full(capsys, "count", g5, "--ext", "70", "--budget-log2",
                    "80") == (
        3, "", "capacity/budget error: count field F_2^70 exceeds the budget "
               "2^80 or the degree bound 64\n")


@pytest.mark.parametrize("flag", ["--budget-log2", "--max-degree"])
def test_bounds_must_be_positive(capsys, flag):
    # verify --budget-log2 -5 counted nothing, certified every piece and
    # exited 0; --max-degree 0 failed with "field degree 1 exceeds bound 0"
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    for value in ("0", "-5"):
        with pytest.raises(SystemExit) as ex:
            main(["verify", g5, flag, value])
        assert ex.value.code == 2
        assert ("argument %s: must be at least 1, got %s\n" % (flag, value)
                in capsys.readouterr().err)


def test_parser_is_reused_across_calls(capsys, tmp_path):
    # one process runs a sequence of commands through the parser that the
    # first call built; each must print and exit as a fresh process does
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    out = tmp_path / "g30.json"
    commands = (["verify", "--kmax", "3", g5], ["verify", g5],
                ["count", "--ext", "2", g5], ["count", g5],
                ["quotients", "--json", g5], ["quotients", g5],
                ["construct", "--mode", "f2m", "30", "--out", str(out)],
                ["verify", "--kmax", "x", g5], ["--version"])
    env = dict(os.environ, PYTHONPATH=SRC)
    parsers = set()
    for argv in commands:
        try:
            rc = main(argv)
        except SystemExit as ex:
            rc = ex.code
        parsers.add(cli._PARSER)
        captured = capsys.readouterr()
        written = out.read_text() if "--out" in argv else None
        proc = subprocess.run([sys.executable, "-m", "sscurves.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert (captured.out, captured.err, rc) == (
            proc.stdout, proc.stderr, proc.returncode), argv
        if written is not None:
            assert out.read_text() == written
    assert len(parsers) == 1


def test_import_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import sscurves.cli\n"
            "print(len(built), sscurves.cli._PARSER)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0 None\n"), proc.stderr


def test_import_loads_neither_dataclasses_nor_inspect():
    # the value records are named tuples; dataclasses (and the inspect it
    # pulls in) would add tens of milliseconds to every command's start-up
    code = ("import sys\n"
            "sys.path.insert(0, %r)\n"
            "import sscurves.cli\n"
            "print(*sorted(sys.modules), sep='\\n')\n" % SRC)
    proc = subprocess.run([sys.executable, "-E", "-s", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "sscurves.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


HELP_COMMANDS = ("", "decompose", "construct", "quotients", "count", "lpoly",
                 "verify", "iso", "radical")


def test_help_text_is_pinned(capsys, monkeypatch):
    # argparse wraps to $COLUMNS, so a fixed width gives the same text on
    # every terminal; each block is one `sscurves [command] --help`
    monkeypatch.setenv("COLUMNS", "80")
    blocks = []
    for command in HELP_COMMANDS:
        argv = [command, "--help"] if command else ["--help"]
        with pytest.raises(SystemExit) as ex:
            main(argv)
        captured = capsys.readouterr()
        assert (ex.value.code, captured.err) == (0, "")
        blocks.append("== sscurves %s\n%s" % (" ".join(argv), captured.out))
    assert "".join(blocks) == golden("help.txt")

import json
import os
import subprocess
import sys
import time

import pytest

from sscurves.cli import main
from sscurves.limits import DEFAULT_LOG2_POINTS

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


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


def test_fixture_stability(capsys):
    for name, argv in (
            ("g221_f2.json", ["construct", "--mode", "f2", "221", "--json"]),
            ("g30_f2m_glued.json",
             ["construct", "--mode", "f2m", "--glue", "30", "--json"]),
    ):
        rc, out = run(capsys, *argv)
        assert rc == 0
        with open(os.path.join(FIXTURES, name)) as fh:
            assert out == fh.read(), name


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


def test_budget_env_override(capsys, monkeypatch):
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    monkeypatch.setenv("SSCURVES_BUDGET_LOG2", "8")
    rc, _ = run(capsys, "count", g5, "--ext", "12")
    assert rc == 3
    rc, _ = run(capsys, "count", g5, "--ext", "2")
    assert rc == 0


def test_budget_default(capsys, monkeypatch):
    # without flag or environment the limits default applies: a count over
    # F_2^24 fits, one over F_2^25 does not
    g5 = os.path.join(FIXTURES, "g5_f2.json")
    monkeypatch.delenv("SSCURVES_BUDGET_LOG2", raising=False)
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

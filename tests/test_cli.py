import json
import os
import subprocess
import sys
import time

import pytest

from sscurves import jsonio
from sscurves.cli import main
from sscurves.limits import DEFAULT_LOG2_POINTS

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_full(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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


def edited_fixture(tmp_path, name, edit):
    """A copy of a fixture with its document changed by edit(doc)."""
    with open(os.path.join(FIXTURES, name)) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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

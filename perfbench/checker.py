"""Output checks: why an op's result is wrong, or None when it is right.

Expected outputs of the unseeded ops were recorded once from the program
(record.py) into expected.json.  `construct`, `quotients`, `decompose`,
`count`, `radical` and `iso` outputs must match byte for byte.  A `verify`
report must keep its exit code, genus and every L-polynomial; its verdict,
overall and per piece, may only strengthen from "certified" to true.
Seeded ops have no recording and are checked by known properties instead.
"""

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def record(op, result):
    """The expected.json entry for an op's result."""
    if op.check == "verify":
        doc = json.loads(result["stdout"])
        return {"rc": result["rc"], "genus": doc["genus"],
                "supersingular": doc["supersingular"],
                "lpoly": doc.get("lpoly"),
                "pieces": {p["label"]: [p["genus"], p["supersingular"],
                                        p.get("lpoly")]
                           for p in doc["pieces"]}}
    return {"rc": result["rc"], "sha256": digest(result["stdout"]),
            "bytes": len(result["stdout"].encode())}


def _strengthens(got, want):
    return got == want or (want == "certified" and got is True)


def _check_verify(want, doc):
    if doc.get("genus") != want["genus"]:
        return "genus %r, expected %r" % (doc.get("genus"), want["genus"])
    if not _strengthens(doc.get("supersingular"), want["supersingular"]):
        return "verdict %r weakens %r" % (doc.get("supersingular"),
                                          want["supersingular"])
    if want["lpoly"] is not None and doc.get("lpoly") != want["lpoly"]:
        return "L-polynomial differs"
    pieces = {p.get("label"): p for p in doc.get("pieces", [])}
    for label, (genus, verdict, lpoly) in want["pieces"].items():
        p = pieces.get(label)
        if p is None:
            return "piece %s missing" % label
        if p.get("genus") != genus:
            return "piece %s genus differs" % label
        if not _strengthens(p.get("supersingular"), verdict):
            return "piece %s verdict weakens" % label
        if lpoly is not None and p.get("lpoly") != lpoly:
            return "piece %s L-polynomial differs" % label
    return None


def _rank(vectors):
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def _check_property(op, doc):
    if op.check == "member":
        lpoly = doc.get("lpoly") or []
        if doc.get("supersingular") is not True:
            return "member does not verify true"
        if doc.get("genus") != op.genus:
            return "member genus %r, expected %d" % (doc.get("genus"), op.genus)
        if len(lpoly) != 2 * op.genus + 1:
            return "L-polynomial degree %d, expected %d" % (len(lpoly) - 1,
                                                           2 * op.genus)
    elif op.check == "radical":
        basis = [int(b, 16) for b in doc.get("basis", [])]
        if len(basis) != 2 * op.h or _rank(basis) != 2 * op.h:
            return "radical dimension %d, expected %d" % (_rank(basis),
                                                         2 * op.h)
    elif op.check == "iso":
        if doc.get("isomorphic") is not True:
            return "scaling pair not found isomorphic"
    return None


def check(op, result, expected):
    """Reason the completed op's output is wrong, or None."""
    if op.check in ("member", "radical", "iso"):
        if result["rc"] != 0:
            return "exit code %r" % (result["rc"],)
        try:
            doc = json.loads(result["stdout"])
        except ValueError:
            return "output is not JSON"
        return _check_property(op, doc)
    want = expected.get(op.expect or op.id)
    if want is None:
        return "no recorded output"
    if result["rc"] != want["rc"]:
        return "exit code %r, expected %r" % (result["rc"], want["rc"])
    if op.check == "verify":
        try:
            doc = json.loads(result["stdout"])
        except ValueError:
            return "output is not JSON"
        return _check_verify(want, doc)
    if digest(result["stdout"]) != want["sha256"]:
        return "output differs from the recording (%d bytes, expected %d)" % (
            len(result["stdout"].encode()), want["bytes"])
    return None

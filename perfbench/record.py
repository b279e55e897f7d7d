"""Record the expected outputs of the unseeded ops into expected.json.

    python3 perfbench/record.py [ID_PREFIX ...]

Runs the curve-file constructions and every op whose output is checked
against a recording (all but the seeded ones) once, with no wall cap, and
writes their expected.json entries; with prefixes only matching ops are
recorded and merged into the existing file.  The capacity probes run to
completion here, which takes several minutes.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run as bench

NO_CAP_S = 3600.0


def main(prefixes):
    try:
        expected = bench.checker.load_expected()
    except FileNotFoundError:
        expected = {}
    (bench.HERE / "_work").mkdir(exist_ok=True)
    for workload in bench.ops_mod.WORKLOADS.values():
        inputs = [dataclasses.replace(op, cap=NO_CAP_S)
                  for op in bench.input_ops(workload)]
        todo = [dataclasses.replace(op, cap=NO_CAP_S)
                for op in inputs + list(workload.ops)
                if op.check in ("bytes", "verify") and not op.expect
                and (not prefixes or op.id.startswith(tuple(prefixes)))]
        if not todo:
            continue
        with tempfile.TemporaryDirectory(dir=bench.HERE / "_work") as tmp:
            run = bench.Run(0, Path(tmp), expected={},
                            limit=(len(todo) + len(inputs)) * NO_CAP_S)
            try:
                run.run_pass(inputs)
                result = run.run_pass(todo)
            finally:
                run.close()
        for op, res in zip(todo, result["results"]):
            print("%-40s rc %r  %.2f s" % (op.id, res["rc"], res["seconds"]),
                  flush=True)
            expected[op.id] = bench.checker.record(op, res)
    with open(bench.checker.EXPECTED_PATH, "w") as fh:
        json.dump(dict(sorted(expected.items())), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])

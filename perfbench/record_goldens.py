"""Record goldens.json from the clpartitions in src/.

Usage (from the repository root): python3 perfbench/record_goldens.py

Runs every call of workloads.golden_calls() once, in a fresh process
each, and refuses to write anything if an output is not a clean pass: a
non-zero exit code, a report not passing, or series whose middle and rhs
routes differ.  Record only from a commit whose results are trusted.
"""

from __future__ import annotations

import json
import os
import sys

import run
import gate
from workloads import golden_calls


def main() -> int:
    goldens: dict[str, dict] = {"reports": {}, "count": {}, "series": {}, "stream": {}}
    coefficients = {}
    for call in golden_calls():
        result = run.run_child(call, False, run._now() + 600)
        if "error" in result or result["exit_code"] != 0:
            print(f"{call.key}: {result.get('error') or result['exit_code']}", file=sys.stderr)
            return 1
        parsed = json.loads(result["stdout"])
        if call.kind == "reports" and any(r["status"] != "pass" for r in parsed):
            print(f"{call.key}: a report does not pass", file=sys.stderr)
            return 1
        if call.kind == "series":
            eq, route = call.args[1].split("-", 1)
            coefficients.setdefault((eq, call.args[2:]), {})[route] = parsed["coefficients"]
        goldens[call.kind][call.key] = gate.golden_of(call.kind, parsed)
        print(f"{call.key}: {result['verdict_s']:.2f} s", file=sys.stderr)
    for key, routes in coefficients.items():
        if routes["middle"] != routes["rhs"]:
            print(f"{key}: middle and rhs differ", file=sys.stderr)
            return 1
    with open(os.path.join(run.HERE, "goldens.json"), "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

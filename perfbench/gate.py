"""Correctness gate: checks each CLI output against goldens.json.

Reports are matched on content (parameters, status, kind and detail),
never on check names, so renaming a check does not count as a wrong
answer.  A call passes when all of these hold:

* exit code 0 and valid JSON output;
* ``reports``: every report has status ``pass``, there are at least as
  many reports as recorded, and every recorded report's content appears;
* ``count``: the count equals the recorded count;
* ``series``: every coefficient matches its recorded digest, and within a
  round the middle and rhs routes print identical coefficients;
* ``stream``: the digest of the sample stream equals the recorded one.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_content(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "check"}, sort_keys=True)


def stream_digest(parsed) -> str:
    return digest(json.dumps(parsed, separators=(",", ":")))


def coefficient_digests(parsed: dict) -> list[str]:
    return [digest(c)[:16] for c in parsed["coefficients"]]


def golden_of(kind: str, parsed):
    """The value goldens.json records for a correct output."""
    if kind == "reports":
        return sorted(report_content(r) for r in parsed)
    if kind == "count":
        return parsed["count"]
    if kind == "series":
        return coefficient_digests(parsed)
    if kind == "stream":
        return stream_digest(parsed)
    raise ValueError(f"unknown output kind {kind!r}")


def check_call(call, exit_code, stdout: str, goldens: dict) -> list[str]:
    """Problems with one call's output; empty when it passes."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        parsed = json.loads(stdout)
    except ValueError:
        return problems + ["output is not JSON"]
    want = goldens.get(call.kind, {}).get(call.key)
    if want is None:
        return problems + [f"no golden for {call.key!r}"]
    try:
        if call.kind == "reports":
            failing = [r.get("check") for r in parsed if r.get("status") != "pass"]
            if failing:
                problems.append(f"reports not passing: {failing}")
            if len(parsed) < len(want):
                problems.append(f"{len(parsed)} reports, recorded {len(want)}")
            missing = Counter(want) - Counter(report_content(r) for r in parsed)
            if missing:
                problems.append(f"recorded report missing: {next(iter(missing))}")
        elif call.kind == "series":
            got = coefficient_digests(parsed)
            bad = [k for k in range(max(len(got), len(want))) if got[k:k + 1] != want[k:k + 1]]
            if bad:
                problems.append(f"coefficient of u^{bad[0]} differs from golden")
        elif golden_of(call.kind, parsed) != want:
            problems.append(f"{call.kind} differs from golden")
    except (AttributeError, KeyError, TypeError) as exc:
        problems.append(f"unexpected output shape: {exc!r}")
    return problems


def check_round(calls, outputs, goldens: dict) -> list[list[str]]:
    """Problems per call of one round; *outputs* holds (exit_code, stdout)
    per call, or None where the process produced no result."""
    problems = []
    for call, out in zip(calls, outputs):
        if out is None:
            problems.append(["process produced no result"])
        else:
            problems.append(check_call(call, out[0], out[1], goldens))
    routes = {}
    for i, call in enumerate(calls):
        if call.kind == "series" and outputs[i] is not None:
            eq, route = call.args[1].split("-", 1)
            routes.setdefault((eq, call.args[2:]), {})[route] = i
    for pair in routes.values():
        if set(pair) == {"middle", "rhs"}:
            mid, rhs = pair["middle"], pair["rhs"]
            try:
                same = json.loads(outputs[mid][1])["coefficients"] == json.loads(
                    outputs[rhs][1]
                )["coefficients"]
            except (ValueError, KeyError, TypeError):
                same = False
            if not same:
                problems[mid].append("middle and rhs coefficients differ")
    return problems

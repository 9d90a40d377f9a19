"""clpartitions benchmark: time-to-verdict, set-up time and memory of CLI calls.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI call runs in its own fresh single-threaded process (see
child.py), one at a time, against the package in ``src/``.  With
``--trace 0`` the benchmark repeats rounds of the workload for about S
seconds and reports the end-to-end metrics; with ``--trace 1`` it runs
one untraced round and two traced rounds and reports the per-layer
metrics.  Every output is checked by gate.py.  The full record
(environment, raw samples, per-layer detail) is printed on the line
before the result and written under ``.perfbench/``.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
from workloads import WORKLOADS, cli_seed  # noqa: E402

RUN_LIMIT_S = 170.0  # every process is stopped before this much wall time
SETUP_SPAWNS = 5  # import-only processes before each round and at the end
COVERAGE_TOLERANCE_S = 1e-3  # per call: root span vs the child's own timing
CPUS = sorted(os.sched_getaffinity(0))
LAYERS = ("oracle", "partitions", "series", "verify", "sampler", "cli")
EXACT_COUNTERS = (
    "oracle.matrices",
    "oracle.matmul_calls",
    "partitions.terms",
    "partitions.aut_order_calls",
    "sampler.draws",
    "sampler.kernel_rows",
) + tuple(f"{layer}.calls" for layer in LAYERS)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(
    call, traced: bool, deadline: float, spans_path: str | None = None, cpu: int | None = None
) -> dict:
    """Run one CLI call (or, with call=None, only the import) in a fresh process,
    pinned to *cpu* when given.

    Returns {"setup_s", "verdict_s", "rss_mib", "exit_code", "stdout",
    "trace"} or {"error": message}.
    """
    cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"), "--trace", str(int(traced))]
    if spans_path:
        cmd += ["--spans", spans_path]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    cmd += ["--", *(call.argv if call else [])]
    spawned = _now()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    try:
        out = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = {
        "setup_s": out["ready"] - spawned,
        "rss_mib": out["maxrss_kib"] / 1024,
    }
    if call is not None:
        result.update(
            verdict_s=out["end"] - out["start"],
            cpu_s=out["cpu_s"],
            exit_code=out["exit_code"],
            stdout=out["stdout"],
            trace=out.get("trace"),
        )
    return result


def run_round(
    calls, traced: bool, deadline: float, goldens: dict, spans_prefix=None, first_cpu=0
) -> dict:
    """Run every call of a round, one process each; gate the outputs.

    Successive calls go to successive CPUs, starting at *first_cpu*: the
    CPUs of a shared box slow down in phases that are not correlated, so
    spreading the calls over them averages the phases out.
    """
    results = []
    started = _now()
    for i, call in enumerate(calls):
        spans = f"{spans_prefix}-call{i}.json" if spans_prefix else None
        cpu = CPUS[(first_cpu + i) % len(CPUS)]
        results.append(run_child(call, traced, deadline, spans, cpu))
        if "error" in results[-1] or _now() >= deadline:
            break
    wall = _now() - started
    outputs = [
        (r["exit_code"], r["stdout"]) if "exit_code" in r else None for r in results
    ]
    outputs += [None] * (len(calls) - len(outputs))
    problems = gate.check_round(calls, outputs, goldens)
    ok = [r for r in results if "error" not in r]
    return {
        "wall_s": wall,
        "verdict_s": sum(r["verdict_s"] for r in ok),
        "cpu_s": sum(r["cpu_s"] for r in ok),
        "setup_s": [r["setup_s"] for r in ok],
        "rss_mib": max((r["rss_mib"] for r in ok), default=0.0),
        "traces": [r["trace"] for r in ok if r.get("trace")],
        "reports": sum(
            len(json.loads(o[1])) for c, o, p in zip(calls, outputs, problems)
            if c.kind == "reports" and not p
        ),
        "problems": [
            {"call": c.key, "problems": p} for c, p in zip(calls, problems) if p
        ],
        "checked": len(calls),
        "failed": sum(1 for p in problems if p),
        "complete": len(ok) == len(calls),
    }


def environment() -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def merge_traces(traces: list[dict]) -> dict:
    """Sum the per-call trace summaries of one round."""
    totals = ("root_s", "untracked_s", "spans")
    tables = ("self_s", "calls", "groups_s", "counters", "work", "time_by_args_s")
    merged = {key: 0 for key in totals} | {key: {} for key in tables}
    for t in traces:
        for key in totals:
            merged[key] += t[key]
        for key in tables:
            for name, value in t[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def layer_metrics(trace: dict, reports: int) -> dict:
    """Per-layer metric values of one traced round."""
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = trace["self_s"].get(layer, 0.0)
        values[f"{layer}.calls"] = trace["calls"].get(layer, 0)
    values.update(trace["groups_s"])
    values.update(trace["counters"])
    values.update(trace["work"])
    values["verify.reports"] = reports
    values["trace.untracked_s"] = trace["untracked_s"]
    values["trace.root_s"] = trace["root_s"]
    return values


def accounting_residual(trace: dict) -> float:
    """root − (Σ layer self times + untracked).

    Zero up to rounding by construction (untracked is the root span's own
    self time), so it only guards the bookkeeping of the summary; whether
    the root span covers the call is checked by coverage_gap.
    """
    return trace["root_s"] - (sum(trace["self_s"].values()) + trace["untracked_s"])


def coverage_gap(trace: dict, verdict_s: float) -> float:
    """verdict_s − root span, both summed over a round's calls.

    verdict_s is taken by the child around the call on its own clock,
    apart from the tracer, so a tracer that loses or double counts time
    shows here.
    """
    return verdict_s - trace["root_s"]


def import_only(count: int, deadline: float) -> list[float]:
    """Set-up samples from *count* import-only processes, spread over the CPUs."""
    samples = []
    for i in range(count):
        r = run_child(None, False, deadline, cpu=CPUS[i % len(CPUS)])
        if "error" in r:
            raise RuntimeError(f"import-only process failed: {r['error']}")
        samples.append(r["setup_s"])
    return samples


def measure(workload, seed: int, seconds: int, goldens: dict, deadline: float) -> dict:
    """Untraced rounds until *seconds* have passed; returns the end-to-end record.

    Slowdowns on a shared box come in phases of tens of seconds rather
    than as single outliers, so verdict_s is the mean over the run's
    rounds (all of the measured time), and the set-up samples are taken
    between the rounds rather than in one burst.  The first round's CPU
    follows the seed, so successive runs start on different CPUs.
    """
    calls = workload.round(seed)
    setups = []
    rounds = []
    begin = _now()
    while not rounds or _now() - begin < seconds:
        setups += import_only(SETUP_SPAWNS, deadline)
        rounds.append(
            run_round(calls, False, deadline, goldens, first_cpu=seed + len(rounds))
        )
        if not rounds[-1]["complete"]:
            break
    setups += import_only(SETUP_SPAWNS, deadline)
    gates = [run_round([c], False, deadline, goldens) for c in workload.gate_calls(seed)]
    for r in rounds:
        setups += r["setup_s"]
    verdicts = [r["verdict_s"] for r in rounds]
    verdict = statistics.fmean(verdicts)
    return {
        "rounds": rounds,
        "gates": gates,
        "metrics": {
            "verdict_s": verdict,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(r["rss_mib"] for r in rounds),
        },
        "samples": {
            "verdict_s": verdicts,
            "round_wall_s": [r["wall_s"] for r in rounds],
            "verdict_cpu_s": [r["cpu_s"] for r in rounds],
            "peak_rss_mib": [r["rss_mib"] for r in rounds],
            "setup_s": setups,
        },
        "verdict_s": {
            "mean": verdict,
            "median": statistics.median(verdicts),
            "n": len(verdicts),
        },
        f"{workload.work_unit}_per_s": workload.work_per_round / verdict,
    }


def traced(workload, seed: int, goldens: dict, deadline: float, spans_prefix: str) -> dict:
    """One untraced round, then two traced rounds; returns the per-layer record."""
    calls = workload.round(seed)
    untraced = run_round(calls, False, deadline, goldens)
    rounds = [untraced]
    if untraced["complete"]:
        rounds.append(run_round(calls, True, deadline, goldens, spans_prefix, seed))
    if rounds[-1]["complete"]:
        rounds.append(run_round(calls, True, deadline, goldens, first_cpu=seed + 1))
    gates = [run_round([c], False, deadline, goldens) for c in workload.gate_calls(seed)]
    checks = []
    per_round = []
    for r in rounds[1:]:
        trace = merge_traces(r["traces"])
        per_round.append(
            {"values": layer_metrics(trace, r["reports"]), "trace": trace,
             "accounting_residual_s": accounting_residual(trace),
             "coverage_gap_s": coverage_gap(trace, r["verdict_s"]),
             "calls": len(r["traces"])}
        )
    if len(per_round) == 2:
        a, b = (p["values"] for p in per_round)
        differing = [k for k in EXACT_COUNTERS if a[k] != b[k]]
        if differing:
            checks.append(f"counters differ between traced rounds: {differing}")
        for p in per_round:
            if abs(p["accounting_residual_s"]) > 1e-6:
                checks.append(f"self times miss the root span by {p['accounting_residual_s']}")
            if abs(p["coverage_gap_s"]) > COVERAGE_TOLERANCE_S * p["calls"]:
                checks.append(f"root spans miss the timed calls by {p['coverage_gap_s']}")
        metrics = {}
        for key, value in a.items():
            if isinstance(value, float):
                value = statistics.median([value, b[key]])
            metrics[key] = value
        traced_verdict = statistics.median(r["verdict_s"] for r in rounds[1:])
        metrics["trace.overhead_frac"] = (
            traced_verdict - untraced["verdict_s"]
        ) / untraced["verdict_s"]
    else:
        checks.append("traced rounds did not complete")
        metrics = {}
    return {"rounds": rounds, "gates": gates, "metrics": metrics, "checks": checks,
            "layers": per_round}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = _now()
    deadline = started + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "clpartitions", "cli.py")):
        print("src/clpartitions not found: run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "goldens.json")) as fh:
        goldens = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    if args.trace:
        body = traced(workload, args.seed, goldens, deadline, os.path.join(out_dir, f"{stamp}-spans"))
        wanted = spec["per_layer"]
    else:
        body = measure(workload, args.seed, args.seconds, goldens, deadline)
        wanted = spec["end_to_end"]
    env["loadavg_after"] = os.getloadavg()

    all_rounds = body["rounds"] + body["gates"]
    attempted = sum(r["checked"] for r in all_rounds)
    failed = sum(r["failed"] for r in all_rounds)
    checks = body.get("checks", [])
    missing = [m["name"] for m in wanted if m["name"] not in body["metrics"]]
    if missing:
        checks.append(f"metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": body["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in body["metrics"]
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "cli_seed": cli_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": [p for r in all_rounds for p in r["problems"]][:20],
        "checks": checks,
        "metrics": metrics,
        "wall_s": _now() - started,
    }
    for key, value in body.items():
        if key not in ("rounds", "gates", "metrics", "checks"):
            record[key] = value
    with open(os.path.join(out_dir, f"{stamp}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    result = {
        "correct": failed == 0 and not checks and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

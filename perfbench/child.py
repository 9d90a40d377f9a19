"""One benchmark process: import clpartitions, run one CLI call, report.

Usage: python3 -I perfbench/child.py --trace 0|1 [--cpu N] [--spans FILE] -- <clpartitions args>

With no CLI arguments the process only imports the package (a set-up
sample).  ``--cpu N`` pins the process to CPU N before anything else.
The last line of standard output is one JSON object with the
monotonic-clock instants the parent needs: ``ready`` (package imported),
``start`` and ``end`` (around the CLI call), the CLI's exit code and
captured output, the process's peak RSS and, when traced, the per-layer
summary.  The clock is CLOCK_MONOTONIC, which the parent shares.
"""

import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    import os

    argv = sys.argv[1:]
    if "--cpu" in argv:
        os.sched_setaffinity(0, {int(argv[argv.index("--cpu") + 1])})
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path[:0] = [src, here]
    from clpartitions import cli

    ready = _now()
    import contextlib
    import io
    import json
    import resource

    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1 :]
    traced = opts[opts.index("--trace") + 1] == "1"
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"clpartitions imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    result = {"ready": ready}
    if cli_args:
        tracer = None
        if traced:
            import clpartitions
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(clpartitions)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cpu_start = time.process_time()
            start = _now()
            if tracer is None:
                code = cli.main(cli_args)
            else:
                code = tracer.run_root(cli.main, cli_args)
            end = _now()
            cpu = time.process_time() - cpu_start
        result.update(
            start=start, end=end, cpu_s=cpu, exit_code=code, stdout=out.getvalue()
        )
        if tracer is not None:
            result["trace"] = tracer.summary()
            if spans_path:
                tracer.write_spans(spans_path)
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

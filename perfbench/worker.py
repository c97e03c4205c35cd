"""One measured pass, or one set-up probe, in a fresh interpreter.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py pass WORKLOAD SEED [TRACE_FILE]

`setup` times `import poolregions` plus the first parser build and prints
the seconds and the CPU speed sampled right after.  `pass` runs the workload's query list once through
`poolregions.cli.main(argv)` in this process, with stdout captured, checks
every answer, and prints one JSON line with per-query latencies, the
process's peak RSS and the CPU speed sampled during the pass (see
speedprobe.py; the probe's own time is left out of the latencies).  With
TRACE_FILE the public functions of every module are wrapped first (see
layertrace.py) and the per-layer tally is written there.

`src` must be on PYTHONPATH.  The worker never changes interpreter-global
state that the package reads, such as the integer string-conversion limit:
answers that hit it count as failed queries.  Its one global change is the
speed probe's SIGALRM timer, and the package uses no signals.  Imports stay
inside the functions, so that a set-up probe starts from a bare interpreter.
"""

import sys
import time


def setup_probe():
    t0 = time.perf_counter()
    from poolregions import cli

    cli.build_parser()
    elapsed = time.perf_counter() - t0
    import speedprobe

    print(repr(elapsed), repr(speedprobe.sample_speed()))


def run_pass(workload, seed, trace_file=None):
    import contextlib
    import io
    import json
    import os
    import resource

    import queries
    import speedprobe
    from poolregions import cli

    with open(os.path.join(os.path.dirname(__file__), "expected.json")) as f:
        expected = json.load(f)
    qs = queries.queries(workload, seed)
    tracer = None
    probe = speedprobe.SpeedProbe()
    if trace_file:
        import layertrace

        # the tracer's clock stops while the probe runs
        tracer = layertrace.Tracer(lambda: time.perf_counter() - probe.spent_s)
        tracer.install()
    probe.start()

    records = []
    for argv in qs:
        buf = io.StringIO()
        probed0 = probe.spent_s
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            # an uncaught exception ends the CLI with exit status 1
            code = 1
            sys.stderr.write(f"query {queries.key(argv)!r} raised {type(exc).__name__}: {exc}\n")
        latency = time.perf_counter() - t0 - (probe.spent_s - probed0)
        out = buf.getvalue()
        rec = {
            "argv": argv,
            "latency_s": latency,
            "exit": code,
            "ok": queries.check(argv, code, out, expected),
        }
        if queries.reports_faces(argv):
            rec["faces"] = queries.faces_reported(argv, out) if rec["ok"] else 0
        records.append(rec)
    probe.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.write(trace_file, workload, seed, records, probe.speed())
    print(json.dumps({"queries": records, "peak_rss_mb": rss_mb, "speed": probe.speed()}))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup_probe()
    else:
        run_pass(sys.argv[2], int(sys.argv[3]), sys.argv[4] if len(sys.argv) > 4 else None)

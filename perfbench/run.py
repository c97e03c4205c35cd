"""Benchmark of the poolregions CLI, with every answer checked.

    python3 perfbench/run.py --workload {enumerate,algebra,verify} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it imports the package from `src`.  Each
pass runs the workload's whole query list once, in a fresh interpreter
(worker.py), so nothing persists between passes.

--trace 0  runs passes until S seconds have gone and at least MIN_PASSES
           passes are done, and reports the medians over passes of the
           end-to-end metrics.  `setup_s` is the median of fresh set-up
           probes run between the passes.  Timings are scaled to a
           reference CPU speed, sampled while they run (speedprobe.py).
--trace 1  runs one untraced and one traced pass and reports the per-layer
           metrics, scaled in the same way; the traced pass writes its full
           (unscaled) tally to perfbench/out/trace-WORKLOAD-seedN.json.

The metrics reported are the ones BENCHMARK.json lists.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A query fails when it exits nonzero, raises, or prints a wrong answer.
`correct` is false when any query fails, except the known defect
(`queries.DEFECT`) failing with a nonzero exit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 4  # before each pass and after the last
MIN_PASSES = 2
RUN_LIMIT_S = 170  # no pass starts that would end later; a run must end within 180 s

sys.path.insert(0, HERE)
import queries  # noqa: E402
from layertrace import MODULES, WORK  # noqa: E402


class Worker:
    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, self.env.get("PYTHONPATH")]))
        # the warm-up probe writes the package's bytecode, so that set-up is
        # timed as for an installed package whatever the caller's setting
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def __call__(self, *args):
        """Run worker.py in a fresh interpreter and return its last stdout line."""
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
            env=self.env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {args} exited with status {proc.returncode}")
        return proc.stdout.splitlines()[-1]


def _wall(p):
    return sum(q["latency_s"] for q in p["queries"])


def _tail(latencies):
    """(value, percentile, samples beyond) of the highest percentile with >= 10 beyond."""
    if len(latencies) < 11:
        return None
    ordered = sorted(latencies)
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def end_to_end(passes, probes):
    """End-to-end metrics: medians over passes, each pass in its own process.

    Timings are in reference-CPU seconds: each pass's latencies, and each
    set-up probe, are scaled by the CPU speed sampled with them (see
    speedprobe.py).  `wall_raw_s` and `setup_raw_s` are the measured ones.
    """
    walls, raw_walls, p50s, tails, fps = [], [], [], [], []
    for p in passes:
        lat = [q["latency_s"] * p["speed"] for q in p["queries"]]
        walls.append(sum(lat))
        raw_walls.append(_wall(p))
        p50s.append(statistics.median(lat))
        tail = _tail(lat)
        if tail:
            tails.append(tail)
        face_qs = [q for q in p["queries"] if "faces" in q]
        if face_qs:
            face_s = sum(q["latency_s"] for q in face_qs) * p["speed"]
            fps.append(sum(q["faces"] for q in face_qs) / face_s)
    attempted = sum(len(p["queries"]) for p in passes)
    failed = sum(not q["ok"] for p in passes for q in p["queries"])
    metrics = {
        "setup_s": (statistics.median(raw * speed for raw, speed in probes), "s"),
        "setup_raw_s": (statistics.median(raw for raw, _ in probes), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "wall_raw_s": (statistics.median(raw_walls), "s"),
        "query_p50_s": (statistics.median(p50s), "s"),
        "peak_rss_mb": (statistics.median([p["peak_rss_mb"] for p in passes]), "MB"),
        "ops_failed_frac": (failed / attempted, "frac"),
    }
    if tails:
        metrics["query_tail_s"] = (statistics.median([t[0] for t in tails]), "s")
        pct, beyond = tails[0][1], tails[0][2]
        metrics["query_tail_s"] += (f"p{pct:.2f} of {len(passes[0]['queries'])} queries, {beyond} beyond",)
    if fps:
        metrics["faces_per_s"] = (statistics.median(fps), "1/s")
    return metrics


def per_layer(trace, traced, untraced):
    """Per-layer metrics from a traced pass's tally.

    Times are scaled to the reference CPU by the speed sampled during the
    traced pass, as end_to_end scales its timings.
    """
    speed = traced["speed"]
    metrics = {}
    for name, st in trace["functions"].items():
        metrics[f"{name}.calls"] = (st["calls"], "count")
        metrics[f"{name}.self_s"] = (st["self_s"] * speed, "s")
        if name in WORK:
            counter = WORK[name][0]
            metrics[f"{name}.{counter}"] = (st[counter], "count")
    for name, unit in (("enumerate_faces", "face"), ("enumerate_vertices", "vertex"),
                       ("sample_regions", "trial")):
        st = trace["functions"][f"oracle.{name}"]
        work = st[WORK[f"oracle.{name}"][0]]
        metrics[f"oracle.{name}.us_per_{unit}"] = (1e6 * st["self_s"] * speed / work if work else 0.0, "us")
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = (trace["modules_self_s"][mod] * speed, "s")
    for name, seconds in trace["verify_checks_s"].items():
        metrics[f"verify.check.{name}_s"] = (seconds * speed, "s")
    traced_wall = _wall(traced) * speed
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - _wall(untraced) * untraced["speed"], "s")
    return metrics


def _more_passes(done, elapsed, seconds, last):
    """Whether to start another pass.

    Passes run until `seconds` have gone and MIN_PASSES are done, but a pass
    beyond the first starts only if it can end by RUN_LIMIT_S, judged by the
    length of the last one.  So a program several times slower still gets a
    result line, from fewer passes, instead of running past the limit.
    """
    if done == 0:
        return True
    if elapsed + last > RUN_LIMIT_S:
        return False
    return done < MIN_PASSES or elapsed < seconds


def _known_defect(q):
    """The one failure that keeps a run correct: the known defect exiting nonzero.

    A wrong answer from the defect query that exits 0 is still incorrect.
    """
    return q["argv"] == queries.DEFECT and q["exit"] != 0


def _setup_probe(worker):
    """(seconds, CPU speed) of one set-up probe in a fresh interpreter."""
    seconds, speed = worker("setup").split()
    return float(seconds), float(speed)


def _pass(worker, workload, seed, *trace_file):
    return json.loads(worker("pass", workload, seed, *trace_file))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=queries.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "poolregions", "cli.py")):
        sys.exit(f"no poolregions sources under {SRC}; run from a repository checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    worker = Worker()

    if args.trace:
        untraced = _pass(worker, args.workload, args.seed)
        trace_file = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        traced = _pass(worker, args.workload, args.seed, trace_file)
        with open(trace_file) as f:
            trace = json.load(f)
        metrics = per_layer(trace, traced, untraced)
        passes, wanted = [untraced, traced], spec["per_layer"]
    else:
        worker("setup")  # warm-up: compiles bytecode on a fresh checkout
        probes, passes, last = [], [], 0.0
        start = time.monotonic()
        # set-up probes are spread between the passes, so that the median
        # samples the machine over the whole run and not over one instant
        while _more_passes(len(passes), time.monotonic() - start, args.seconds, last):
            t0 = time.monotonic()
            probes += [_setup_probe(worker) for _ in range(SETUP_PROBES)]
            passes.append(_pass(worker, args.workload, args.seed))
            last = time.monotonic() - t0
        probes += [_setup_probe(worker) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(passes, probes)
        wanted = spec["end_to_end"]

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} pass(es), "
          f"{len(passes[0]['queries'])} queries per pass")
    for name, (value, unit, *note) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note[0]})" if note else ""))
    for p in passes:
        for q in p["queries"]:
            if not q["ok"]:
                print(f"  FAILED (exit {q['exit']}): {queries.key(q['argv'])}")
    for m in wanted:
        if metrics[m["name"]][1] != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {metrics[m['name']][1]}, not {m['unit']}")
    all_queries = [q for p in passes for q in p["queries"]]
    result = {
        "correct": all(q["ok"] or _known_defect(q) for q in all_queries),
        "attempted": len(all_queries),
        "failed": sum(not q["ok"] for q in all_queries),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Benchmark a change against a parent commit in alternating pairs.

    python3 tools/bench_pairs.py --parent REF --label NAME \\
        --claim WORKLOAD METRIC --seeds 71-80 --out BENCH_NAME.json \\
        [--trace-functions NAME ...]

Run it from the repository root.  The parent ref and the working tree's
tracked files (as `git stash create` records them, so staged and unstaged
edits count and untracked files do not) are each exported with
`git archive` into a temporary directory.  For every workload and seed,
`perfbench/run.py --trace 0` runs once on each side for the run length
`BENCHMARK.json` sets, the parent first on odd seeds and the change first
on even ones, and the end-to-end metrics that `BENCHMARK.json` lists are
read from each run's last stdout line.  The unscaled `wall_raw_s` and
`setup_raw_s` that `run.py` prints above that line are kept too, in an
`unscaled` block per workload with the same summary, outside the claim
rule: a change that loads a second CPU moves the speed probe's reading,
and these show the timings as measured.
With --trace-functions, one `--trace 1` run of seed 1 on each side adds
the calls, unscaled self seconds and work counters of the named functions
(or the self seconds of a named module) from its trace file; a name that
one side does not define is left out of that side.

The output keeps the schema of the committed BENCH_*.json files: per-seed
lists, medians, inclusive quartiles, the pairs the change wins, and the
claim rule: the change is better in at least 9 of 10 pairs and the medians
differ by more than the parent's interquartile range.  Needs only the
standard library and git.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9  # the change must win at least 9 of every 10 pairs
UNSCALED = ("wall_raw_s", "setup_raw_s")  # printed by run.py, not in its result line


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def export(treeish, dest):
    """Write the files of `treeish` into `dest` with git archive."""
    archive = subprocess.run(["git", "archive", treeish], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run(tree, workload, seed, seconds, trace=0):
    """The result line of one perfbench run in `tree`, with its printed unscaled timings."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    printed = dict(re.findall(r"^\s+(\w+) = (\S+) ", proc.stdout, re.MULTILINE))
    result["unscaled"] = {name: float(printed[name]) for name in UNSCALED if name in printed}
    return result


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def summarize(seeds, parent, change, better):
    """Per-seed lists and the summary statistics of one metric."""
    wins = sum(1 for p, c in zip(parent, change) if (c < p if better == "lower" else c > p))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "seeds": seeds,
        "parent": [round(v, 4) for v in parent],
        "change": [round(v, 4) for v in change],
        "parent_median": round(p_med, 4),
        "parent_quartiles": quartiles(parent),
        "change_median": round(c_med, 4),
        "change_quartiles": quartiles(change),
        "change_better_pairs": wins,
        "median_change": f"{100 * (c_med - p_med) / p_med:+.1f}%" if p_med else "n/a",
    }


def claim_met(stats, better):
    """The claim rule on one metric's summary: (met, median gain, parent spread)."""
    pairs = len(stats["seeds"])
    spread = stats["parent_quartiles"][1] - stats["parent_quartiles"][0]
    gap = stats["change_median"] - stats["parent_median"]
    if better == "lower":
        gap = -gap
    return stats["change_better_pairs"] >= WIN_SHARE * pairs and gap > spread, gap, spread


def trace_numbers(tree, workload, names):
    """Calls, unscaled self seconds and work of the named functions in a seed-1 trace."""
    result = run(tree, workload, 1, 5, trace=1)
    with open(os.path.join(tree, "perfbench", "out", f"trace-{workload}-seed1.json")) as f:
        trace = json.load(f)
    out = {}
    for name in names:
        if name in trace["functions"]:
            for key, value in trace["functions"][name].items():
                out[f"{name}.{key}"] = round(value, 4)
        elif name in trace["modules_self_s"]:
            out[f"{name}.self_s"] = round(trace["modules_self_s"][name], 4)
    out["correct"], out["failed"] = result["correct"], result["failed"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--label", required=True)
    ap.add_argument("--claim", nargs=2, required=True, metavar=("WORKLOAD", "METRIC"))
    ap.add_argument("--seeds", required=True, help="a seed or a range such as 71-80")
    ap.add_argument("--trace-functions", nargs="*", default=[])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    parent_rev = _git("rev-parse", "--short", args.parent)
    change_tree = _git("stash", "create") or "HEAD"

    report = {
        "label": args.label,
        "what": (f"perfbench/run.py --trace 0; parent commit {parent_rev} and this change in "
                 f"alternating pairs (odd seeds parent first), each side from its own git archive "
                 f"of the tracked files; seeds {args.seeds} on {', '.join(workloads)}. "
                 f"The claim is {args.claim[1]} on {args.claim[0]}."),
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        "script": "tools/bench_pairs.py",
        "environment": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "timings": "scaled to the reference CPU speed of perfbench/speedprobe.py",
        },
    }
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as change_dir:
        export(args.parent, parent_dir)
        export(change_tree, change_dir)
        trees = {"parent": parent_dir, "change": change_dir}
        results = {}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    runs[side].append(run(trees[side], workload, seed, seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{runs[side][-1]['metrics'][args.claim[1]]['value']:.4f}", file=sys.stderr)
            entry = {}
            for name, better in metrics.items():
                values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
                entry[name] = summarize(seeds, values["parent"], values["change"], better)
            entry["unscaled"] = {}
            for name in UNSCALED:
                values = {side: [r["unscaled"][name] for r in runs[side]] for side in runs}
                entry["unscaled"][name] = summarize(seeds, values["parent"], values["change"], "lower")
            entry["failed_queries"] = {side: [r["failed"] for r in runs[side]] for side in runs}
            entry["attempted_queries"] = {side: [r["attempted"] for r in runs[side]] for side in runs}
            entry["correct"] = {side: all(r["correct"] for r in runs[side]) for side in runs}
            results[workload] = entry
        stats = results[args.claim[0]][args.claim[1]]
        met, gap, spread = claim_met(stats, metrics[args.claim[1]])
        report["claim"] = {
            "workload": args.claim[0],
            "metric": args.claim[1],
            "rule": "change better in >= 9 of 10 pairs and medians apart by more than the parent's interquartile range",
            "change_better_pairs": f"{stats['change_better_pairs']} of {len(seeds)}",
            "median_difference": round(gap, 4),
            "parent_quartile_spread": round(spread, 4),
            "met": met,
        }
        report["workloads"] = results
        if args.trace_functions:
            report["trace_seed1"] = {
                "command": "python3 perfbench/run.py --workload W --seed 1 --seconds 5 --trace 1",
                "note": "calls, work counters and unscaled self seconds from perfbench/out/trace-W-seed1.json",
            }
            for workload in workloads:
                report["trace_seed1"][workload] = {
                    side: trace_numbers(trees[side], workload, args.trace_functions) for side in trees
                }
    with open(os.path.join(ROOT, args.out), "w") as f:
        f.write(json.dumps(report, indent=1) + "\n")
    return 0 if met else 1


if __name__ == "__main__":
    sys.exit(main())

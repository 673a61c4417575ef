"""Check that a set of benchmark runs is steady and that two sets agree.

    python3 perfbench/agree.py run --workload session_54 --seeds 1-10 --out a.jsonl
    python3 perfbench/agree.py compare a.jsonl [b.jsonl]

``run`` starts ``run.py`` once per seed, one after another, and appends each
result line (with its workload and seed) to ``--out``.  ``compare`` prints,
for every workload and end-to-end metric, the median and the spread: the
distance between the first and third quartiles as a share of the median.
A set fails when a spread exceeds the metric's bound (``setup_s`` exempt).
Given a second set, it also fails when a median got worse than the first
set's by more than the bound.  Spreads above a third of the bound are
flagged as not yet steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def spread(values):
    """(median, (q3 - q1) / median) as ``statistics.quantiles`` gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def by_workload(runs):
    out = defaultdict(list)
    for run in runs:
        out[run["workload"]].append(run)
    return out


def check(first, second=None, spec=SPEC):
    """Rows of (workload, metric, median, spread, shift, verdict); the
    verdict is "ok", "unsteady" (spread above a third of the bound) or
    "FAIL"."""
    rows = []
    sets = [by_workload(first)] + ([by_workload(second)] if second else [])
    for workload in sets[0]:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][name]["value"]
                             for r in runs[workload]]) for runs in sets]
            verdict = "ok"
            for _, sp in stats:
                if name != "setup_s" and sp > bound:
                    verdict = "FAIL"
                elif name != "setup_s" and sp > bound / 3 and verdict == "ok":
                    verdict = "unsteady"
            shift = None
            if second:
                shift = worse_by(stats[0][0], stats[1][0], m["better"])
                if shift > bound:
                    verdict = "FAIL"
            rows.append((workload, name, [s[0] for s in stats],
                         [s[1] for s in stats], shift, verdict))
    return rows


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second", nargs="?")
    args = p.parse_args(argv)

    if args.cmd == "run":
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 args.workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600, check=True,
                cwd=HERE.parent,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(workload=args.workload, seed=seed)
            with open(args.out, "a") as fh:
                fh.write(json.dumps(result) + "\n")
            print(f"{args.workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        return 0

    first = load(args.first)
    second = load(args.second) if args.second else None
    rows = check(first, second)
    for workload, name, medians, spreads, shift, verdict in rows:
        text = "  ".join(f"median {m:.6g} spread {s:.4f}"
                         for m, s in zip(medians, spreads))
        if shift is not None:
            text += f"  worse by {shift:+.4f}"
        print(f"{workload:<14}{name:<13}{text}  {verdict}")
    return 1 if any(row[-1] == "FAIL" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

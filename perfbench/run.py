"""Benchmark harness: closed-loop workloads with outside-in layer tracing.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline_90 --seed 1 --seconds 30 --trace 0

One client runs operations back to back (closed loop) for ``--seconds``
and checks every output.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced operations,
prints the per-layer metrics of the traced ones and writes their spans to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# fresh processes timed for setup_s; the median is reported
SETUP_REPEATS = 3
PAPER_SYMBOL_RATE = 17e6


class MissingSource(Exception):
    pass


def import_program():
    """Import the checkout's ``cvqkd`` and the workloads built on it."""
    if not (SRC / "cvqkd" / "__init__.py").is_file():
        raise MissingSource(f"no cvqkd package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import cvqkd
    if Path(cvqkd.__file__).resolve().parent != SRC / "cvqkd":
        raise MissingSource(f"imported cvqkd from {cvqkd.__file__}")
    import workloads
    return workloads


def setup_probe(name, seed):
    """Runs in a fresh process: import the program and build the inputs."""
    t0 = time.perf_counter()
    workloads = import_program()
    workloads.WORKLOADS[name].build(seed)
    print(f"{time.perf_counter() - t0:.9f}")


def measure_setup(name, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_op(workload, inp, reference, span):
    """One timed operation: (seconds, output, failure reasons)."""
    t0 = time.perf_counter()
    try:
        out = workload.run(inp, span)
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t0
    return wall, out, workload.check(inp, reference, out)


def closed_loop(workload, inputs, references, seconds, tracer=None):
    """Run operations back to back for ``seconds``, cycling through the
    workload's inputs.

    The next operation starts when the previous one ends, and only if the
    median operation so far would still end within ``seconds``.  Untraced,
    every operation is measured plainly.  With a tracer, untraced
    and traced operations alternate (at least one of each) in pairs on the
    same input, so the tracing overhead is measured on the same work.
    """
    import tracing
    from workloads import no_span

    ops = []
    traced = []
    start = time.perf_counter()
    # start another operation only while it is expected to end in time
    while (not ops or (tracer is not None and len(ops) < 2)
           or time.perf_counter() - start
           + statistics.median(op["wall"] for op in ops) <= seconds):
        use_trace = tracer is not None and len(ops) % 2 == 1
        i = len(ops) // (1 if tracer is None else 2) % len(inputs)
        if use_trace:
            tracer.install()
            try:
                wall, out, fails = run_op(workload, inputs[i], references[i],
                                          tracer.root)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            if not fails:
                layer = tracing.op_metrics(spans)
                ledger = workload.leaked_bits(out)
                if ledger is not None and layer["trace.leak_bits"] != ledger:
                    fails = [f"leak from spans {layer['trace.leak_bits']} "
                             f"!= ledger {ledger}"]
                else:
                    traced.append((len(ops), spans, layer))
        else:
            wall, out, fails = run_op(workload, inputs[i], references[i],
                                      no_span)
        for reason in fails:
            print(f"# {workload.name} op {len(ops)} FAILED: {reason}",
                  file=sys.stderr)
        ops.append({"wall": wall, "traced": use_trace, "ok": not fails,
                    "counts": workload.counts(out) if not fails else {}})
    return ops, traced


def median_of(values):
    return statistics.median(values) if values else 0.0


def measure(name, seed, seconds, trace, spans_dir=None, workload=None):
    """Run one workload; returns (result dict, human-readable lines)."""
    workloads = import_program()
    import tracing

    setup_s = None if trace else measure_setup(name, seed)
    workload = workload or workloads.WORKLOADS[name]
    inputs = workload.build(seed)
    references = [workload.reference(x) for x in inputs]

    # warm-up on the same code paths at the smallest size; its result is
    # not counted (at 90% loss a small run may legitimately yield no key)
    tiny = workloads.TINY[name]
    tiny_input = tiny.build(seed)[0]
    run_op(tiny, tiny_input, tiny.reference(tiny_input), workloads.no_span)

    tracer = tracing.Tracer() if trace else None
    ops, traced = closed_loop(workload, inputs, references, seconds, tracer)
    failed = sum(1 for op in ops if not op["ok"])
    plain = [op["wall"] for op in ops if op["ok"] and not op["traced"]]
    lines = []

    if trace:
        keys = set().union(*(layer for _, _, layer in traced))
        values = defaultdict(float, {
            key: median_of([layer[key] for _, _, layer in traced])
            for key in keys})
        values["trace.overhead_s"] = (
            median_of([ops[i]["wall"] for i, _, _ in traced])
            - median_of(plain))
        if spans_dir is not None and traced:
            os.makedirs(spans_dir, exist_ok=True)
            path = Path(spans_dir) / f"{name}-seed{seed}.spans.tsv"
            tracing.write_spans(path, [(i, spans) for i, spans, _ in traced])
            lines.append(f"# spans of {len(traced)} traced ops in {path}")
        ok = failed == 0 and bool(traced)
    else:
        wall = median_of(plain)
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / len(ops),
        }
        info = {"wall_s.samples": (len(plain), "ops"),
                "failed_ratio": (failed / len(ops), "ratio")}
        if workload.n_symbols and wall > 0:
            rate = workload.n_symbols / wall
            info["symbols_per_s"] = (rate, "1/s")
            info["real_time_factor"] = (rate / PAPER_SYMBOL_RATE, "ratio")
        info.update(next((op["counts"] for op in ops if op["counts"]), {}))
        ok = failed == 0
        lines += [f"{name} {key} = {value:.6g} {unit}"
                  for key, (value, unit) in info.items()]

    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    metrics = {key: {"value": values[key], "unit": UNITS[key]}
               for key in names}
    lines = [f"{name} {key} = {m['value']:.6g} {m['unit']}"
             for key, m in metrics.items()] + lines
    result = {"correct": ok, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    return result, lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-dir", default=str(HERE / "out"),
                   help="where a traced run writes its spans")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            result, lines = measure(name, args.seed, args.seconds, args.trace,
                                    args.spans_dir)
            print("\n".join(lines), flush=True)
            results.append(result)
        for name, result in zip(names, results):
            if len(names) > 1:
                print(f"# {name}")
            print(json.dumps(result))
    except MissingSource as exc:
        print(f"perfbench: cannot build the program: {exc}", file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: setup probe failed:\n{exc.stderr}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

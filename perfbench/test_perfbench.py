"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

Every workload runs once, traced and untraced, at the smallest size the
program accepts; the agreement rule of ``agree.py`` is checked on made-up
run sets; and the harness must refuse to run without the program's source.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import agree  # noqa: E402
import run  # noqa: E402

workloads = run.import_program()
E2E = [m["name"] for m in run.SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in run.SPEC["per_layer"]]


def test_spec_names_the_workloads_the_harness_has():
    assert run.WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert list(workloads.TINY) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_runs_and_checks(name, trace, tmp_path):
    tiny = workloads.TINY[name]
    result, lines = run.measure(name, 3, 0.0, trace, tmp_path, workload=tiny)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    assert list(result["metrics"]) == (PER_LAYER if trace else E2E)
    assert all(line.startswith(name) or line.startswith("#")
               for line in lines)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if name != "theory_curve":
            assert metrics["trace.leak_bits"] > 0
            assert metrics["cascade.parity_batches"] > 0
        if name == "session_54":
            assert metrics["wire.frames_tx"] > 0
            assert metrics["session.alice.wait_s"] > 0
        if name == "theory_curve":
            assert metrics["security.psdi_calls"] == 2
        assert list(tmp_path.glob(f"{name}-seed3.spans.tsv"))


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS.values():
        assert repr(w.build(5)) == repr(w.build(5))
        assert repr(w.build(5)) != repr(w.build(6)) or w.name == "theory_curve"


def test_checks_reject_wrong_outputs():
    tiny = workloads.TINY["session_54"]
    [config] = tiny.build(1)
    ref = tiny.reference(config)
    alice, bob = tiny.run(config)
    assert tiny.check(config, ref, (alice, bob)) == []
    assert tiny.check(config, ref[:-1] + bytes([ref[-1] ^ 1]), (alice, bob))
    alice.records[0].ad_mask_bits += 1
    assert tiny.check(config, ref, (alice, bob))

    theory = workloads.WORKLOADS["theory_curve"]
    ref = theory.reference(theory.build(1)[0])
    good = [(loss, ref[loss], 0.0) for loss in theory.losses]
    assert theory.check(theory.losses, ref, good) == []
    off = [(loss, ref[loss] * 1.01, 0.0) for loss in theory.losses]
    assert theory.check(theory.losses, ref, off)


def _runs(workload, values):
    return [{"workload": workload,
             "metrics": {m: {"value": v} for m, v in zip(E2E, row)}}
            for row in values]


def test_agreement_rule():
    base = [[10.0 + 0.01 * i, 1.0 + 0.2 * (i % 3), 200.0, 1.0]
            for i in range(10)]
    same = agree.check(_runs("w", base), _runs("w", base))
    assert all(row[-1] == "ok" for row in same)

    slower = [[v * 1.5 if i == 0 else v for i, v in enumerate(row)]
              for row in base]
    rows = agree.check(_runs("w", base), _runs("w", slower))
    verdicts = {row[1]: row[-1] for row in rows}
    assert verdicts[E2E[0]] == "FAIL"
    assert verdicts["setup_s"] == "ok"  # its wide spread is exempt

    noisy = [[10.0 * (1 + (i % 2)), *row[1:]] for i, row in enumerate(base)]
    rows = agree.check(_runs("w", noisy))
    assert {row[1]: row[-1] for row in rows}[E2E[0]] == "FAIL"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline_90",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Key and ledger digests on the benchmark's seeds.

    PYTHONPATH=src python tests/benchmark_digests.py           # write
    PYTHONPATH=src python tests/benchmark_digests.py --check   # compare

For the ``pipeline_90`` workload (``run_pipeline`` at loss 0.9, var_mod
0.51, 1M symbols) at seeds 1-10 and 7777, and for the ``session_54``
config (loss 0.54, var_mod 4.0, 200k symbols, 10 bands) at master seeds
4-43 and 31108-31111, it records sha256 of the key bytes and of
``ledger_text`` in ``benchmark_digests.json`` next to this file.  Each
session must reproduce the in-process pipeline: same key, Bob's ledger
equal to the pipeline's, and both transcript audits equal to the ledger's
leak total.  With ``--check`` it compares against the committed file and
exits 1 on any difference.  A change that moves keys on purpose rewrites
the file and says why.  pytest does not collect this file; a run takes
about a minute.
"""

import argparse
import hashlib
import json
import pathlib
import sys

from cvqkd import session
from cvqkd.pipeline import PipelineConfig, ledger_text, run_pipeline

from test_session import _run_session

PATH = pathlib.Path(__file__).with_name("benchmark_digests.json")
PIPELINE_90_SEEDS = [*range(1, 11), 7777]
SESSION_54_SEEDS = [*range(4, 44), *range(31108, 31112)]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def digests(config, two_party=True):
    """[sha256 of the key, sha256 of the ledger] of ``run_pipeline`` at
    ``config``; with ``two_party``, after checking that a socketpair
    session reproduces it."""
    pres = run_pipeline(config)
    ledger = ledger_text(pres.records)
    if two_party:
        alice, bob = _run_session(config)
        total = sum(rec.leaked_bits for rec in pres.records)
        assert alice.key_bytes == bob.key_bytes == pres.key_bytes, config
        assert ledger_text(bob.records) == ledger, config
        for side in (alice, bob):
            assert session.audit_transcript(side.transcript)["total_bits"] \
                == total, config
    return [_sha(pres.key_bytes), _sha(ledger.encode())]


def compute():
    return {
        "pipeline_90": {str(seed): digests(PipelineConfig(
            loss=0.9, var_mod=0.51, n_symbols=1_000_000, seed=seed), False)
            for seed in PIPELINE_90_SEEDS},
        "session_54": {str(seed): digests(PipelineConfig(
            loss=0.54, var_mod=4.0, n_symbols=200_000, n_bands=10,
            seed=seed)) for seed in SESSION_54_SEEDS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed file, write nothing")
    args = parser.parse_args(argv)
    got = compute()
    if not args.check:
        PATH.write_text(json.dumps(got, indent=1) + "\n")
        return 0
    want = json.loads(PATH.read_text())
    diff = [f"{name} seed {seed}" for name, runs in got.items()
            for seed, pair in runs.items()
            if want.get(name, {}).get(seed) != pair]
    for line in diff:
        print("differs:", line)
    print(f"{len(diff)} of {sum(map(len, got.values()))} runs differ")
    return 0 if got == want else 1


if __name__ == "__main__":
    sys.exit(main())

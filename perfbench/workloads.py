"""The benchmark's workloads.

Each workload builds its inputs from a seed, runs one operation, and checks
that operation's output.  README.md in this directory says why each one
was chosen and which layers it exercises.
"""

import contextlib
import math
import socket
import threading

from cvqkd import security, session
from cvqkd.pipeline import PipelineConfig, run_pipeline
from cvqkd.wire import HEADER

# Theory rates (bits/symbol) recorded at the commit that defined the
# benchmark, and the relative tolerance a later commit must stay within.
THEORY_REFERENCE = {0.54: 0.2537936275485372, 0.9: 0.0034707882266152646}
THEORY_RTOL = 1e-4


def no_span(layer, role):
    return contextlib.nullcontext()


def ledger_leaked_bits(records):
    return sum(rec.leaked_bits for rec in records)


class PipelineWorkload:
    """One in-process ``run_pipeline`` call at a fixed modulation variance.

    ``build`` returns one config per master seed, and the harness cycles
    through them.  With ``seeds_per_run`` k, run seed s covers master seeds
    k*s .. k*s + k - 1.  Use k > 1 where the cost of a run depends strongly
    on the master seed, so that one run averages over several.
    """

    def __init__(self, name, loss, var_mod, n_symbols, n_bands=10,
                 seeds_per_run=1):
        self.name = name
        self.loss = loss
        self.var_mod = var_mod
        self.n_symbols = n_symbols
        self.n_bands = n_bands
        self.seeds_per_run = seeds_per_run

    def build(self, seed):
        k = self.seeds_per_run
        return [PipelineConfig(loss=self.loss, var_mod=self.var_mod,
                               n_symbols=self.n_symbols, n_bands=self.n_bands,
                               seed=k * seed + i) for i in range(k)]

    def reference(self, config):
        return None

    def run(self, config, span=no_span):
        with span("pipeline", "pipeline"):
            return run_pipeline(config)

    def check(self, config, reference, res):
        """Failure reasons (empty when the run is correct)."""
        fails = []
        if not res.confirmed:
            fails.append("run not confirmed")
        if res.alice_key.tobytes() != res.bob_key.tobytes():
            fails.append("Alice's and Bob's keys differ")
        if len(res.alice_key) == 0:
            fails.append("empty key")
        return fails

    def leaked_bits(self, res):
        return ledger_leaked_bits(res.records)

    def counts(self, res):
        return {}


class SessionWorkload(PipelineWorkload):
    """One two-party session, HELLO to BYE: ``run_alice`` on the calling
    thread, ``run_bob`` on a second thread, over one ``socketpair``."""

    def reference(self, config):
        """The in-process pipeline's key, which the session must reproduce."""
        return run_pipeline(config).key_bytes

    def run(self, config, span=no_span):
        sa, sb = socket.socketpair()
        out = {}

        def bob():
            try:
                with span("session", "bob"), sb.makefile("rb") as r, \
                        sb.makefile("wb") as w:
                    out["bob"] = session.run_bob(r, w)
            except Exception as exc:  # re-raised on the calling thread
                out["bob_error"] = exc
            finally:
                sb.close()

        thread = threading.Thread(target=bob, name="bob")
        thread.start()
        try:
            with span("session", "alice"), sa.makefile("rb") as r, \
                    sa.makefile("wb") as w:
                alice = session.run_alice(r, w, config)
        finally:
            sa.close()
            thread.join()
        if "bob_error" in out:
            raise out["bob_error"]
        return alice, out["bob"]

    def check(self, config, reference, res):
        alice, bob = res
        fails = []
        if not (alice.confirmed and bob.confirmed):
            fails.append("session not confirmed")
        if alice.key_bytes != bob.key_bytes:
            fails.append("Alice's and Bob's keys differ")
        if alice.key_bytes != reference:
            fails.append("session key differs from the pipeline key")
        if len(alice.key_bytes) == 0:
            fails.append("empty key")
        audit = session.audit_transcript(alice.transcript)["total_bits"]
        if audit != ledger_leaked_bits(alice.records):
            fails.append(f"transcript audit {audit} bits != ledger "
                         f"{ledger_leaked_bits(alice.records)} bits")
        return fails

    def leaked_bits(self, res):
        return ledger_leaked_bits(res[0].records)

    def counts(self, res):
        """Wire counts from Alice's transcript as (value, unit).  A round
        trip is one turn from sending to receiving."""
        transcript = res[0].transcript
        dirs = [d for d, _, _ in transcript]
        return {
            "round_trips": (sum(1 for prev, cur in zip(dirs, dirs[1:])
                                if prev == "tx" and cur == "rx"), "count"),
            "frames": (len(transcript), "count"),
            "wire_bytes": (sum(HEADER.size + len(body)
                               for _, _, body in transcript), "B"),
        }


class TheoryWorkload:
    """One ``theoretical_key_rate_curve`` call with the modulation variance
    optimized per loss.  Its inputs do not depend on the seed."""

    n_symbols = None

    def __init__(self, name, losses, var_mod=None, reference=None):
        self.name = name
        self.losses = tuple(losses)
        self.var_mod = var_mod
        self.expected = reference

    def build(self, seed):
        return [self.losses]

    def reference(self, losses):
        return self.expected

    def run(self, losses, span=no_span):
        with span("theory", "theory"):
            return security.theoretical_key_rate_curve(list(losses),
                                                       var_mod=self.var_mod)

    def check(self, losses, reference, rows):
        fails = []
        rates = [bits for _, bits, _ in rows]
        if [loss for loss, _, _ in rows] != list(losses):
            fails.append("rows do not match the requested losses")
        if not all(math.isfinite(r) and r > 0.0 for r in rates):
            fails.append(f"rates not finite and positive: {rates}")
        if any(b >= a for a, b in zip(rates, rates[1:])):
            fails.append(f"rates do not fall with loss: {rates}")
        for loss, rate in zip(losses, rates):
            want = (reference or {}).get(loss)
            if want is not None and abs(rate / want - 1.0) > THEORY_RTOL:
                fails.append(f"rate {rate} at loss {loss} differs from the "
                             f"recorded {want} by more than {THEORY_RTOL}")
        return fails

    def leaked_bits(self, rows):
        return None

    def counts(self, rows):
        return {}


WORKLOADS = {w.name: w for w in (
    PipelineWorkload("pipeline_90", loss=0.9, var_mod=0.51,
                     n_symbols=1_000_000),
    SessionWorkload("session_54", loss=0.54, var_mod=4.0, n_symbols=200_000,
                    seeds_per_run=4),
    TheoryWorkload("theory_curve", losses=(0.54, 0.9),
                   reference=THEORY_REFERENCE),
)}

# The Toeplitz PA cost at 54% loss depends on the master seed through the
# band sizes (a band takes the direct O(m^2) convolution or the FFT path),
# so one session run covers four master seeds.  At 90% loss the cost barely
# depends on the seed.
#
# The same code paths at the smallest sizes the program accepts: the
# warm-up before timing, and the harness's own smoke tests.
TINY = {w.name: w for w in (
    PipelineWorkload("pipeline_90", loss=0.9, var_mod=0.51,
                     n_symbols=100_000, n_bands=4),
    SessionWorkload("session_54", loss=0.54, var_mod=4.0, n_symbols=20_000,
                    n_bands=4),
    TheoryWorkload("theory_curve", losses=(0.54, 0.9), var_mod=4.0),
)}

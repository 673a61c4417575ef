"""Outside-in layer tracing for the benchmark.

Spans are recorded around calls into each layer's public functions by
replacing, for the duration of a traced operation, the module attributes
that ``pipeline``, ``session`` and the layers themselves look up at call
time.  The program's source is not modified and nothing is installed while
the untraced operations run.

A span opens when a hooked function is entered from a different layer (or
from the operation's root span).  A hooked call made from inside a span of
its own layer opens no span: its counters and timers are added to the
enclosing span.  That keeps the number of spans proportional to the number
of layer crossings, not to the number of calls in inner loops.  The wire
hooks are leaves: they never open a span, and their time is charged to the
``wire`` timers of the span that made the call and subtracted from that
span's self time.
"""

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict

from cvqkd import bands, channel, privamp, reconcile, security, wire

# timers whose time belongs to the wire, not to the span that called it
LEAF_TIMERS = ("wire.encode_s", "wire.read_s")

# roles whose disclosures make up the ledger: the in-process pipeline plays
# both parties; in a session every disclosed bit is one Alice sends
DISCLOSING_ROLES = ("pipeline", "alice")

BUSY_LAYERS = ("channel", "bands", "ad", "cascade", "privamp", "security")


class Span:
    __slots__ = ("id", "parent", "layer", "name", "role", "start", "end",
                 "counts")

    def __init__(self, id_, parent, layer, name, role):
        self.id = id_
        self.parent = parent
        self.layer = layer
        self.name = name
        self.role = role
        self.start = time.perf_counter()
        self.end = None
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start


class Hook:
    """One hooked function: where it lives, its layer, what it counts.

    ``count(result)`` returns (counter, increment) pairs added on every call;
    ``outer_count`` only on calls that opened their own span.
    """

    def __init__(self, owner, attr, layer, timer=None, count=None,
                 outer_count=None, leaf=False):
        self.owner = owner
        self.attr = attr
        self.layer = layer
        self.timer = timer
        self.count = count
        self.outer_count = outer_count
        self.leaf = leaf


def _calls(key):
    return lambda args, result: ((key, 1),)


HOOKS = [
    *(Hook(channel, name, "channel") for name in (
        "generate_symbols", "transmit_and_measure", "estimate_channel",
        "gaussianity_check")),
    Hook(bands, "sift", "bands"),
    Hook(bands, "postselect", "bands"),
    Hook(bands, "keep_mask", "bands",
         count=lambda args, mask: (("bands.bits_in", len(mask)),
                                   ("bands.bits_kept", int(mask.sum())))),
    Hook(bands, "build_partition", "bands",
         count=_calls("bands.partitions_built")),
    Hook(bands.BicPartition, "band_of", "bands"),
    *(Hook(reconcile, name, "ad") for name in (
        "choose_repeat_n", "ad_error", "eve_ad_error", "advantage_distill")),
    Hook(reconcile, "alice_ad_masks", "ad",
         count=lambda args, res: (("ad.bits_in", len(args[0])),
                                  ("ad.mask_bits", len(res[1])))),
    Hook(reconcile, "bob_ad_apply", "ad",
         count=lambda args, res: (("ad.bits_out", len(res[1])),)),
    Hook(reconcile, "cascade", "cascade"),
    Hook(reconcile, "cascade_correct", "cascade",
         count=lambda args, res: (("cascade.attempts", res.attempts),)),
    Hook(reconcile, "eve_error_after_leak", "cascade"),
    Hook(reconcile, "poly_hash64", "cascade", timer="cascade.hash_s"),
    Hook(reconcile.ParityOracle, "start", "cascade"),
    Hook(reconcile.ParityOracle, "parities", "cascade",
         count=lambda args, res: (("cascade.parity_batches", 1),
                                  ("cascade.parity_bits", len(res)))),
    Hook(reconcile.ParityOracle, "hash64", "cascade",
         count=_calls("cascade.hashes")),
    Hook(privamp, "toeplitz_hash", "privamp",
         count=lambda args, res: (("privamp.products", len(args[0]) * len(res)),),
         outer_count=lambda args, res: (("privamp.bits_in", len(args[0])),
                                        ("privamp.bits_out", len(res)))),
    Hook(privamp, "key_confirm", "privamp", timer="privamp.confirm_s",
         count=_calls("privamp.confirms")),
    Hook(privamp, "confirm_hash", "privamp", timer="privamp.confirm_s",
         count=_calls("privamp.confirms")),
    Hook(privamp, "final_key_length", "privamp"),
    Hook(privamp, "pack_key", "privamp"),
    *(Hook(security, name, "security") for name in (
        "binary_entropy", "inverse_binary_entropy", "channel_capacity",
        "error_probability_u", "eve_information_quadrature", "eve_overlap",
        "helstrom_error", "pointwise_net_information",
        "optimal_modulation_variance", "theoretical_key_rate_curve")),
    Hook(security, "post_selected_delta_i", "security",
         count=_calls("security.psdi_calls")),
    Hook(security, "keep_threshold_u", "security",
         count=_calls("security.threshold_calls")),
    Hook(wire, "encode_frame", "wire", timer="wire.encode_s", leaf=True,
         count=lambda args, frame: (("wire.frames_tx", 1),
                                    ("wire.bytes_tx", len(frame)))),
    Hook(wire, "read_frame", "wire", timer="wire.read_s", leaf=True),
]


class Tracer:
    """Keeps the spans of traced operations in memory.

    ``install()``/``uninstall()`` hook and unhook the layers;
    ``root(layer, role)`` opens the span of one operation, or of one party's
    side of it, on the calling thread; ``take()`` returns and clears the
    spans closed so far.  Each thread keeps its own stack of open spans.
    """

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._spans = []
        self._originals = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer, name, role=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if role is None:
            role = parent.role if parent is not None else None
        span = Span(next(self._ids), parent.id if parent else None, layer,
                    name, role)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self._spans.append(span)

    @contextlib.contextmanager
    def root(self, layer, role):
        span = self._open(layer, layer, role)
        try:
            yield span
        finally:
            self._close(span)

    def take(self):
        spans, self._spans = self._spans, []
        return spans

    def _wrap(self, hook, fn):
        tracer = self
        name = f"{hook.layer}.{hook.attr}"

        def add(counts, pairs):
            for key, inc in pairs:
                counts[key] = counts.get(key, 0) + inc

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            cur = stack[-1] if stack else None
            if cur is None:
                return fn(*args, **kwargs)
            if hook.leaf or cur.layer == hook.layer:
                t0 = time.perf_counter() if hook.timer else 0.0
                result = fn(*args, **kwargs)
                if hook.timer:
                    add(cur.counts, ((hook.timer, time.perf_counter() - t0),))
                if hook.count:
                    add(cur.counts, hook.count(args, result))
                return result
            span = tracer._open(hook.layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook.timer:
                add(span.counts, ((hook.timer, span.duration),))
            if hook.count:
                add(span.counts, hook.count(args, result))
            if hook.outer_count:
                add(span.counts, hook.outer_count(args, result))
            return result

        return wrapper

    def install(self):
        if self._originals is not None:
            return
        self._originals = []
        for hook in HOOKS:
            fn = getattr(hook.owner, hook.attr)
            self._originals.append((hook.owner, hook.attr, fn))
            setattr(hook.owner, hook.attr, self._wrap(hook, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals or []):
            setattr(owner, attr, fn)
        self._originals = None


def op_metrics(spans):
    """Per-layer metrics of one operation from its spans.

    A span's self time is its duration minus its child spans and minus the
    wire time it spent in encode/read calls.  ``<layer>.busy_s`` sums the
    self time of the layer's spans; ``pipeline.self_s`` is the self time of
    ``run_pipeline`` itself.  A session role's ``wait_s`` is its time
    blocked in ``wire.read_frame`` and its ``busy_s`` the rest of its span.
    ``trace.leak_bits`` recounts the disclosed bits from the disclosing
    role's spans: mask bits, parity bits, 64 per Cascade hash and 64 per key
    confirm.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    out = defaultdict(float)
    for s in spans:
        leaf = sum(s.counts.get(k, 0.0) for k in LEAF_TIMERS)
        if s.layer in BUSY_LAYERS:
            out[f"{s.layer}.busy_s"] += s.duration - child[s.id] - leaf
        elif s.layer == "pipeline":
            out["pipeline.self_s"] += s.duration - child[s.id] - leaf
        for key, value in s.counts.items():
            out[key] += value
        if s.role in ("alice", "bob"):
            wait = s.counts.get("wire.read_s", 0.0)
            out[f"session.{s.role}.wait_s"] += wait
            if s.parent is None:
                out[f"session.{s.role}.busy_s"] += s.duration
            out[f"session.{s.role}.busy_s"] -= wait
        if s.role in DISCLOSING_ROLES:
            out["trace.leak_bits"] += (
                s.counts.get("ad.mask_bits", 0)
                + s.counts.get("cascade.parity_bits", 0)
                + reconcile.HASH_BITS * s.counts.get("cascade.hashes", 0)
                + privamp.CONFIRM_BITS * s.counts.get("privamp.confirms", 0))
    return out


def write_spans(path, traced_ops):
    """Tab-separated dump: one line per span of every traced operation."""
    with open(path, "w") as fh:
        fh.write("op\tid\tparent\trole\tlayer\tname\tstart_s\tend_s\tcounts\n")
        for op, spans in traced_ops:
            t0 = min(s.start for s in spans)
            for s in sorted(spans, key=lambda s: s.start):
                counts = ",".join(f"{k}={v:.9g}" if isinstance(v, float)
                                  else f"{k}={v}"
                                  for k, v in sorted(s.counts.items()))
                fh.write(f"{op}\t{s.id}\t{'' if s.parent is None else s.parent}"
                         f"\t{s.role}\t{s.layer}\t{s.name}"
                         f"\t{s.start - t0:.9f}\t{s.end - t0:.9f}\t{counts}\n")

"""Two-party networked protocol session.

The connect side plays the sender (Alice); the serve side hosts the
receiver (Bob) together with the channel simulator.  That colocation is a
simulation convenience: the SYMBOLS frame crosses a trust boundary into
the simulator only, and the receiver role consumes nothing from it — all
of Bob's knowledge of the sent values comes from the public ANNOUNCE and
REVEAL frames plus his simulated measurements.

Both roles run the protocol steps of ``pipeline`` (banding, band records,
the band step and key finishing) and add only the frames between them.
Every random choice comes from named streams under the shared session
seed, and all band decisions are driven by announced quantities, so a
session produces keys byte-identical to the in-process pipeline run with
the same configuration.

Every frame carries a reserved 16-byte authentication tag (all zeros
here) at the head of its payload, standing in for the authenticated
classical channel the protocol assumes.
"""

import functools
import struct
import time
from dataclasses import dataclass

import numpy as np

from . import bands, channel, pipeline, privamp, reconcile, wire
from .errors import ProtocolAbort, ProtocolError, VerificationFailedError
from .wire import AUTH_TAG, MsgType


# the most symbols a serve side accepts in a HELLO: every per-symbol array
# is sized from it before any symbol arrives
MAX_SESSION_SYMBOLS = 1 << 25

# a body's tag and a Cascade step's u64 parity and hash counts: all the
# audit reads
HEAD_BYTES = 32


class Transport:
    """Framed byte channel.  Its transcript keeps the first ``HEAD_BYTES``
    of each frame body; ``sink``, a text file or None, receives every whole
    frame as a transcript line as it passes."""

    def __init__(self, reader, writer, sink=None):
        self.reader = reader
        self.writer = writer
        self.sink = sink
        self.transcript = []

    def _record(self, direction, msg_type, body):
        self.transcript.append((direction, msg_type, bytes(body[:HEAD_BYTES])))
        if self.sink is not None:
            self.sink.write(f"{direction} {msg_type.name} {body.hex()}\n")

    def send(self, msg_type, payload=b""):
        body = AUTH_TAG + payload
        self.writer.write(wire.encode_frame(msg_type, body))
        self.writer.flush()
        self._record("tx", MsgType(msg_type), body)

    def recv(self, *expected):
        try:
            msg_type, body = wire.read_frame(self.reader)
        except TimeoutError:
            raise self.fail("peer silent past the socket timeout") from None
        self._record("rx", msg_type, body)
        if msg_type == MsgType.ABORT:
            raise ProtocolAbort(body[16:].decode("utf-8", "replace"))
        if expected and msg_type not in expected:
            raise self.fail(
                f"expected {[MsgType(e).name for e in expected]}, "
                f"got {msg_type.name}"
            )
        if body[:16] != AUTH_TAG:
            raise self.fail("bad auth tag")
        return msg_type, body[16:]

    def decode(self, decoder, *args):
        """Run a payload decoder; a malformed payload aborts the session."""
        try:
            return decoder(*args)
        except ProtocolError as exc:
            raise self.fail(str(exc)) from None

    def fail(self, reason):
        """Send ABORT (if the peer can still hear it); returns the
        ``ProtocolError`` for the caller to raise."""
        try:
            self.send(MsgType.ABORT, reason.encode())
        except (OSError, ValueError):
            pass
        return ProtocolError(reason)


@dataclass
class SessionResult:
    key_bits: np.ndarray
    key_bytes: bytes
    confirmed: bool
    records: list
    transcript: list          # (direction, MsgType, body head) per frame
    config: pipeline.PipelineConfig
    report: pipeline.RunReport | None = None


# a step's parity range; a band is a record's index (at most 2 * 255), and
# PipelineConfig keeps passes <= 255
_CASCADE_QUERY = np.dtype([("band", "<u2"), ("pi", "u1"), ("lo", "<u8"),
                           ("hi", "<u8")])
# a CASCADE_REQ's parity and hash counts (all the audit reads); a step
# without requests ends Cascade
_STEP_HEAD = struct.Struct("<QQ")


def _bob_exchange(t, n_bands, requests):
    """One Cascade step over the wire: one request and one answer frame."""
    queries = [(b, arg) for b, kind, arg in requests
               if kind == reconcile.PARITIES]
    hashed = np.zeros(n_bands, np.uint8)
    hashed[[b for b, kind, _ in requests if kind == reconcile.HASH]] = 1
    sizes = [len(q) for _, q in queries]
    packed = np.zeros(sum(sizes), _CASCADE_QUERY)
    if queries:
        packed["band"] = np.repeat([b for b, _ in queries], sizes)
        packed["pi"], packed["lo"], packed["hi"] = np.concatenate(
            [q for _, q in queries]).T
    hashes = np.flatnonzero(hashed).tolist()
    t.send(MsgType.CASCADE_REQ, _STEP_HEAD.pack(len(packed), len(hashes))
           + hashed.tobytes() + packed.tobytes())
    _, payload = t.recv(MsgType.CASCADE_RESP)
    bits, values = t.decode(_cascade_answers, payload, len(packed),
                            len(hashes))
    answers = dict(zip(hashes, values))
    answers.update(zip([b for b, _ in queries],
                       np.split(bits, np.cumsum(sizes)[:-1])))
    return answers


def _cascade_answers(payload, n_parities, n_hashes):
    """A step's parity bits and hashes: one bit per query, 8 bytes per
    hash."""
    bits, off = wire.unpack_bits(payload, 0, n_parities)
    if len(payload) - off != 8 * n_hashes:
        raise ProtocolError(f"Cascade hashes of {len(payload) - off} bytes, "
                            f"expected {8 * n_hashes}")
    return bits, np.frombuffer(payload[off:], "<u8").tolist()


def _cascade_request(payload, oracles):
    """A Cascade step's (band, (k, 3) parity ranges) groups and hashed
    bands, checked against the bands' oracles: each range against its
    band's length and passes; parities that begin an attempt only below
    the attempt limit, and at most passes * n of them per attempt; a hash
    only of a band live once the step's parities are counted."""
    n_parities, n_hashes = _STEP_HEAD.unpack(
        wire.take(payload, 0, _STEP_HEAD.size))
    hashes = np.frombuffer(wire.take(payload, _STEP_HEAD.size, len(oracles)),
                           np.uint8)
    q = np.frombuffer(wire.take(payload, _STEP_HEAD.size + len(oracles),
                                _CASCADE_QUERY.itemsize * n_parities),
                      _CASCADE_QUERY)
    band = q["band"].astype(np.intp)
    if np.any(band >= len(oracles)) or np.any(np.diff(band) < 0):
        raise ProtocolError("Cascade queries of bands out of range or order")
    n, passes, attempts, asked, live = np.array(
        [(len(o.bits), o.passes, o.attempts, o.asked, o.live)
         for o in oracles], np.int64).T
    counts = np.bincount(band, minlength=len(oracles))
    begin = (counts > 0) & (live == 0)
    if np.any(begin & (attempts >= reconcile.CASCADE_ATTEMPTS)):
        raise ProtocolError(f"Cascade attempt past the last of "
                            f"{reconcile.CASCADE_ATTEMPTS}")
    if np.any(asked + counts > passes * n):
        raise ProtocolError("Cascade parities past passes * n in an attempt")
    if np.any(hashes > (live | begin)) or np.count_nonzero(hashes) != n_hashes:
        raise ProtocolError("Cascade hashes of bands outside an attempt, "
                            "or other than counted")
    bad = np.flatnonzero((q["pi"] >= passes[band]) | (q["lo"] >= q["hi"])
                         | (q["hi"] > n[band]))
    if len(bad):
        b, pi, lo, hi = q[bad[0]].tolist()
        raise ProtocolError(f"Cascade query (band {b}, pass {pi}, bits "
                            f"{lo}:{hi}) outside {passes[b]} passes of "
                            f"{n[b]}")
    asking = np.flatnonzero(counts)
    return (list(zip(asking.tolist(), np.split(np.column_stack(
        (q["pi"], q["lo"], q["hi"])), np.cumsum(counts[asking])[:-1]))),
            np.flatnonzero(hashes).tolist())


def _serve_cascade(t, oracles):
    """Answer Cascade steps for every band until an empty step."""
    while True:
        _, payload = t.recv(MsgType.CASCADE_REQ)
        groups, hashed = t.decode(_cascade_request, payload, oracles)
        if not groups and not hashed:
            return
        parities = [oracles[b].parities(part) for b, part in groups]
        hashes = [oracles[b].hash64() for b in hashed]
        t.send(MsgType.CASCADE_RESP, wire.pack_bits(
            np.concatenate(parities) if parities else [])
            + np.array(hashes, "<u8").tobytes())


def _alice_distill(t, seed, records, strings):
    """Alice's masks of every distilling band in one AD_MASKS frame, and
    her block bits that Bob's one AD_ACCEPT frame accepts."""
    drawn = [reconcile.alice_ad_masks(bits, rec.repeat_n, pipeline.ad_stream(
        seed, rec.quad, rec.band)) for rec, bits in zip(records, strings)]
    t.send(MsgType.AD_MASKS, wire.pack_bits(np.concatenate(
        [masks for _, masks in drawn])))
    _, payload = t.recv(MsgType.AD_ACCEPT)
    sizes = [len(c) for c, _ in drawn]
    accepted, _ = t.decode(wire.unpack_bits, payload, 0, sum(sizes))
    return [(c[flags.astype(bool)], len(masks)) for (c, masks), flags
            in zip(drawn, np.split(accepted, np.cumsum(sizes)[:-1]))]


def _bob_distill(t, records, strings):
    """Bob's side of the one AD_MASKS/AD_ACCEPT exchange."""
    sizes = [len(bits) // rec.repeat_n * rec.repeat_n
             for rec, bits in zip(records, strings)]
    _, payload = t.recv(MsgType.AD_MASKS)
    masks, _ = t.decode(wire.unpack_bits, payload, 0, sum(sizes))
    applied = [reconcile.bob_ad_apply(bits, m, rec.repeat_n)
               for rec, bits, m in zip(records, strings,
                                       np.split(masks, np.cumsum(sizes)[:-1]))]
    t.send(MsgType.AD_ACCEPT, wire.pack_bits(np.concatenate(
        [accepted for accepted, _ in applied])))
    return [(bits, size) for (_, bits), size in zip(applied, sizes)]


def _alice_correct(t, bands, passes):
    """Serve Cascade to every band from Alice's strings."""
    oracles = [reconcile.ParityOracle(bits, factory, passes)
               for bits, _, factory in bands]
    _serve_cascade(t, oracles)
    return [(oracle.bits, oracle.disclosed_bits) for oracle in oracles]


def _bob_correct(t, bands, passes):
    """Cascade over the wire, then an empty step; a band that fails every
    attempt aborts the session."""
    try:
        results = reconcile.cascade_bands(
            bands, functools.partial(_bob_exchange, t, len(bands)), passes)
    except VerificationFailedError as exc:
        t.fail(str(exc))
        raise
    t.send(MsgType.CASCADE_REQ, _STEP_HEAD.pack(0, 0) + bytes(len(bands)))
    return [(res.bits, res.leaked_bits) for res in results]


def run_alice(reader, writer, config, sink=None):
    """Sender role: generates symbols, announces magnitudes, serves Cascade
    parities, and produces the final key.  ``sink`` is the ``Transport``'s
    transcript file."""
    t = Transport(reader, writer, sink)
    config.resolve_var_mod()
    seed = config.seed
    params = config.channel_params()

    t.send(MsgType.HELLO, config.to_text().encode())
    _, echo = t.recv(MsgType.HELLO_ACK)
    if echo.decode() != config.to_text():
        raise t.fail("config mismatch")

    symbols = channel.generate_symbols(config.n_symbols, params, seed)
    t.send(MsgType.SYMBOLS, wire.pack_floats(symbols.x_a)
           + wire.pack_floats(symbols.p_a))
    t.send(MsgType.ANNOUNCE_MAGNITUDES, wire.pack_floats(np.abs(symbols.x_a))
           + wire.pack_floats(np.abs(symbols.p_a)))

    idx, symbol_mask = pipeline.sift_layout(config)
    t.send(MsgType.REVEAL_SUBSET, wire.pack_indices(idx)
           + wire.pack_floats(symbols.x_a[idx])
           + wire.pack_floats(symbols.p_a[idx]))

    v_a = np.concatenate([symbols.x_a[symbol_mask], symbols.p_a[symbol_mask]])
    del symbols
    plan = _recv_plan(t, len(v_a), config.n_bands)
    v_a = v_a[plan.keep]
    records = pipeline.band_records(plan, bands.eve_information_bits(
        plan.slices.n_x, np.abs(v_a), plan.eta_x, plan.eta_p,
        config.doubled_exponent))
    signs = plan.split((v_a > 0).astype(np.uint8))
    del v_a, plan  # the band steps hold every band's state at once

    strings = pipeline.band_steps(
        records, signs, config, functools.partial(_alice_distill, t, seed),
        functools.partial(_alice_correct, t))
    (alice_key,) = pipeline.finish_keys(records, [strings], config)

    t.send(MsgType.PA_SEED, _pack_sizing(records, seed))

    confirm_seed = pipeline.confirm_seed_value(seed)
    t.send(MsgType.KEY_CONFIRM,
           wire.pack_bits(privamp.confirm_hash(alice_key, confirm_seed)))
    _, payload = t.recv(MsgType.KEY_CONFIRM)
    confirmed = payload[:1] == b"\x01"
    t.send(MsgType.BYE)
    t.recv(MsgType.BYE)
    if not confirmed:
        raise ProtocolAbort("key confirmation failed")
    return SessionResult(alice_key, privamp.pack_key(alice_key), confirmed,
                         records, t.transcript, config)


def _decode_config(payload):
    """The HELLO configuration; a malformed one is a protocol error."""
    try:
        config = pipeline.PipelineConfig.from_text(payload.decode())
    # UnicodeDecodeError and InvalidConfigError are ValueErrors; int() of
    # an infinite float raises OverflowError
    except (ValueError, OverflowError) as exc:
        raise ProtocolError(f"bad session config: {exc}") from None
    if config.n_symbols > MAX_SESSION_SYMBOLS:
        raise ProtocolError(f"bad session config: n_symbols="
                            f"{config.n_symbols} above {MAX_SESSION_SYMBOLS}")
    return config


def _recv_plan(t, n_sift, n_bands):
    """The receiver's KEEP_MASK plan, checked against the local layout."""
    _, payload = t.recv(MsgType.KEEP_MASK)
    return t.decode(pipeline.BandPlan.unpack, payload, n_sift, n_bands)


def _pack_sizing(records, seed):
    out = [struct.pack("<Q", len(records))]
    for rec in records:
        out.append(struct.pack(
            "<BBQQ", rec.quad == "p", rec.band, rec.key_bits,
            pipeline.pa_seed_value(seed, rec.quad, rec.band),
        ))
    return b"".join(out)


def run_bob(reader, writer, sink=None):
    """Serve side: channel simulator plus the receiver role.

    The configuration arrives in HELLO; the result carries it, the
    receiver's key and, as a simulator-side diagnostic, the full stage
    report computed with knowledge of the sent symbols.  ``sink`` is the
    ``Transport``'s transcript file.
    """
    t = Transport(reader, writer, sink)
    _, payload = t.recv(MsgType.HELLO)
    config = t.decode(_decode_config, payload)
    config.resolve_var_mod()
    t.send(MsgType.HELLO_ACK, config.to_text().encode())
    seed = config.seed
    params = config.channel_params()

    expected_idx, symbol_mask = pipeline.sift_layout(config)

    # ---- channel simulator (sees the sent values; the receiver does not);
    # of the sent values only the signs of the sifted ones outlive it
    _, payload = t.recv(MsgType.SYMBOLS)
    x_a, off = t.decode(wire.unpack_floats, payload, 0, config.n_symbols)
    p_a, _ = t.decode(wire.unpack_floats, payload, off, config.n_symbols)
    del payload
    meas = channel.measure(channel.SymbolBatch(x_a, p_a), params, seed)
    sent = np.concatenate([x_a[symbol_mask], p_a[symbol_mask]]) > 0
    del x_a, p_a

    # ---- receiver role: public announcements only from here on
    _, payload = t.recv(MsgType.ANNOUNCE_MAGNITUDES)
    abs_x, off = t.decode(wire.unpack_floats, payload, 0, config.n_symbols)
    abs_p, _ = t.decode(wire.unpack_floats, payload, off, config.n_symbols)
    del payload

    _, payload = t.recv(MsgType.REVEAL_SUBSET)
    idx, off = t.decode(wire.unpack_indices, payload)
    rx_a, off = t.decode(wire.unpack_floats, payload, off, len(idx))
    rp_a, _ = t.decode(wire.unpack_floats, payload, off, len(idx))
    del payload
    if not np.array_equal(idx, expected_idx):
        raise t.fail("revealed indices do not match the derived subset")
    est = channel.estimate_channel(
        channel.SymbolBatch(rx_a, rp_a),
        channel.MeasurementBatch(meas.x_b[idx], meas.p_b[idx]),
    )

    ps = bands.postselect(
        bands.sift_blocks(channel.SymbolBatch(abs_x, abs_p), meas,
                          symbol_mask, signed=False),
        est, config.n_bands, config.doubled_exponent,
        pipeline.calibration_mask(config, symbol_mask))
    got = np.concatenate([v[symbol_mask] > 0 for v in (meas.x_b, meas.p_b)])
    del abs_x, abs_p, meas
    plan = pipeline.band_plan(ps, est, config)
    t.send(MsgType.KEEP_MASK, plan.pack())
    records = pipeline.band_records(plan, ps.eve_info)
    bits = plan.split(ps.kept.bob_bit)
    # the band steps hold every band's state at once: free what only the
    # plan read
    del plan
    ps.kept.u = ps.kept.abs_v_a = ps.kept.v_b = ps.eve_info = ps.slices = None

    strings = pipeline.band_steps(
        records, bits, config, functools.partial(_bob_distill, t),
        functools.partial(_bob_correct, t))
    (bob_key,) = pipeline.finish_keys(records, [strings], config)

    _, payload = t.recv(MsgType.PA_SEED)
    if payload != _pack_sizing(records, seed):
        raise t.fail("privacy-amplification sizing mismatch")

    confirm_seed = pipeline.confirm_seed_value(seed)
    _, payload = t.recv(MsgType.KEY_CONFIRM)
    alice_hash, _ = t.decode(wire.unpack_bits, payload)
    confirmed = np.array_equal(alice_hash,
                               privamp.confirm_hash(bob_key, confirm_seed))
    t.send(MsgType.KEY_CONFIRM, b"\x01" if confirmed else b"\x00")
    t.recv(MsgType.BYE)
    t.send(MsgType.BYE)
    if not confirmed:
        raise ProtocolAbort("key confirmation failed")

    # ---- simulator-side diagnostics: the tallies that need the sent signs
    ps.n_flip = int(np.count_nonzero(sent != got))
    kept = ps.kept
    kept.alice_bit = sent[ps.mask].astype(np.uint8)
    ps.partition.tally(kept.n_x, kept.alice_bit != kept.bob_bit)
    pipeline.set_p_emp(records, ps.partition)
    report = pipeline.build_report(config, ps, records, time.monotonic())
    return SessionResult(bob_key, privamp.pack_key(bob_key), confirmed,
                         records, t.transcript, config, report)


def load_transcript(path):
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            direction, name, hexpayload = line.split(" ", 2)
            out.append((direction, MsgType[name], bytes.fromhex(hexpayload)))
    return out


def audit_transcript(transcript):
    """Tally the publicly disclosed key-material bits in a transcript.

    Counts repeat-code mask bits, Cascade parity and verification-hash
    bits, and the final confirmation hash; the totals must match the
    per-band leakage ledger of the run that produced the transcript.  A
    head too short for its counts raises ``ProtocolError``.
    """
    ad_mask_bits = 0
    parity_bits = 0
    hash_bits = 0
    confirm_bits = 0
    for _, msg_type, body in transcript:
        payload = body[16:]
        if msg_type == MsgType.AD_MASKS:
            (count,) = wire.unpack_from("<Q", payload, 0)
            ad_mask_bits += count
        elif msg_type == MsgType.CASCADE_REQ:
            n_parities, n_hashes = _STEP_HEAD.unpack(
                wire.take(payload, 0, _STEP_HEAD.size))
            parity_bits += n_parities
            hash_bits += reconcile.HASH_BITS * n_hashes
        elif msg_type == MsgType.KEY_CONFIRM:
            # one hash, sent by Alice; Bob's reply is a verdict flag
            confirm_bits = privamp.CONFIRM_BITS
    total = ad_mask_bits + parity_bits + hash_bits + confirm_bits
    return {
        "ad_mask_bits": int(ad_mask_bits),
        "cascade_parity_bits": int(parity_bits),
        "cascade_hash_bits": int(hash_bits),
        "confirm_bits": int(confirm_bits),
        "total_bits": int(total),
    }

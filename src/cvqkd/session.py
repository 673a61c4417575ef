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

import struct
import time
from dataclasses import dataclass

import numpy as np

from . import bands, channel, pipeline, privamp, reconcile, wire
from .errors import ProtocolAbort, ProtocolError, VerificationFailedError
from .wire import AUTH_TAG, MsgType


class Transport:
    """Framed, transcript-recording byte channel."""

    def __init__(self, reader, writer, transcript=None):
        self.reader = reader
        self.writer = writer
        self.transcript = transcript if transcript is not None else []

    def send(self, msg_type, payload=b""):
        body = AUTH_TAG + payload
        self.writer.write(wire.encode_frame(msg_type, body))
        self.writer.flush()
        self.transcript.append(("tx", MsgType(msg_type), body))

    def recv(self, *expected):
        msg_type, body = wire.read_frame(self.reader)
        self.transcript.append(("rx", MsgType(msg_type), body))
        if msg_type == MsgType.ABORT:
            raise ProtocolAbort(body[16:].decode("utf-8", "replace"))
        if expected and msg_type not in expected:
            raise self.fail(
                f"expected {[MsgType(e).name for e in expected]}, "
                f"got {MsgType(msg_type).name}"
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
            self.writer.write(wire.encode_frame(
                MsgType.ABORT, AUTH_TAG + reason.encode()
            ))
            self.writer.flush()
        except (OSError, ValueError):
            pass
        return ProtocolError(reason)


@dataclass
class SessionResult:
    key_bits: np.ndarray
    key_bytes: bytes
    confirmed: bool
    records: list
    transcript: list
    report: pipeline.RunReport | None = None


# one query of a kind-1 Cascade batch; PipelineConfig keeps passes <= 255
_CASCADE_QUERY = np.dtype([("pi", "u1"), ("lo", "<u8"), ("hi", "<u8")])


class _RemoteOracle:
    """Parity-oracle proxy: forwards Cascade queries over the wire."""

    def __init__(self, transport):
        self.transport = transport
        self.disclosed_bits = 0

    def start(self, attempt, passes):
        self.transport.send(MsgType.CASCADE_REQ,
                            b"\x00" + struct.pack("<II", attempt, passes))
        self.transport.recv(MsgType.CASCADE_RESP)

    def parities(self, queries):
        packed = np.empty(len(queries), _CASCADE_QUERY)
        packed["pi"], packed["lo"], packed["hi"] = np.asarray(queries).T
        self.transport.send(MsgType.CASCADE_REQ, b"\x01" + struct.pack(
            "<Q", len(packed)) + packed.tobytes())
        _, payload = self.transport.recv(MsgType.CASCADE_RESP)
        bits, _ = self.transport.decode(wire.unpack_bits, payload, 0,
                                        len(queries))
        self.disclosed_bits += len(queries)
        return bits

    def hash64(self):
        self.transport.send(MsgType.CASCADE_REQ, b"\x02")
        _, payload = self.transport.recv(MsgType.CASCADE_RESP)
        if len(payload) != 8:
            raise self.transport.fail(
                f"Cascade hash of {len(payload)} bytes, expected 8")
        self.disclosed_bits += reconcile.HASH_BITS
        return struct.unpack("<Q", payload)[0]

    def done(self, ok=True):
        self.transport.send(MsgType.CASCADE_REQ, bytes([3, ok]))
        self.transport.recv(MsgType.CASCADE_RESP)


def _cascade_request(payload, n, passes, started):
    """(kind, argument) of one Cascade request, checked against the pass
    count and the length ``n`` of the answering side's string."""
    (kind,) = wire.unpack_from("<B", payload)
    if kind == 0:
        attempt, got = wire.unpack_from("<II", payload, 1)
        if got != passes:
            raise ProtocolError(f"Cascade start with {got} passes, "
                                f"expected {passes}")
        return kind, attempt
    if kind == 1:
        (count,) = wire.unpack_from("<Q", payload, 1)
        q = np.frombuffer(wire.take(payload, 9, _CASCADE_QUERY.itemsize
                                    * count), _CASCADE_QUERY)
        if not started:
            raise ProtocolError("Cascade parity query before start")
        bad = np.flatnonzero((q["pi"] >= passes) | (q["lo"] >= q["hi"])
                             | (q["hi"] > n))
        if len(bad):
            pi, lo, hi = q[bad[0]].tolist()
            raise ProtocolError(
                f"Cascade query (pass {pi}, bits {lo}:{hi}) outside "
                f"{passes} passes of {n} bits")
        return kind, np.column_stack((q["pi"], q["lo"], q["hi"]))
    if kind == 2:
        return kind, None
    if kind == 3:
        return kind, bool(wire.unpack_from("<B", payload, 1)[0])
    raise ProtocolError(f"bad cascade kind {kind}")


def _serve_cascade(transport, oracle, passes):
    """Answer Cascade queries until the querying side signals completion;
    returns its success flag."""
    started = False
    while True:
        _, payload = transport.recv(MsgType.CASCADE_REQ)
        kind, arg = transport.decode(_cascade_request, payload,
                                     len(oracle.bits), passes, started)
        if kind == 0:
            oracle.start(arg, passes)
            started = True
            transport.send(MsgType.CASCADE_RESP)
        elif kind == 1:
            transport.send(MsgType.CASCADE_RESP,
                           wire.pack_bits(oracle.parities(arg)))
        elif kind == 2:
            transport.send(MsgType.CASCADE_RESP,
                           struct.pack("<Q", oracle.hash64()))
        else:
            transport.send(MsgType.CASCADE_RESP)
            return arg


def run_alice(reader, writer, config, transcript=None):
    """Sender role: generates symbols, announces magnitudes, serves Cascade
    parities, and produces the final key."""
    t = Transport(reader, writer, transcript)
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
    plan = _recv_plan(t, len(v_a), config.n_bands)
    v_a = v_a[plan.keep]
    records = pipeline.band_records(plan, np.abs(v_a),
                                    config.doubled_exponent)

    def distill(rec, bits):
        c, masks = reconcile.alice_ad_masks(
            bits, rec.repeat_n, pipeline.ad_stream(seed, rec.quad, rec.band))
        t.send(MsgType.AD_MASKS, wire.pack_bits(masks))
        _, payload = t.recv(MsgType.AD_ACCEPT)
        accepted, _ = t.decode(wire.unpack_bits, payload)
        if len(accepted) != len(c):
            raise t.fail("AD accept flags do not match the block count")
        return c[accepted.astype(bool)], int(len(masks))

    def correct(rec, bits, beta_hat):
        oracle = reconcile.ParityOracle(
            bits, pipeline.cascade_stream_factory(seed, rec.quad, rec.band))
        if not _serve_cascade(t, oracle, config.cascade_passes):
            raise ProtocolAbort("peer reported Cascade failure")
        return bits, oracle.disclosed_bits

    parts = [pipeline.band_step(rec, bits, distill, correct) for rec, bits
             in zip(records, plan.split((v_a > 0).astype(np.uint8)))]
    (alice_key,) = pipeline.finish_keys(records, [parts], config)

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
                         records, t.transcript)


def _decode_config(payload):
    """The HELLO configuration; a malformed one is a protocol error."""
    try:
        return pipeline.PipelineConfig.from_text(payload.decode())
    # UnicodeDecodeError and InvalidConfigError are ValueErrors; int() of
    # an infinite float raises OverflowError
    except (ValueError, OverflowError) as exc:
        raise ProtocolError(f"bad session config: {exc}") from None


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


def run_bob(reader, writer, transcript=None):
    """Serve side: channel simulator plus the receiver role.

    The configuration arrives in HELLO; the result carries the receiver's
    key and, as a simulator-side diagnostic, the full stage report
    computed with knowledge of the sent symbols.
    """
    t = Transport(reader, writer, transcript)
    _, payload = t.recv(MsgType.HELLO)
    config = t.decode(_decode_config, payload)
    config.resolve_var_mod()
    t.send(MsgType.HELLO_ACK, config.to_text().encode())
    seed = config.seed
    params = config.channel_params()

    # ---- channel simulator (sees the sent values; the receiver does not)
    _, payload = t.recv(MsgType.SYMBOLS)
    x_a, off = t.decode(wire.unpack_floats, payload, 0, config.n_symbols)
    p_a, _ = t.decode(wire.unpack_floats, payload, off, config.n_symbols)
    sim_symbols = channel.SymbolBatch(x_a, p_a)
    meas = channel.measure(sim_symbols, params, seed)

    # ---- receiver role: public announcements only from here on
    _, payload = t.recv(MsgType.ANNOUNCE_MAGNITUDES)
    abs_x, off = t.decode(wire.unpack_floats, payload, 0, config.n_symbols)
    abs_p, _ = t.decode(wire.unpack_floats, payload, off, config.n_symbols)

    _, payload = t.recv(MsgType.REVEAL_SUBSET)
    idx, off = t.decode(wire.unpack_indices, payload)
    rx_a, off = t.decode(wire.unpack_floats, payload, off, len(idx))
    rp_a, _ = t.decode(wire.unpack_floats, payload, off, len(idx))
    expected_idx, symbol_mask = pipeline.sift_layout(config)
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
    plan = pipeline.band_plan(ps, est, config)
    t.send(MsgType.KEEP_MASK, plan.pack())
    records = pipeline.band_records(plan, ps.kept.abs_v_a,
                                    config.doubled_exponent)

    def distill(rec, bits):
        _, payload = t.recv(MsgType.AD_MASKS)
        masks, _ = t.decode(wire.unpack_bits, payload)
        accepted, dist_b = reconcile.bob_ad_apply(bits, masks, rec.repeat_n)
        t.send(MsgType.AD_ACCEPT, wire.pack_bits(accepted))
        return dist_b, int(len(masks))

    def correct(rec, bits, beta_hat):
        oracle = _RemoteOracle(t)
        try:
            result = reconcile.cascade_correct(
                bits, oracle, beta_hat,
                pipeline.cascade_stream_factory(seed, rec.quad, rec.band),
                passes=config.cascade_passes,
            )
        except VerificationFailedError:
            oracle.done(ok=False)
            raise
        oracle.done()
        return result.bits, result.leaked_bits

    parts = [pipeline.band_step(rec, bits, distill, correct) for rec, bits
             in zip(records, plan.split(ps.kept.bob_bit))]
    (bob_key,) = pipeline.finish_keys(records, [parts], config)

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
    sent = np.concatenate([x_a[symbol_mask], p_a[symbol_mask]]) > 0
    got = np.concatenate([meas.x_b[symbol_mask], meas.p_b[symbol_mask]]) > 0
    ps.n_flip = int(np.count_nonzero(sent != got))
    kept = ps.kept
    kept.alice_bit = sent[ps.mask].astype(np.uint8)
    ps.partition.tally(kept.quad, kept.alice_bit != kept.bob_bit)
    pipeline.set_p_emp(records, ps.partition)
    report = pipeline.build_report(config, ps, records, est, time.monotonic())
    return SessionResult(bob_key, privamp.pack_key(bob_key), confirmed,
                         records, t.transcript, report)


def dump_transcript(path, transcript):
    """One frame per line: direction, message name, payload hex."""
    with open(path, "w") as fh:
        for direction, msg_type, body in transcript:
            fh.write(f"{direction} {msg_type.name} {body.hex()}\n")


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
    per-band leakage ledger of the run that produced the transcript.
    """
    ad_mask_bits = 0
    parity_bits = 0
    hash_bits = 0
    confirm_bits = 0
    pending_kind = None
    for _, msg_type, body in transcript:
        payload = body[16:]
        if msg_type == MsgType.AD_MASKS:
            (count,) = struct.unpack_from("<Q", payload, 0)
            ad_mask_bits += count
        elif msg_type == MsgType.CASCADE_REQ:
            pending_kind = payload[0]
            if pending_kind == 1:
                (parity_bits_here,) = struct.unpack_from("<Q", payload, 1)
                parity_bits += parity_bits_here
        elif msg_type == MsgType.CASCADE_RESP:
            if pending_kind == 2:
                hash_bits += reconcile.HASH_BITS
            pending_kind = None
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

import collections
import io
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from cvqkd import reconcile, session, wire
from cvqkd.errors import ProtocolAbort, ProtocolError, VerificationFailedError
from cvqkd.pipeline import (PLAN_BAND, BandPlan, BandRecord, PipelineConfig,
                            ledger_text, run_pipeline, sift_layout)
from cvqkd.rng import stream
from cvqkd.wire import MsgType


def _run_session(config, sink=None):
    sa, sb = socket.socketpair()
    res = {}

    def bob():
        with sb.makefile("rb") as r, sb.makefile("wb") as w:
            res["bob"] = session.run_bob(r, w)

    t = threading.Thread(target=bob)
    t.start()
    with sa.makefile("rb") as r, sa.makefile("wb") as w:
        res["alice"] = session.run_alice(r, w, config, sink)
    t.join()
    sa.close()
    sb.close()
    return res["alice"], res["bob"]


def _ledger(records):
    return dict(line.split("=", 1)
                for line in ledger_text(records).strip().splitlines())


CONFIG = PipelineConfig(loss=0.54, var_mod=4.0, n_symbols=50_000, n_bands=6,
                        seed=31)


@pytest.fixture(scope="module")
def completed_session():
    return _run_session(CONFIG)


def test_session_keys_agree(completed_session):
    alice, bob = completed_session
    assert alice.confirmed and bob.confirmed
    assert alice.key_bytes == bob.key_bytes
    assert len(alice.key_bytes) > 0


def test_session_matches_pipeline(completed_session):
    alice, bob = completed_session
    pres = run_pipeline(CONFIG)
    assert alice.key_bytes == pres.key_bytes
    assert _ledger(bob.records) == _ledger(pres.records)


def test_transcript_audit_matches_ledger(completed_session):
    alice, bob = completed_session
    pres = run_pipeline(CONFIG)
    total = sum(r.leaked_bits for r in pres.records)
    for side in (alice, bob):
        audit = session.audit_transcript(side.transcript)
        assert audit["total_bits"] == total
        assert max(len(body) for _, _, body in side.transcript) \
            == session.HEAD_BYTES


def test_session_result_carries_the_config(completed_session):
    alice, bob = completed_session
    assert alice.config == bob.config == CONFIG


def test_session_peak_memory_per_symbol():
    """Both roles together, at 200k symbols: ~143 B/symbol, against 288
    while the transcripts kept whole bodies and the serve side kept the
    float arrays of every symbol to the end of the run."""
    n = 200_000
    tracemalloc.start()
    try:
        alice, bob = _run_session(PipelineConfig(
            loss=0.54, var_mod=4.0, n_symbols=n, n_bands=10, seed=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alice.confirmed and alice.key_bytes == bob.key_bytes
    assert peak / n <= 200.0


def test_transcript_dump_load_roundtrip(tmp_path):
    """The transcript a role streams loads back to whole bodies whose heads
    are the in-memory transcript."""
    path = tmp_path / "transcript.log"
    with open(path, "w") as sink:
        alice, _ = _run_session(CONFIG, sink)
    back = session.load_transcript(path)
    assert [(d, t, b[:session.HEAD_BYTES]) for d, t, b in back] \
        == alice.transcript
    assert session.audit_transcript(back) == session.audit_transcript(
        alice.transcript)


def test_bob_rejects_garbage():
    sa, sb = socket.socketpair()

    def bob():
        with sb.makefile("rb") as r, sb.makefile("wb") as w:
            with pytest.raises(ProtocolError):
                session.run_bob(r, w)

    t = threading.Thread(target=bob)
    t.start()
    sa.sendall(b"not a frame at all" * 10)
    sa.shutdown(socket.SHUT_WR)
    t.join(timeout=20)
    assert not t.is_alive()
    sa.close()
    sb.close()


def test_bob_aborts_on_unexpected_message():
    sa, sb = socket.socketpair()
    errors = []

    def bob():
        with sb.makefile("rb") as r, sb.makefile("wb") as w:
            try:
                session.run_bob(r, w)
            except ProtocolError as exc:
                errors.append(exc)

    t = threading.Thread(target=bob)
    t.start()
    # a well-formed frame of the wrong type mid-handshake
    sa.sendall(wire.encode_frame(wire.MsgType.BYE, wire.AUTH_TAG))
    t.join(timeout=20)
    assert not t.is_alive()
    assert errors
    sa.close()
    sb.close()


HOLDOUT_CONFIG = PipelineConfig(loss=0.54, var_mod=4.0, n_symbols=50_000,
                                n_bands=6, seed=31, holdout=True)


def test_session_matches_pipeline_under_holdout():
    """Both paths tally p_emp on the same calibration subset."""
    alice, bob = _run_session(HOLDOUT_CONFIG)
    pres = run_pipeline(HOLDOUT_CONFIG)
    assert alice.key_bytes == bob.key_bytes == pres.key_bytes
    assert _ledger(bob.records) == _ledger(pres.records)


def test_empty_key_is_confirmed_in_both_modes():
    """An empty key is vacuously confirmed, in-process and over the wire."""
    config = PipelineConfig(loss=0.9, var_mod=4.0, n_symbols=200_000, seed=1)
    pres = run_pipeline(config)
    assert pres.confirmed and len(pres.alice_key) == 0
    alice, bob = _run_session(config)
    assert alice.confirmed and bob.confirmed
    assert alice.key_bytes == bob.key_bytes == b""


def _frames(*frames):
    """A stream holding the given (type, payload) frames."""
    return io.BytesIO(b"".join(
        wire.encode_frame(msg_type, wire.AUTH_TAG + payload)
        for msg_type, payload in frames))


def _transport(*frames):
    """A Transport reading the given (type, payload) frames from memory."""
    return session.Transport(_frames(*frames), io.BytesIO())


def _sent_types(data):
    """Message types of the frames written to ``data``, in order."""
    types = []
    while data:
        msg_type, body = wire.decode_frame(data)
        types.append(msg_type)
        data = data[wire.HEADER.size + len(body):]
    return types


SHORT_CONFIG = PipelineConfig(loss=0.54, var_mod=4.0, n_symbols=20_000,
                              n_bands=4, seed=3)


def _bob_frames(short):
    """HELLO through REVEAL_SUBSET for SHORT_CONFIG, with every array of the
    frame named ``short`` cut to 10 values."""
    n = SHORT_CONFIG.n_symbols
    x_a, p_a = stream(3, "test", "short-frames").normal(0.0, 2.0, (2, n))
    idx, _ = sift_layout(SHORT_CONFIG)

    def arrays(msg_type, *values):
        cut = 10 if msg_type.name == short else None
        return b"".join(wire.pack_floats(v[:cut]) for v in values)

    return [
        (MsgType.HELLO, SHORT_CONFIG.to_text().encode()),
        (MsgType.SYMBOLS, arrays(MsgType.SYMBOLS, x_a, p_a)),
        (MsgType.ANNOUNCE_MAGNITUDES,
         arrays(MsgType.ANNOUNCE_MAGNITUDES, np.abs(x_a), np.abs(p_a))),
        (MsgType.REVEAL_SUBSET, wire.pack_indices(idx)
         + arrays(MsgType.REVEAL_SUBSET, x_a[idx], p_a[idx])),
    ]


@pytest.mark.parametrize("short", ["ANNOUNCE_MAGNITUDES", "SYMBOLS",
                                   "REVEAL_SUBSET"])
def test_short_arrays_are_rejected_with_abort(short):
    writer = io.BytesIO()
    with pytest.raises(ProtocolError):
        session.run_bob(_frames(*_bob_frames(short)), writer)
    assert _sent_types(writer.getvalue()) == [MsgType.HELLO_ACK,
                                              MsgType.ABORT]


@pytest.mark.parametrize("hello", [b"loss=abc", b"\xff\xfe", b"bogus",
                                   b"n_symbols=5", b"n_bands=300", b"loss=",
                                   b"n_symbols=1e400", b"var_mod=nan",
                                   b"seed=-1", b"security_bits=-500",
                                   b"security_bits=0", b"reveal_fraction=-1",
                                   b"reveal_fraction=1", b"cascade_passes=0",
                                   b"cascade_passes=256", b"ad_cap=-3",
                                   b"holdout=ture",
                                   b"doubled_exponent=yes please",
                                   b"n_symbols=1e12", b"ad_cap=256"],
                         ids=["bad_float", "not_utf8", "no_equals",
                              "too_few_symbols", "too_many_bands",
                              "empty_value", "overflow", "nan_variance",
                              "negative_seed", "negative_security_bits",
                              "zero_security_bits", "negative_reveal",
                              "reveal_all", "no_cascade_passes",
                              "too_many_cascade_passes", "negative_ad_cap",
                              "misspelt_flag", "flag_with_words",
                              "too_many_symbols", "too_long_repeat"])
def test_bad_hello_is_rejected_with_abort(hello):
    writer = io.BytesIO()
    with pytest.raises(ProtocolError):
        session.run_bob(_frames((MsgType.HELLO, hello)), writer)
    assert _sent_types(writer.getvalue()) == [MsgType.ABORT]


def test_abort_is_recorded():
    sink = io.StringIO()
    with pytest.raises(ProtocolError):
        session.run_bob(_frames((MsgType.HELLO, b"loss=abc")), io.BytesIO(),
                        sink)
    lines = sink.getvalue().splitlines()
    assert [line.split()[:2] for line in lines] == [["rx", "HELLO"],
                                                   ["tx", "ABORT"]]


def _plan(fault=None):
    """A KEEP_MASK payload for 100 sifted positions and 3 bands, with the
    given fault."""
    keep = np.arange(100) % 2 == 0
    band_idx = np.arange(50, dtype=np.uint8) % 3
    table = np.zeros(6, PLAN_BAND)
    table["quad"], table["band"] = np.divmod(np.arange(6), 3)
    table["repeat_n"] = 1
    if fault == "quad_above_1":
        table["quad"][5] = 2
    elif fault == "band_out_of_range":
        table["band"][5] = 3
    elif fault == "band_twice":
        table["band"][5] = 1
    elif fault == "repeat_below_1":
        table["repeat_n"][2] = 0
    elif fault == "mask_length":
        keep = np.append(keep, False)
    elif fault == "kept_count":
        keep[1] = True
    elif fault == "band_index_out_of_range":
        band_idx[7] = 3
    payload = BandPlan(0.5, 0.5, keep, band_idx, table, None).pack()
    row = PLAN_BAND.itemsize
    return {"short": payload[:10], "row_missing": payload[:-row],
            "row_extra": payload + payload[-row:],
            "byte_extra": payload + b"\0"}.get(fault, payload)


def test_plan_roundtrips():
    plan = BandPlan.unpack(_plan(), 100, 3)
    assert plan.keep.tolist() == (np.arange(100) % 2 == 0).tolist()
    assert plan.table.tobytes() == _plan()[-6 * PLAN_BAND.itemsize:]
    # row 4 is band p1: the kept p bits are 25-49, and band 1 every third
    assert plan.split(np.arange(50))[4].tolist() == list(range(25, 50, 3))


@pytest.mark.parametrize("fault", [
    "short", "row_missing", "row_extra", "byte_extra", "quad_above_1",
    "band_out_of_range", "band_twice", "repeat_below_1", "mask_length",
    "kept_count", "band_index_out_of_range"])
def test_bad_plan_is_rejected_with_abort(fault):
    t = _transport((MsgType.KEEP_MASK, _plan(fault)))
    with pytest.raises(ProtocolError):
        session._recv_plan(t, 100, 3)
    assert _sent_types(t.writer.getvalue()) == [MsgType.ABORT]


def _step(queries=(), hashes=(), counts=None, n_bands=2):
    """A Cascade step frame for ``n_bands`` bands: (band, pass, lo, hi)
    queries and the bands it hashes, each hash mark adding 1; ``counts``
    replaces the (parities, hashes) counts of its head."""
    marks = np.zeros(n_bands, np.uint8)
    for band in hashes:
        marks[band] += 1
    return (struct.pack("<QQ", *(counts or (len(queries), len(hashes))))
            + marks.tobytes()
            + b"".join(struct.pack("<HBQQ", *e) for e in queries))


def _oracles(count):
    return [reconcile.ParityOracle(np.zeros(100, np.uint8),
                                   lambda attempt: stream(1, "test", attempt))
            for _ in range(count)]


Q0 = [(0, 0, 0, 10)]  # one range of band 0
# every one-bit range of band 0 in each of 4 passes, and one more
OVER_CAP = [(0, i // 100 % 4, i % 100, i % 100 + 1) for i in range(401)]


@pytest.mark.parametrize("frame", [
    # pass, range and count faults
    _step([(0, 9, 0, 10)]),
    _step([(0, 0, 0, 10**6)]),
    _step([(0, 0, 5, 5)]),
    _step([(0, 0, 0, 10), (0, 1, 10, 101), (0, 2, 20, 30)]),
    _step([(0, 0, 0, 10), (0, 3, 90, 100), (0, 4, 0, 10)]),
    _step(Q0, counts=(2, 0)),
    _step(OVER_CAP),
    # band tags, hashes and counts
    _step([(2, 0, 0, 10)]),
    _step(Q0, [1]),
    _step(Q0, [0, 0]),
    _step(Q0, [0], counts=(1, 2)),
    _step(Q0, counts=(1, 1)),
    _step([(1, 0, 0, 10), (0, 0, 0, 10)]),
    _step(Q0)[:17],
    _step(Q0, n_bands=1),
    bytes(3),
], ids=["pass_out_of_range", "range_past_end", "empty_range",
        "past_end_mid_batch", "pass_out_of_range_after_valid",
        "count_past_payload", "parities_past_passes_times_n",
        "band_out_of_range", "hash_not_started", "same_band_twice_in_hashes",
        "hash_count_above_marks", "hash_count_below_marks",
        "bands_out_of_order", "marks_past_payload", "marks_of_too_few_bands",
        "short_head"])
def test_bad_cascade_query_is_rejected_with_abort(frame):
    t = _transport((MsgType.CASCADE_REQ, frame))
    oracles = _oracles(2)
    with pytest.raises(ProtocolError):
        session._serve_cascade(t, oracles)
    assert [oracle.disclosed_bits for oracle in oracles] == [0, 0]
    assert _sent_types(t.writer.getvalue()) == [MsgType.ABORT]


@pytest.mark.parametrize("steps,answered", [
    # the cap of passes * n parities per attempt, reached across two steps
    ([_step(OVER_CAP[:400]), _step(Q0)], 1),
    # an attempt begins with the first parities after a hash, three at most
    ([_step(Q0), _step(hashes=[0])] * 3 + [_step(Q0)], 6),
    ([_step(Q0), _step(hashes=[0]), _step(hashes=[0])], 2),
], ids=["parities_past_the_cap", "attempt_past_the_limit",
        "hash_after_hash"])
def test_cascade_request_checks_the_band_state(steps, answered):
    """Steps checked against the state of the oracles after the steps
    before them."""
    t = _transport(*[(MsgType.CASCADE_REQ, step) for step in steps])
    oracles = _oracles(2)
    with pytest.raises(ProtocolError):
        session._serve_cascade(t, oracles)
    assert _sent_types(t.writer.getvalue()) == (
        [MsgType.CASCADE_RESP] * answered + [MsgType.ABORT])
    assert (oracles[0].attempts, oracles[1].attempts) == (
        (answered + 1) // 2, 0)


def test_cascade_steps_are_answered_in_order():
    """Queries of two bands, then a query and a hash in one step; an empty
    step ends Cascade."""
    t = _transport(
        (MsgType.CASCADE_REQ, _step([(0, 0, 0, 10), (1, 3, 5, 100)])),
        (MsgType.CASCADE_REQ, _step([(1, 0, 0, 2)], [0])),
        (MsgType.CASCADE_REQ, _step()))
    oracles = _oracles(2)
    session._serve_cascade(t, oracles)
    assert [o.disclosed_bits for o in oracles] == [65, 2]
    frames = t.writer.getvalue()
    assert _sent_types(frames) == [MsgType.CASCADE_RESP] * 2
    _, first = wire.decode_frame(frames)
    _, second = wire.decode_frame(frames[wire.HEADER.size + len(first):])
    assert first[16:] == wire.pack_bits(np.zeros(2, np.uint8))
    assert second[16:] == wire.pack_bits(np.zeros(1, np.uint8)) + struct.pack(
        "<Q", reconcile.poly_hash64(np.zeros(100, np.uint8)))


def test_cascade_runs_one_batch_per_bisection_level():
    """At criterion 8's configuration, the sequential Cascade (one parity
    query per bisection step) sent 3,251 CASCADE_REQ frames."""
    alice, _ = _run_session(PipelineConfig(
        loss=0.54, var_mod=4.0, n_symbols=50_000, n_bands=6, seed=61))
    batches = sum(1 for _, msg_type, _ in alice.transcript
                  if msg_type == MsgType.CASCADE_REQ)
    assert batches < 3251 / 10


@pytest.mark.parametrize("requests,answer", [
    ([(0, reconcile.PARITIES, np.array([[0, 0, 10], [0, 10, 20]])),
      (1, reconcile.PARITIES, np.array([[1, 0, 5]]))],
     wire.pack_bits(np.zeros(2, np.uint8))),
    ([(0, reconcile.HASH, None)], wire.pack_bits([]) + bytes(2)),
    ([(0, reconcile.HASH, None)], wire.pack_bits([]) + bytes(9)),
    ([(0, reconcile.PARITIES, np.array([[0, 0, 10]])),
      (1, reconcile.HASH, None)], wire.pack_bits(np.zeros(1, np.uint8))),
    ([(0, reconcile.HASH, None), (1, reconcile.HASH, None)],
     wire.pack_bits([]) + bytes(8)),
], ids=["batch_one_bit_short", "hash_of_2_bytes", "hash_of_9_bytes",
        "hash_missing_after_parities", "one_hash_for_two_bands"])
def test_bad_cascade_answer_is_rejected_with_abort(requests, answer):
    t = _transport((MsgType.CASCADE_RESP, answer))
    with pytest.raises(ProtocolError):
        session._bob_exchange(t, 2, requests)
    # the request went out, then the session aborted
    assert _sent_types(t.writer.getvalue()) == [MsgType.CASCADE_REQ,
                                                MsgType.ABORT]


def _ad_records():
    """Two bands of 7 and 10 bits with repeat lengths 2 and 3: 3 + 3 blocks
    and 6 + 9 mask bits."""
    records = [BandRecord("x", 0, 0.0, 0.2, 0.3, repeat_n=2),
               BandRecord("p", 1, 0.0, 0.3, 0.3, repeat_n=3)]
    return records, [np.zeros(7, np.uint8), np.ones(10, np.uint8)]


@pytest.mark.parametrize("n_masks", [14, 16, 0])
def test_bob_rejects_a_mask_total_off_the_blocks(n_masks):
    records, strings = _ad_records()
    t = _transport((MsgType.AD_MASKS, wire.pack_bits(np.zeros(n_masks))))
    with pytest.raises(ProtocolError):
        session._bob_distill(t, records, strings)
    assert _sent_types(t.writer.getvalue()) == [MsgType.ABORT]


@pytest.mark.parametrize("n_flags", [5, 7, 15])
def test_alice_rejects_accept_flags_off_the_blocks(n_flags):
    records, strings = _ad_records()
    t = _transport((MsgType.AD_ACCEPT, wire.pack_bits(np.ones(n_flags))))
    with pytest.raises(ProtocolError):
        session._alice_distill(t, 1, records, strings)
    assert _sent_types(t.writer.getvalue()) == [MsgType.AD_MASKS,
                                                MsgType.ABORT]


def test_one_ad_exchange_serves_every_band():
    records, strings = _ad_records()
    t = _transport((MsgType.AD_ACCEPT, wire.pack_bits(np.ones(6))))
    alice = session._alice_distill(t, 1, records, strings)
    _, body = wire.decode_frame(t.writer.getvalue())
    t = _transport((MsgType.AD_MASKS, body[16:]))
    bob = session._bob_distill(t, records, strings)
    assert [m for _, m in alice] == [m for _, m in bob] == [6, 9]
    assert [len(bits) for bits, _ in bob] == [3, 3]
    # Bob's strings are Alice's here, so every block is accepted and equal
    assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(alice, bob))


def test_session_turns_are_the_max_over_bands(monkeypatch):
    """One round trip per protocol step across all bands: a session's
    turns stay within the busiest band's in-process steps (parity batches,
    plus start and hash per attempt) and a few handshake turns."""
    config = PipelineConfig(loss=0.54, var_mod=4.0, n_symbols=50_000,
                            n_bands=6, seed=61)
    alice, _ = _run_session(config)
    dirs = [d for d, _, _ in alice.transcript]
    turns = sum(1 for prev, cur in zip(dirs, dirs[1:])
                if prev == "tx" and cur == "rx")
    steps = collections.Counter()
    for name, weight in (("parities", 1), ("start", 2)):
        method = getattr(reconcile.ParityOracle, name)

        def counted(self, *args, _method=method, _weight=weight):
            steps[self] += _weight
            return _method(self, *args)

        monkeypatch.setattr(reconcile.ParityOracle, name, counted)
    run_pipeline(config)
    assert turns <= max(steps.values()) + 8


def test_silent_peer_times_out():
    """A socket timeout on a silent peer ends the role with a
    ProtocolError instead of a hang."""
    sa, sb = socket.socketpair()
    sb.settimeout(0.2)
    t0 = time.monotonic()
    try:
        with sb.makefile("rb") as r, sb.makefile("wb") as w, \
                pytest.raises(ProtocolError):
            session.run_bob(r, w)
    finally:
        sa.close()
        sb.close()
    assert time.monotonic() - t0 < 2.0


@pytest.mark.parametrize("msg_type,head", [
    (MsgType.CASCADE_REQ, b"\x01\x02"), (MsgType.AD_MASKS, b"\x05")])
def test_audit_rejects_a_short_head(msg_type, head):
    with pytest.raises(ProtocolError):
        session.audit_transcript([("rx", msg_type, wire.AUTH_TAG + head)])


def _failed_cascade_session():
    """A session of SHORT_CONFIG whose receiver must end in
    VerificationFailedError, after an ABORT that ends the sender in
    ProtocolAbort; returns the receiver's error message."""
    sa, sb = socket.socketpair()
    sa.settimeout(60)  # a receiver that spins fails the test, not hangs it
    errors = {}

    def bob():
        with sb.makefile("rb") as r, sb.makefile("wb") as w:
            try:
                session.run_bob(r, w)
            except VerificationFailedError as exc:
                errors["bob"] = exc

    t = threading.Thread(target=bob)
    t.start()
    with sa.makefile("rb") as r, sa.makefile("wb") as w, \
            pytest.raises(ProtocolAbort):
        session.run_alice(r, w, SHORT_CONFIG)
    t.join(timeout=20)
    assert not t.is_alive() and "bob" in errors
    sa.close()
    sb.close()
    return str(errors["bob"])


def test_cascade_failure_ends_both_roles(monkeypatch):
    """A band whose hashes never match ends both roles."""
    hash64 = reconcile.ParityOracle.hash64
    monkeypatch.setattr(reconcile.ParityOracle, "hash64",
                        lambda self: hash64(self) ^ 1)  # never Bob's hash
    assert "3 Cascade attempts" in _failed_cascade_session()


def test_inconsistent_parities_end_both_roles(monkeypatch):
    """A sender that answers from other permutations than the receiver's
    ends both roles: the receiver's flips mend nothing, and it fails once
    an attempt has flipped more bits than its band holds."""

    class Shifted(reconcile.ParityOracle):
        def __init__(self, bits, factory, passes):
            super().__init__(bits, lambda attempt: factory(attempt + 3),
                             passes)

    monkeypatch.setattr(reconcile, "ParityOracle", Shifted)
    assert "flipped" in _failed_cascade_session()

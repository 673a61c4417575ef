import io
import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from cvqkd import reconcile, session, wire
from cvqkd.errors import ProtocolError
from cvqkd.pipeline import (PipelineConfig, ledger_text, run_pipeline,
                            sift_layout)
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


def _sent_abort(t):
    msg_type, _ = wire.decode_frame(t.writer.getvalue())
    return msg_type == wire.MsgType.ABORT


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
                                   b"doubled_exponent=yes please"],
                         ids=["bad_float", "not_utf8", "no_equals",
                              "too_few_symbols", "too_many_bands",
                              "empty_value", "overflow", "nan_variance",
                              "negative_seed", "negative_security_bits",
                              "zero_security_bits", "negative_reveal",
                              "reveal_all", "no_cascade_passes",
                              "too_many_cascade_passes", "negative_ad_cap",
                              "misspelt_flag", "flag_with_words"])
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


def test_short_plan_is_rejected_with_abort():
    t = _transport((wire.MsgType.KEEP_MASK, bytes(10)))
    with pytest.raises(ProtocolError):
        session._recv_plan(t, 1000, 6)
    assert _sent_abort(t)


def _cascade_frames(queries, count=None):
    start = b"\x00" + struct.pack("<II", 0, 4)
    batch = b"\x01" + struct.pack(
        "<Q", len(queries) if count is None else count) + b"".join(
        struct.pack("<BQQ", *q) for q in queries)
    return _transport((wire.MsgType.CASCADE_REQ, start),
                      (wire.MsgType.CASCADE_REQ, batch))


@pytest.mark.parametrize("queries,count", [
    ([(9, 0, 10)], None),
    ([(0, 0, 10**6)], None),
    ([(0, 5, 5)], None),
    ([(0, 0, 10), (1, 10, 101), (2, 20, 30)], None),
    ([(0, 0, 10), (3, 90, 100), (4, 0, 10)], None),
    ([(0, 0, 10)], 2),
], ids=["pass_out_of_range", "range_past_end", "empty_range",
        "past_end_mid_batch", "pass_out_of_range_after_valid",
        "count_past_payload"])
def test_bad_cascade_query_is_rejected_with_abort(queries, count):
    t = _cascade_frames(queries, count)
    oracle = reconcile.ParityOracle(np.zeros(100, np.uint8),
                                    lambda attempt: stream(1, "test", attempt))
    with pytest.raises(ProtocolError):
        session._serve_cascade(t, oracle, 4)
    assert oracle.disclosed_bits == 0
    # the start was answered, then the session aborted
    frames = t.writer.getvalue()
    _, first = wire.decode_frame(frames)
    rest = frames[wire.HEADER.size + len(first):]
    assert wire.decode_frame(rest)[0] == wire.MsgType.ABORT


def test_cascade_runs_one_batch_per_bisection_level():
    """At criterion 8's configuration, the sequential Cascade (one parity
    query per bisection step) sent 3,251 kind-1 CASCADE_REQ frames."""
    alice, _ = _run_session(PipelineConfig(
        loss=0.54, var_mod=4.0, n_symbols=50_000, n_bands=6, seed=61))
    batches = sum(1 for _, msg_type, body in alice.transcript
                  if msg_type == MsgType.CASCADE_REQ and body[16] == 1)
    assert batches < 3251 / 10


@pytest.mark.parametrize("kind,answer", [
    (1, wire.pack_bits(np.zeros(2, np.uint8))),
    (2, bytes(2)),
    (2, bytes(9)),
], ids=["batch_one_bit_short", "hash_of_2_bytes", "hash_of_9_bytes"])
def test_bad_cascade_answer_is_rejected_with_abort(kind, answer):
    t = _transport((MsgType.CASCADE_RESP, answer))
    oracle = session._RemoteOracle(t)
    with pytest.raises(ProtocolError):
        if kind == 1:
            oracle.parities(np.array([[0, 0, 10], [0, 10, 20], [1, 0, 5]]))
        else:
            oracle.hash64()
    assert oracle.disclosed_bits == 0
    # the request went out, then the session aborted
    assert _sent_types(t.writer.getvalue()) == [MsgType.CASCADE_REQ,
                                                MsgType.ABORT]

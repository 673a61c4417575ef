import io
import socket
import struct
import threading

import numpy as np
import pytest

from cvqkd import reconcile, session, wire
from cvqkd.errors import ProtocolError
from cvqkd.pipeline import PipelineConfig, ledger_text, run_pipeline
from cvqkd.rng import stream


def _run_session(config):
    sa, sb = socket.socketpair()
    res = {}

    def bob():
        with sb.makefile("rb") as r, sb.makefile("wb") as w:
            res["bob"] = session.run_bob(r, w)

    t = threading.Thread(target=bob)
    t.start()
    with sa.makefile("rb") as r, sa.makefile("wb") as w:
        res["alice"] = session.run_alice(r, w, config)
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


def test_transcript_dump_load_roundtrip(tmp_path, completed_session):
    alice, _ = completed_session
    path = tmp_path / "transcript.log"
    session.dump_transcript(path, alice.transcript)
    back = session.load_transcript(path)
    assert len(back) == len(alice.transcript)
    for (d1, t1, b1), (d2, t2, b2) in zip(back, alice.transcript):
        assert (d1, t1, b1) == (d2, t2, b2)
    audit = session.audit_transcript(back)
    assert audit["total_bits"] == session.audit_transcript(
        alice.transcript
    )["total_bits"]


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


def _transport(*frames):
    """A Transport reading the given (type, payload) frames from memory."""
    reader = io.BytesIO(b"".join(
        wire.encode_frame(msg_type, wire.AUTH_TAG + payload)
        for msg_type, payload in frames))
    return session.Transport(reader, io.BytesIO())


def _sent_abort(t):
    msg_type, _ = wire.decode_frame(t.writer.getvalue())
    return msg_type == wire.MsgType.ABORT


def test_short_plan_is_rejected_with_abort():
    t = _transport((wire.MsgType.KEEP_MASK, bytes(10)))
    with pytest.raises(ProtocolError):
        session._recv_plan(t, 1000, 6)
    assert _sent_abort(t)


def _cascade_frames(*queries):
    start = b"\x00" + struct.pack("<II", 0, 4)
    batch = b"\x01" + struct.pack("<Q", len(queries)) + b"".join(
        struct.pack("<BQQ", *q) for q in queries)
    return _transport((wire.MsgType.CASCADE_REQ, start),
                      (wire.MsgType.CASCADE_REQ, batch))


@pytest.mark.parametrize("query", [(9, 0, 10), (0, 0, 10**6)],
                         ids=["pass_out_of_range", "range_past_end"])
def test_bad_cascade_query_is_rejected_with_abort(query):
    t = _cascade_frames(query)
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

"""Mutated frames of a real session fed to the payload decoders: whatever
the bytes, a decoder returns or raises ``ProtocolError``, never another
exception."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkd import reconcile, session, wire
from cvqkd.errors import ProtocolError
from cvqkd.pipeline import BandPlan, PipelineConfig
from cvqkd.rng import stream
from cvqkd.wire import MsgType

from test_session import _run_session

# criterion 8's configuration
CONFIG = PipelineConfig(loss=0.54, var_mod=4.0, n_symbols=50_000, n_bands=6,
                        seed=61)
FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=150)


@pytest.fixture(scope="module")
def corpus():
    """Payloads (tag stripped) of every frame of one session, by type, and
    the band lengths Alice serves Cascade on."""
    sink = io.StringIO()
    alice, _ = _run_session(CONFIG, sink)
    sink.seek(0)
    frames = {}
    for line in sink:
        _, name, body = line.split()
        frames.setdefault(MsgType[name], []).append(bytes.fromhex(body)[16:])
    return frames, np.array([rec.n_distilled for rec in alice.records],
                            np.uint64)


@st.composite
def mutated(draw, payloads):
    """A payload cut short, with bytes flipped, or spliced onto another."""
    data = bytearray(draw(st.sampled_from(payloads)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["truncate", "flip", "splice"]))
        if op == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        elif op == "flip" and data:
            data[draw(st.integers(0, len(data) - 1))] ^= draw(
                st.integers(1, 255))
        elif op == "splice":
            other = draw(st.sampled_from(payloads))
            data = (data[:draw(st.integers(0, len(data)))]
                    + other[draw(st.integers(0, len(other))):])
    return bytes(data)


def _only_protocol_errors(decoder, *args):
    try:
        decoder(*args)
    except ProtocolError:
        pass


@FUZZ
@given(data=st.data())
def test_fuzzed_cascade_requests(corpus, data):
    frames, n = corpus
    payload = data.draw(mutated(frames[MsgType.CASCADE_REQ]))
    oracles = []
    for length in n.tolist():
        oracle = reconcile.ParityOracle(np.zeros(length, np.uint8),
                                        lambda attempt: stream(1, "fuzz"),
                                        CONFIG.cascade_passes)
        # attempts begun, and whether the last one is live
        oracle.attempts, live = data.draw(st.tuples(st.integers(0, 3),
                                                    st.booleans()))
        if live and oracle.attempts:
            oracle.attempts -= 1
            oracle.start()
            oracle.asked = data.draw(st.integers(
                0, CONFIG.cascade_passes * length))
        oracles.append(oracle)
    _only_protocol_errors(session._cascade_request, payload, oracles)


@FUZZ
@given(data=st.data())
def test_fuzzed_cascade_answers(corpus, data):
    frames, _ = corpus
    payload = data.draw(mutated(frames[MsgType.CASCADE_RESP]))
    _only_protocol_errors(session._cascade_answers, payload,
                          data.draw(st.integers(0, 2000)),
                          data.draw(st.integers(0, 12)))


@FUZZ
@given(data=st.data())
def test_fuzzed_ad_frames(corpus, data):
    frames, _ = corpus
    payload = data.draw(mutated(frames[MsgType.AD_MASKS]
                                + frames[MsgType.AD_ACCEPT]))
    _only_protocol_errors(wire.unpack_bits, payload, 0,
                          data.draw(st.integers(0, 1 << 16)))


@FUZZ
@given(data=st.data())
def test_fuzzed_band_plans(corpus, data):
    frames, _ = corpus
    (plan,) = frames[MsgType.KEEP_MASK]
    (n_sift,) = wire.unpack_from("<Q", plan, 16)  # the keep mask's length
    payload = data.draw(mutated([plan]))
    _only_protocol_errors(BandPlan.unpack, payload, n_sift, CONFIG.n_bands)

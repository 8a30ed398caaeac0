"""Wire frame encoding: bit-exact bytes, strict decoding, round trips."""

import random

import pytest

from orchestra.errors import DecodeError, EncodeError, ValidationError
from orchestra.frames import (
    Frame, decode_frame, encode_frame, fault_frame, request_frame,
    response_frame, salvage_request_id,
)
from orchestra.state import State


def test_request_encoding_is_bit_exact():
    raw = encode_frame(request_frame("1", "ping"))
    assert raw == b'{"id":"1","type":"request","operation":"ping","resource":"","payload":{}}\n'


def test_fault_key_is_last():
    raw = encode_frame(fault_frame("9", "div", "DivisionByZero"))
    assert raw.endswith(b',"fault":"DivisionByZero"}\n')
    assert raw.count(b"\n") == 1


def test_no_inner_linefeed():
    raw = encode_frame(request_frame("1", "op", State({"s": "a\nb"})))
    assert raw.count(b"\n") == 1
    assert decode_frame(raw).payload.lookup("s") == "a\nb"


def test_payload_variants_survive():
    payload = State({"i": 3, "d": 3.0, "b": False, "s": "x"})
    back = decode_frame(encode_frame(request_frame("5", "op", payload)))
    assert back.payload == payload


def test_decode_rejects_missing_key():
    raw = b'{"id":"1","type":"request","resource":"","payload":{}}\n'
    with pytest.raises(DecodeError):
        decode_frame(raw)


def test_decode_rejects_unknown_type():
    raw = b'{"id":"1","type":"reply","operation":"x","resource":"","payload":{}}\n'
    with pytest.raises(DecodeError):
        decode_frame(raw)


def test_decode_rejects_unknown_keys():
    raw = b'{"id":"1","type":"request","operation":"x","resource":"","payload":{},"extra":1}\n'
    with pytest.raises(DecodeError):
        decode_frame(raw)


def test_decode_rejects_structured_payload():
    raw = b'{"id":"1","type":"request","operation":"x","resource":"","payload":{"a":[1]}}\n'
    with pytest.raises(DecodeError):
        decode_frame(raw)


def test_decode_rejects_fault_on_response():
    raw = b'{"id":"1","type":"response","operation":"x","resource":"","payload":{},"fault":"F"}\n'
    with pytest.raises(DecodeError):
        decode_frame(raw)


def test_encode_rejects_non_finite_double():
    for value in (float("inf"), float("-inf"), float("nan")):
        # the value rule keeps such a double out of every checked state; the
        # encoder still refuses one that skipped the check
        with pytest.raises(ValidationError):
            State({"d": value})
        with pytest.raises(EncodeError):
            encode_frame(request_frame("1", "op", State({"d": value}, _trusted=True)))


def test_encode_rejects_mistyped_frames():
    with pytest.raises(EncodeError):
        encode_frame(Frame("1", "bogus", "op"))
    with pytest.raises(EncodeError):
        encode_frame(Frame("1", "fault", "op"))  # fault frame without a name
    with pytest.raises(EncodeError):
        encode_frame(Frame("1", "request", "op", fault="F"))


def random_frame(rng: random.Random) -> Frame:
    names = ["a", "b", "c", "field_x", "N9"]
    payload = {}
    for name in rng.sample(names, rng.randrange(len(names))):
        payload[name] = rng.choice([
            rng.randrange(-(2**40), 2**40),
            rng.random() * 100 - 50,
            rng.random() < 0.5,
            "".join(rng.choice('ab"\\\n\tфт û') for _ in range(rng.randrange(6))),
        ])
    ftype = rng.choice(["request", "response", "fault"])
    frame_id = str(rng.randrange(10**6))
    op = rng.choice(["ping", "sum", "weird_op"])
    if ftype == "request":
        return request_frame(frame_id, op, State(payload), rng.choice(["", "A", "deep/res"]))
    if ftype == "response":
        return response_frame(frame_id, op, State(payload))
    return fault_frame(frame_id, op, rng.choice(["IOFault", "F", "TypeFault"]), State(payload))


def test_roundtrip_random_frames():
    rng = random.Random(1234)
    for _ in range(2000):
        f = random_frame(rng)
        assert decode_frame(encode_frame(f)) == f


def test_salvage_request_id():
    assert salvage_request_id(b'{"id":"42","type":"junk"}') == "42"
    assert salvage_request_id(b"not json at all") == ""
    assert salvage_request_id(b'{"id":7}') == ""

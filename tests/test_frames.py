"""Wire frame encoding: bit-exact bytes, strict decoding, round trips."""

import json
import random

import pytest
from hypothesis import given, strategies as st

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


@pytest.mark.parametrize("payload", [
    b"null", b"[]", b'"x"', b'{"\\u00e9":1}', b'{"a b":1}', b'{"a":null}', b'{"a":[1]}',
    b'{"a":9223372036854775808}', b'{"a":1e999}', b'{"a":NaN}', b'{"a":"\\ud800"}',
    b'{"a":' + b"9" * 5000 + b"}",
], ids=lambda payload: payload[:24].decode())
def test_decode_rejects_a_payload_outside_the_value_rule(payload):
    line = b'{"id":"1","type":"request","operation":"x","resource":"","payload":' + payload + b"}\n"
    with pytest.raises(DecodeError):
        decode_frame(line)


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


def test_a_line_nested_past_the_parsers_depth_is_a_decode_error():
    line = b"[" * 100_000 + b"\n"
    with pytest.raises(DecodeError):
        decode_frame(line)
    assert salvage_request_id(line) == ""


# The reference the codec must match byte for byte: the standard library's
# encoder with the settings frame/1 names, over the frame's key order.
_REFERENCE = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def reference_encoding(f: Frame) -> bytes:
    obj = {"id": f.id, "type": f.type, "operation": f.operation, "resource": f.resource,
           "payload": dict(sorted(f.payload.items()))}
    if f.type == "fault":
        obj["fault"] = f.fault
    return _REFERENCE.encode(obj).encode("utf-8") + b"\n"


# Characters an escaper can get wrong: quotes, backslashes, every control
# character, the JavaScript line separators, and text beyond the BMP.
_TRICKY = '"\\/' + "".join(map(chr, range(0x20))) + "\x7f\u2028\u2029\u00e9\U0001f600\U0010ffff"
_texts = st.text(st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from(_TRICKY)),
                 max_size=12)
_values = st.one_of(
    _texts,
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1, 0, -1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 1e16, 0.1]),
    st.booleans(),
)
_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)


@st.composite
def frames_of_every_type(draw) -> Frame:
    ftype = draw(st.sampled_from(["request", "response", "fault"]))
    fault = draw(_texts.filter(bool)) if ftype == "fault" else ""
    payload = State(draw(st.dictionaries(_names, _values, max_size=5)))
    resource = draw(_texts) if ftype == "request" else ""
    return Frame(draw(_texts), ftype, draw(_texts), resource, payload, fault)


@given(frames_of_every_type())
def test_encoding_matches_the_reference_encoder_byte_for_byte(f):
    raw = encode_frame(f)
    assert raw == reference_encoding(f)
    assert decode_frame(raw) == f


@given(frames_of_every_type(), st.sampled_from(["id", "operation", "resource", "fault", "payload"]),
       st.sampled_from(["\ud800", "\udfff", "a\udc00b"]))
def test_a_lone_surrogate_anywhere_is_an_encode_error(f, where, bad):
    if where == "payload":
        f = f._replace(payload=State({"s": bad}, _trusted=True))
    elif where == "fault":
        f = fault_frame(f.id, f.operation, bad, f.payload)
    else:
        f = f._replace(**{where: bad})
    with pytest.raises(EncodeError):
        encode_frame(f)

"""The framed wire protocol ("frame/1"): one JSON object per LF line.

A frame is a UTF-8 JSON object with keys in the fixed order
``id, type, operation, resource, payload`` and, for fault frames only, a
trailing ``fault`` key.  No whitespace, one terminating LF, and never a
raw LF inside the JSON (string escapes are mandatory).  Responses and
faults answer the request with the same id on the same connection, which
is what lets several calls share one channel.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring
from typing import NamedTuple

from . import state
from .errors import DecodeError, EncodeError, ValidationError
from .state import EMPTY, State

REQUEST = "request"
RESPONSE = "response"
FAULT = "fault"

_TYPES = (REQUEST, RESPONSE, FAULT)
_KEYS = frozenset({"id", "type", "operation", "resource", "payload", "fault"})
_REQUIRED = frozenset({"id", "type", "operation", "resource", "payload"})

# The escaper ``json.JSONEncoder`` uses for strings when
# ``ensure_ascii=False``, and the reprs it writes numbers with: a frame
# written from the template below is byte for byte what that encoder,
# with ``separators=(",", ":")`` and ``allow_nan=False``, writes.
_quote = encode_basestring
_int_text = int.__repr__
_float_text = float.__repr__
_isfinite = math.isfinite
_DECODER = json.JSONDecoder()
_JSON_SPACE = " \t\n\r"

# What reading a line that is not JSON raises: bad UTF-8 and bad syntax
# (both ValueErrors), an integer too long for ``int`` to read (a plain
# ValueError), or nesting deeper than the parser's recursion allows.
_NOT_JSON = (ValueError, RecursionError)


class Frame(NamedTuple):
    id: str
    type: str
    operation: str
    resource: str = ""
    payload: State = EMPTY
    fault: str = ""


def request_frame(id: str, operation: str, payload: State = EMPTY, resource: str = "") -> Frame:
    return Frame(id, REQUEST, operation, resource, payload)


def response_frame(id: str, operation: str, payload: State = EMPTY) -> Frame:
    return Frame(id, RESPONSE, operation, "", payload)


def fault_frame(id: str, operation: str, fault: str, payload: State = EMPTY) -> Frame:
    return Frame(id, FAULT, operation, "", payload, fault)


def encode_frame(f: Frame) -> bytes:
    """Bit-exact encoding: fixed key order, no whitespace, one trailing LF.
    The payload's keys are sorted, its doubles keep their fraction marker,
    and a lone surrogate or a double that is not finite is ``EncodeError``."""
    ftype = f.type
    if ftype not in _TYPES:
        raise EncodeError(f"unknown frame type {ftype!r}")
    if ftype == FAULT:
        if not f.fault:
            raise EncodeError("fault frame without a fault name")
    elif f.fault:
        raise EncodeError(f"{ftype} frame must not carry a fault name")
    for label, value in (("id", f.id), ("operation", f.operation), ("resource", f.resource)):
        if not isinstance(value, str):
            raise EncodeError(f"frame {label} must be a string")
    try:
        fields = []
        for name, v in sorted(f.payload.items()):
            t = type(v)
            if t is str:
                text = _quote(v)
            elif t is int:
                text = _int_text(v)
            elif t is float:
                if not _isfinite(v):
                    raise EncodeError(f"double is not finite: {v!r}")
                text = _float_text(v)
            elif t is bool:
                text = "true" if v else "false"
            else:
                raise EncodeError(f"not a value: {v!r} ({t.__name__})")
            fields.append(f"{_quote(name)}:{text}")
        tail = f',"fault":{_quote(f.fault)}}}\n' if ftype == FAULT else "}\n"
        text = (f'{{"id":{_quote(f.id)},"type":"{ftype}","operation":{_quote(f.operation)},'
                f'"resource":{_quote(f.resource)},"payload":{{{",".join(fields)}}}{tail}')
        return text.encode()
    except (TypeError, UnicodeEncodeError) as e:  # a name that is no string, a lone surrogate
        raise EncodeError(str(e)) from e


def decode_frame(line: bytes) -> Frame:
    """Inverse of encode for valid frames; unknown keys or types rejected.
    One pass checks the frame's strings and, by ``State(...)``, its
    payload's names and values."""
    try:
        # what json.loads accepts: one JSON text between JSON whitespace
        text = line.decode("utf-8").strip(_JSON_SPACE)
        obj, end = _DECODER.raw_decode(text)
    except _NOT_JSON as e:
        raise DecodeError(f"not a JSON frame: {e}") from e
    if end != len(text):
        raise DecodeError(f"not a JSON frame: extra data at offset {end}")
    if type(obj) is not dict:
        raise DecodeError("frame is not a JSON object")
    keys = obj.keys()
    if not keys <= _KEYS:
        raise DecodeError(f"unknown frame keys {sorted(keys - _KEYS)}")
    if not keys >= _REQUIRED:
        raise DecodeError(f"frame is missing {sorted(_REQUIRED - keys)}")
    ftype = obj["type"]
    if ftype not in _TYPES:
        raise DecodeError(f"unknown frame type {ftype!r}")
    frame_id, operation, resource = obj["id"], obj["operation"], obj["resource"]
    for key, value in (("id", frame_id), ("operation", operation), ("resource", resource)):
        if type(value) is not str or not state.is_text(value):
            raise DecodeError(f"frame {key} must be a UTF-8 string")
    if ftype == FAULT:
        fault = obj.get("fault")
        if not isinstance(fault, str) or not fault or not state.is_text(fault):
            raise DecodeError("fault frame needs a non-empty UTF-8 fault name")
    elif "fault" in obj:
        raise DecodeError(f"{ftype} frame must not carry a fault key")
    else:
        fault = ""
    payload = obj["payload"]
    if type(payload) is not dict:
        raise DecodeError(f"bad frame payload: not a JSON object but {type(payload).__name__}")
    try:
        payload = State(payload)
    except ValidationError as e:
        raise DecodeError(f"bad frame payload: {e}") from e
    return Frame(frame_id, ftype, operation, resource, payload, fault)


def salvage_request_id(line: bytes) -> str:
    """Best-effort id extraction from a rejected line, for fault answers."""
    try:
        obj = json.loads(line.decode("utf-8", errors="replace"))
    except _NOT_JSON:
        return ""
    frame_id = obj.get("id") if isinstance(obj, dict) else None
    if isinstance(frame_id, str) and state.is_text(frame_id):
        return frame_id
    return ""

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
from typing import NamedTuple

from . import state
from .errors import DecodeError, EncodeError
from .state import EMPTY, State

REQUEST = "request"
RESPONSE = "response"
FAULT = "fault"

_TYPES = (REQUEST, RESPONSE, FAULT)
_KEYS = frozenset({"id", "type", "operation", "resource", "payload", "fault"})
_REQUIRED = frozenset({"id", "type", "operation", "resource", "payload"})

# One encoder and one decoder for every frame; ``json.dumps`` with these
# settings would build a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, allow_nan=False)
_DECODER = json.JSONDecoder()
_JSON_SPACE = " \t\n\r"

# What reading a line that is not JSON raises: bad UTF-8, bad syntax, or
# nesting deeper than the parser's recursion allows.
_NOT_JSON = (UnicodeDecodeError, json.JSONDecodeError, RecursionError)


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
    """Bit-exact encoding: fixed key order, no whitespace, one trailing LF."""
    if f.type not in _TYPES:
        raise EncodeError(f"unknown frame type {f.type!r}")
    if f.type == FAULT and not f.fault:
        raise EncodeError("fault frame without a fault name")
    if f.type != FAULT and f.fault:
        raise EncodeError(f"{f.type} frame must not carry a fault name")
    for label, value in (("id", f.id), ("operation", f.operation), ("resource", f.resource)):
        if not isinstance(value, str):
            raise EncodeError(f"frame {label} must be a string")
    obj: dict = {
        "id": f.id,
        "type": f.type,
        "operation": f.operation,
        "resource": f.resource,
        "payload": state.to_json_obj(f.payload),
    }
    if f.type == FAULT:
        obj["fault"] = f.fault
    try:
        return _ENCODER.encode(obj).encode("utf-8") + b"\n"
    except (TypeError, ValueError) as e:  # UnicodeEncodeError is a ValueError
        raise EncodeError(str(e)) from e


def decode_frame(line: bytes) -> Frame:
    """Inverse of encode for valid frames; unknown keys or types rejected."""
    try:
        # what json.loads accepts: one JSON text between JSON whitespace
        text = line.decode("utf-8").strip(_JSON_SPACE)
        obj, end = _DECODER.raw_decode(text)
    except _NOT_JSON as e:
        raise DecodeError(f"not a JSON frame: {e}") from e
    if end != len(text):
        raise DecodeError(f"not a JSON frame: extra data at offset {end}")
    if not isinstance(obj, dict):
        raise DecodeError("frame is not a JSON object")
    keys = obj.keys()
    if not keys <= _KEYS:
        raise DecodeError(f"unknown frame keys {sorted(keys - _KEYS)}")
    if not keys >= _REQUIRED:
        raise DecodeError(f"frame is missing {sorted(_REQUIRED - keys)}")
    ftype = obj["type"]
    if ftype not in _TYPES:
        raise DecodeError(f"unknown frame type {ftype!r}")
    for key in ("id", "operation", "resource"):
        value = obj[key]
        if type(value) is not str or not state.is_text(value):
            raise DecodeError(f"frame {key} must be a UTF-8 string")
    if ftype == FAULT:
        fault = obj.get("fault")
        if not isinstance(fault, str) or not fault or not state.is_text(fault):
            raise DecodeError("fault frame needs a non-empty UTF-8 fault name")
    elif "fault" in obj:
        raise DecodeError(f"{ftype} frame must not carry a fault key")
    try:
        payload = state.from_json_obj(obj["payload"])
    except Exception as e:
        raise DecodeError(f"bad frame payload: {e}") from e
    return Frame(obj["id"], ftype, obj["operation"], obj["resource"], payload,
                 obj.get("fault", ""))


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

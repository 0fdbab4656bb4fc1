"""Binary framing for the TCP transport.

Frame layout, all little-endian:

    magic   4 bytes  b"DPSG"
    type    u8       PULL_REQ=0 MODEL=1 PUSH=2 SHUTDOWN=3
    length  u32      payload byte count
    payload

MODEL payload:  version u64 | dim u64 | dim float64 values
PUSH payload:   worker_id u32 | base_version u64 | dim u64 | dim float64

PULL_REQ and SHUTDOWN carry empty payloads. A malformed frame raises
WireProtocolError; the TCP layer treats that as fatal for the connection.
A decoded vector is a view of its payload, not a copy: read-only, since
payloads are bytes or memoryviews of bytes.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import WireProtocolError

MAGIC = b"DPSG"
PULL_REQ = 0
MODEL = 1
PUSH = 2
SHUTDOWN = 3
_TYPES = (PULL_REQ, MODEL, PUSH, SHUTDOWN)

_HEADER = struct.Struct("<4sBI")
_MODEL_HEAD = struct.Struct("<QQ")
_PUSH_HEAD = struct.Struct("<IQQ")
HEADER_SIZE = _HEADER.size
MAX_PAYLOAD = 1 << 30


@dataclass(frozen=True)
class ModelMessage:
    version: int
    values: np.ndarray


@dataclass(frozen=True)
class PushMessage:
    worker_id: int
    base_version: int
    delta: np.ndarray


def _vector_bytes(values) -> tuple[int, bytes]:
    arr = np.ascontiguousarray(values, dtype="<f8")
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise WireProtocolError(
            f"refusing to encode a vector of shape {arr.shape}"
        )
    return arr.shape[0], arr.tobytes()


def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    if msg_type not in _TYPES:
        raise WireProtocolError(f"unknown message type {msg_type}")
    if len(payload) > MAX_PAYLOAD:
        raise WireProtocolError("payload too large")
    return _HEADER.pack(MAGIC, msg_type, len(payload)) + payload


def encode_pull_req() -> bytes:
    return encode_frame(PULL_REQ)


def encode_shutdown() -> bytes:
    return encode_frame(SHUTDOWN)


def encode_model(version: int, values) -> bytes:
    dim, body = _vector_bytes(values)
    return encode_frame(MODEL, _MODEL_HEAD.pack(version, dim) + body)


def encode_push(worker_id: int, base_version: int, delta) -> bytes:
    dim, body = _vector_bytes(delta)
    return encode_frame(PUSH, _PUSH_HEAD.pack(worker_id, base_version, dim) + body)


def split_header(header: bytes) -> tuple[int, int]:
    """Parse the fixed header; returns (msg_type, payload_len)."""
    if len(header) != HEADER_SIZE:
        raise WireProtocolError(
            f"truncated header: {len(header)} of {HEADER_SIZE} bytes"
        )
    magic, msg_type, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireProtocolError(f"bad magic {magic!r}")
    if msg_type not in _TYPES:
        raise WireProtocolError(f"unknown message type {msg_type}")
    if length > MAX_PAYLOAD:
        raise WireProtocolError(f"payload length {length} exceeds limit")
    return msg_type, length


def _decode_vector(payload, offset: int, dim: int) -> np.ndarray:
    if dim == 0:
        raise WireProtocolError("zero-dimension vector rejected")
    need = offset + 8 * dim
    if len(payload) != need:
        raise WireProtocolError(
            f"payload length {len(payload)} != {need} implied by dim {dim}"
        )
    return np.frombuffer(payload, dtype="<f8", count=dim, offset=offset)


def decode_payload(msg_type: int, payload):
    """Decode a payload into None, ModelMessage, or PushMessage."""
    if msg_type in (PULL_REQ, SHUTDOWN):
        if payload:
            raise WireProtocolError(
                f"message type {msg_type} carries no payload, got {len(payload)} bytes"
            )
        return None
    if msg_type == MODEL:
        if len(payload) < _MODEL_HEAD.size:
            raise WireProtocolError("truncated model payload")
        version, dim = _MODEL_HEAD.unpack_from(payload)
        return ModelMessage(version, _decode_vector(payload, _MODEL_HEAD.size, dim))
    if len(payload) < _PUSH_HEAD.size:
        raise WireProtocolError("truncated push payload")
    worker_id, base_version, dim = _PUSH_HEAD.unpack_from(payload)
    return PushMessage(
        worker_id, base_version, _decode_vector(payload, _PUSH_HEAD.size, dim)
    )


def decode_frame(buf: bytes):
    """Decode one complete frame from a byte string (for tests and tools)."""
    msg_type, length = split_header(buf[:HEADER_SIZE])
    payload = buf[HEADER_SIZE:]
    if len(payload) != length:
        raise WireProtocolError(
            f"frame carries {len(payload)} payload bytes, header says {length}"
        )
    return msg_type, decode_payload(msg_type, payload)

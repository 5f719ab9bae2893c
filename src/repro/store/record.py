"""On-disk record format of the artifact store.

One record is one self-verifying file::

    MAGIC | header length (4 bytes, big-endian) | header JSON | payload
          | SHA-256 of every byte before it (32 bytes)

The header is a canonical (sorted-keys) JSON object carrying the store
schema version, the record's content key, the payload schema and size
and the writer's ``meta``.  The trailing digest covers the magic, the
header and the payload alike, so :func:`decode_record` proves that
every byte on disk is a byte that was written.  Any violation (bad
magic, truncated header or payload, checksum mismatch, undecodable
JSON) raises :class:`RecordError`; the store reacts by *quarantining*
the file, never by crashing the flow (a corrupt cache entry is a miss,
not an error).

Because the header serialization is canonical, two writers encoding the
same ``(key, schema, payload, meta)`` produce byte-identical records --
which is what lets concurrent writers of one fingerprint converge on a
single valid file regardless of who wins the rename race.

Schema versioning: ``schema`` is stamped into every header.  A reader
built for a different schema treats the record as a miss (the tier keys
also fold the schema in, so mismatched records are normally never even
looked up); it never attempts a cross-version decode.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["MAGIC", "STORE_SCHEMA_VERSION", "RecordError", "StoreRecord",
           "encode_record", "decode_record"]

#: File magic: identifies artifact-store records (and their format era).
MAGIC = b"repro-store\x00"

#: Version of the record format itself (header layout + checksum).
#: Bumped when the container format changes; the *payload* schema is the
#: separate per-record ``schema`` field owned by the writer.
STORE_SCHEMA_VERSION = 2

_HEADER_LENGTH_BYTES = 4
_DIGEST_BYTES = hashlib.sha256().digest_size


class RecordError(ValueError):
    """A record's bytes do not decode to what its header promises."""


@dataclass(frozen=True)
class StoreRecord:
    """One decoded record: verified payload plus its header metadata."""

    key: str
    schema: int
    payload: bytes
    meta: Mapping[str, Any] = field(default_factory=dict)


def encode_record(key: str, payload: bytes, schema: int,
                  meta: Mapping[str, Any] | None = None) -> bytes:
    """Serialize one record; deterministic for identical inputs."""
    if not isinstance(payload, (bytes, bytearray)):
        raise TypeError(f"payload must be bytes, got "
                        f"{type(payload).__name__}")
    header = {
        "format": STORE_SCHEMA_VERSION,
        "key": key,
        "schema": schema,
        "size": len(payload),
        "meta": dict(meta or {}),
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    body = (MAGIC + len(header_bytes).to_bytes(_HEADER_LENGTH_BYTES, "big")
            + header_bytes + bytes(payload))
    return body + hashlib.sha256(body).digest()


def decode_record(blob: bytes) -> StoreRecord:
    """Parse and *verify* one record; :class:`RecordError` on any damage."""
    if not blob.startswith(MAGIC):
        raise RecordError("bad magic: not an artifact-store record")
    offset = len(MAGIC)
    length_end = offset + _HEADER_LENGTH_BYTES
    if len(blob) < length_end:
        raise RecordError("truncated record: header length missing")
    header_length = int.from_bytes(blob[offset:length_end], "big")
    header_end = length_end + header_length
    if len(blob) < header_end:
        raise RecordError("truncated record: header incomplete")
    try:
        header = json.loads(blob[length_end:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecordError(f"undecodable header: {exc}") from None
    if not isinstance(header, dict):
        raise RecordError("header is not a JSON object")
    try:
        key, schema = header["key"], header["schema"]
        size, record_format = header["size"], header["format"]
    except KeyError as exc:
        raise RecordError(f"header missing field {exc}") from None
    if record_format != STORE_SCHEMA_VERSION:
        raise RecordError(f"record format {record_format} != "
                          f"{STORE_SCHEMA_VERSION}")
    body_end = len(blob) - _DIGEST_BYTES
    payload = blob[header_end:body_end]
    if len(payload) != size:
        raise RecordError(f"payload size {len(payload)} != declared {size} "
                          f"(torn write)")
    if hashlib.sha256(blob[:body_end]).digest() != blob[body_end:]:
        raise RecordError("record checksum mismatch (corrupt record)")
    return StoreRecord(key=key, schema=schema, payload=payload,
                       meta=header.get("meta", {}))

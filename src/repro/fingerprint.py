"""Shared content-hash helper behind every ``fingerprint()`` hook.

Task graphs, partitions, schedules, STGs, system controllers,
architectures and partitioners expose a ``fingerprint()`` that the flow
pipeline (:mod:`repro.flow.pipeline`) uses to name its content-addressed
artifacts; its input-addressed output names are hashed here too.  Every
caller reduces its content to a canonical payload, so the digest choice
and truncation width live in exactly one place.
"""

from __future__ import annotations

import hashlib

__all__ = ["content_hash"]

#: Hex digits kept from the digest: 64 bits, plenty for cache keys.
FINGERPRINT_LENGTH = 16


def content_hash(payload: object) -> str:
    """Hash ``repr(payload)``; the payload must be deterministic."""
    digest = hashlib.sha256(repr(payload).encode())
    return digest.hexdigest()[:FINGERPRINT_LENGTH]

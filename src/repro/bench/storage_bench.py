"""Cross-process content digest of a join result."""

from __future__ import annotations

import hashlib
from typing import Any

__all__ = ["result_digest"]


def result_digest(relation: Any) -> str:
    """Order-insensitive content digest of a join result (row multiset).

    Stable across processes and worker counts — the cross-process
    bit-identity check the CI storage-smoke job greps for.
    """
    payload = "\n".join(sorted(map(repr, relation.rows)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

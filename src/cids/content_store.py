"""Content-addressed blob store: payloads keyed by their own SHA-256.

Models and signature filters live here; only their digests go on-chain.
"""

from __future__ import annotations

import os

from .encoding import DIGEST_LEN, sha256
from .errors import EmptyPayload, NotFound


class ContentStore:
    def __init__(self):
        self._entries: dict[bytes, bytes] = {}

    def put(self, payload: bytes) -> bytes:
        if not payload:
            raise EmptyPayload("cannot store an empty payload")
        digest = sha256(payload)
        self._entries[digest] = bytes(payload)
        return digest

    def get(self, digest: bytes) -> bytes:
        try:
            return self._entries[digest]
        except KeyError:
            raise NotFound(f"no entry for digest {digest.hex()}") from None

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def digests(self) -> list[bytes]:
        return list(self._entries)

    def self_check(self) -> bool:
        """Re-hash every payload and confirm it matches its key."""
        return all(sha256(v) == d for d, v in self._entries.items())

    def dump(self, directory: str) -> int:
        """Write each entry as <hex digest>.bin for post-run inspection."""
        os.makedirs(directory, exist_ok=True)
        for digest, payload in self._entries.items():
            if len(digest) != DIGEST_LEN:
                raise ValueError(f"store key {digest.hex()} is not a {DIGEST_LEN}-byte digest")
            with open(os.path.join(directory, digest.hex() + ".bin"), "wb") as fh:
                fh.write(payload)
        return len(self._entries)

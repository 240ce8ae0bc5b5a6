import hashlib
import random

import pytest

from cids.content_store import ContentStore
from cids.errors import EmptyPayload, NotFound


def test_put_is_idempotent():
    store = ContentStore()
    d1 = store.put(b"payload")
    d2 = store.put(b"payload")
    assert d1 == d2
    assert len(store) == 1


def test_put_abc_known_digest():
    store = ContentStore()
    digest = store.put(b"abc")
    assert digest.hex() == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_distinct_payloads_distinct_digests():
    rng = random.Random(21)
    store = ContentStore()
    payloads = {rng.randbytes(rng.randrange(1, 64)) for _ in range(500)}
    digests = {store.put(p) for p in payloads}
    assert len(digests) == len(payloads)


def test_get_round_trip():
    rng = random.Random(5)
    store = ContentStore()
    for _ in range(50):
        payload = rng.randbytes(rng.randrange(1, 128))
        assert store.get(store.put(payload)) == payload


def test_get_unknown_digest():
    store = ContentStore()
    with pytest.raises(NotFound):
        store.get(b"\x01" * 32)


def test_empty_payload_rejected():
    with pytest.raises(EmptyPayload):
        ContentStore().put(b"")


def test_entries_rehash_to_their_keys():
    rng = random.Random(6)
    store = ContentStore()
    for _ in range(100):
        store.put(rng.randbytes(rng.randrange(1, 40)))
    assert store.self_check()
    for digest in store.digests():
        assert hashlib.sha256(store.get(digest)).digest() == digest


def test_put_never_removes(tmp_path):
    store = ContentStore()
    sizes = []
    for i in range(20):
        store.put(bytes([i]) * 3)
        sizes.append(len(store))
    assert sizes == sorted(sizes)
    # dump writes one <hex>.bin per entry
    count = store.dump(str(tmp_path / "blobs"))
    assert count == 20
    files = list((tmp_path / "blobs").iterdir())
    assert len(files) == 20
    assert all(f.suffix == ".bin" for f in files)


def test_dump_rejects_a_key_that_is_not_a_digest(tmp_path):
    store = ContentStore()
    store.put(b"payload")
    store._entries[b"short"] = b"forged"
    with pytest.raises(ValueError, match="not a 32-byte digest"):
        store.dump(str(tmp_path / "blobs"))

"""Enclave lifecycle: sealing, isolation, irreversible destruction."""

import gc
import weakref

import pytest

from sevdel.enclave import STATE_ALIVE, STATE_DESTROYED, EnclaveRegistry
from sevdel.errors import (
    AlreadyDestroyed,
    DuplicateEnclave,
    EnclaveDestroyed,
    SecretNotFound,
    UnknownFile,
)
from sevdel.rng import SeededRng

FID_A = b"\xaa" * 32
FID_B = b"\xbb" * 32


def test_create_alive():
    reg = EnclaveRegistry()
    enc = reg.create(FID_A)
    assert enc.state == STATE_ALIVE
    assert reg.alive_for(FID_A) is enc


def test_duplicate_enclave_rejected():
    reg = EnclaveRegistry()
    reg.create(FID_A)
    with pytest.raises(DuplicateEnclave):
        reg.create(FID_A)


def test_seal_unseal_identity():
    reg = EnclaveRegistry()
    enc = reg.create(FID_A)
    enc.seal(b"k", b"secret bytes")
    assert enc.unseal(b"k") == b"secret bytes"


def test_unseal_unknown_key():
    enc = EnclaveRegistry().create(FID_A)
    with pytest.raises(SecretNotFound):
        enc.unseal(b"missing")


def test_isolation_between_enclaves():
    reg = EnclaveRegistry()
    a = reg.create(FID_A)
    b = reg.create(FID_B)
    a.seal(b"k", b"for A only")
    with pytest.raises(SecretNotFound):
        b.unseal(b"k")


def test_destroy_then_unseal_fails():
    reg = EnclaveRegistry()
    enc = reg.create(FID_A)
    enc.seal(b"k", b"v")
    receipt = enc.destroy()
    assert receipt.file_id == FID_A
    assert receipt.enclave_id == enc.enclave_id
    with pytest.raises(EnclaveDestroyed):
        enc.unseal(b"k")
    with pytest.raises(EnclaveDestroyed):
        enc.seal(b"k2", b"v2")


def test_double_destroy():
    enc = EnclaveRegistry().create(FID_A)
    enc.destroy()
    with pytest.raises(AlreadyDestroyed):
        enc.destroy()


def test_registry_reports_tombstone_not_absence():
    reg = EnclaveRegistry()
    enc = reg.create(FID_A)
    receipt = enc.destroy()
    assert enc.state == STATE_DESTROYED
    assert reg.alive_for(FID_A) is None
    assert receipt.enclave_id == enc.enclave_id


def test_destroy_for_unknown_file():
    reg = EnclaveRegistry()
    with pytest.raises(UnknownFile):
        reg.destroy_for(FID_A)
    reg.create(FID_A).destroy()
    with pytest.raises(UnknownFile):
        reg.destroy_for(FID_A)


def test_recreate_after_destroy_allowed():
    reg = EnclaveRegistry()
    first = reg.create(FID_A)
    first.destroy()
    second = reg.create(FID_A)
    assert second.enclave_id != first.enclave_id
    assert reg.alive_for(FID_A) is second


# the two ways an enclave dies: through its registry, or through its handle
DESTROY = {"destroy_for": lambda reg, enc: reg.destroy_for(enc.file_id),
           "destroy": lambda reg, enc: enc.destroy()}


@pytest.mark.parametrize("how", sorted(DESTROY))
def test_registry_keeps_no_destroyed_enclave(how):
    # the registry drops a destroyed enclave, so once the caller lets go
    # of its handle nothing holds the zeroized buffers any longer
    reg = EnclaveRegistry()
    enc = reg.create(FID_A)
    enc.seal(b"k", b"\x42" * 64)
    DESTROY[how](reg, enc)
    assert enc.verify_zeroized() and reg.alive_for(FID_A) is None
    ref = weakref.ref(enc)
    del enc
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("how", sorted(DESTROY))
def test_recreate_after_either_destroy_path(how):
    # the file's new enclave takes the place of the destroyed one, which
    # the registry does not keep beside it
    reg = EnclaveRegistry()
    first = reg.create(FID_A)
    first_id, ref = first.enclave_id, weakref.ref(first)
    DESTROY[how](reg, first)
    del first
    second = reg.create(FID_A)
    gc.collect()
    assert ref() is None
    assert second.state == STATE_ALIVE and second.enclave_id != first_id
    assert reg.alive_for(FID_A) is second
    with pytest.raises(DuplicateEnclave):
        reg.create(FID_A)
    assert reg.destroy_for(FID_A).enclave_id == second.enclave_id
    assert reg.alive_for(FID_A) is None


def test_zeroization_assertion():
    enc = EnclaveRegistry().create(FID_A)
    enc.seal(b"k", b"\x42" * 64)
    assert not enc.verify_zeroized()  # only meaningful after destroy
    enc.destroy()
    assert enc.verify_zeroized()


def test_sealing_over_a_secret_zeroizes_it():
    # the replaced buffer once kept its bytes after destroy, while
    # verify_zeroized, which sees only the retained buffers, said True
    enc = EnclaveRegistry().create(FID_A)
    enc.seal(b"k", b"secret-key")
    first = enc._secrets[b"k"]
    enc.seal(b"k", b"other")
    assert first == bytes(len(b"secret-key"))
    assert enc.unseal(b"k") == b"other"
    enc.seal(b"k", enc._secrets[b"k"])    # resealing a buffer over itself keeps it
    assert enc.unseal(b"k") == b"other"
    enc.destroy()
    assert enc.verify_zeroized()


def test_receipts_and_clock():
    reg = EnclaveRegistry()
    r1 = reg.create(FID_A).destroy()
    r2 = reg.create(FID_B).destroy()
    assert r1.destroyed_at < r2.destroyed_at
    parsed = r1.to_json()
    assert FID_A.hex() in parsed


def test_irreversibility_random_op_sequences():
    # no operation sequence after destroy ever returns a sealed secret
    rng = SeededRng(b"enclave-fuzz")
    for trial in range(300):
        reg = EnclaveRegistry()
        enc = reg.create(FID_A)
        secrets = {}
        for k in range(1 + rng.randrange(4)):
            key = bytes([k])
            val = rng.read(16)
            enc.seal(key, val)
            secrets[key] = val
        enc.destroy()
        for _ in range(1 + rng.randrange(5)):
            op = rng.randrange(3)
            try:
                if op == 0:
                    enc.unseal(bytes([rng.randrange(5)]))
                    raise AssertionError("unseal succeeded after destroy")
                elif op == 1:
                    enc.seal(b"new", b"data")
                    raise AssertionError("seal succeeded after destroy")
                else:
                    enc.destroy()
                    raise AssertionError("destroy succeeded twice")
            except (EnclaveDestroyed, AlreadyDestroyed):
                pass
        assert enc.verify_zeroized()


def test_unseal_range_is_the_slice_of_the_secret():
    enc = EnclaveRegistry().create(FID_A)
    secret = bytes(range(200))
    enc.seal(b"k", secret)
    for start, stop in ((0, None), (0, 200), (0, 0), (8, 16), (192, 200), (150, None),
                        (199, 200), (10, 5), (0, 500), (300, None)):
        assert enc.unseal(b"k", start, stop) == secret[start:stop]
    assert enc.unseal(b"k", 40) == secret[40:]
    with pytest.raises(SecretNotFound):
        enc.unseal(b"missing", 0, 8)


def test_unseal_range_after_destroy_fails():
    enc = EnclaveRegistry().create(FID_A)
    enc.seal(b"k", bytes(range(64)))
    assert enc.unseal(b"k", 8, 16) == bytes(range(8, 16))
    enc.destroy()
    with pytest.raises(EnclaveDestroyed):
        enc.unseal(b"k", 8, 16)
    with pytest.raises(EnclaveDestroyed):
        enc.unseal(b"k", 0)

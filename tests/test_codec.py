"""File codec: splitting, padding, identity, round-trips."""

import json

import pytest

from sevdel.codec import BlockMatrix, FileManifest, file_identity, join, split
from sevdel.errors import DimensionMismatch, EmptyFile, MalformedProof
from sevdel.rng import SeededRng


def test_empty_file_rejected():
    with pytest.raises(EmptyFile):
        split(b"", s=4, sector_bits=32)


def test_sixteen_bytes_one_block():
    data = bytes(range(16))
    manifest, blocks = split(data, s=4, sector_bits=32)
    assert manifest.n == 1
    # little-endian 32-bit words, computed by hand
    assert [list(row) for row in blocks.rows] == [[
        0x03020100, 0x07060504, 0x0B0A0908, 0x0F0E0D0C,
    ]]
    assert join(manifest, blocks) == data


def test_seventeen_bytes_pads_second_block():
    data = bytes(range(17))
    manifest, blocks = split(data, s=4, sector_bits=32)
    assert manifest.n == 2
    assert manifest.original_len == 17
    assert list(blocks.rows[1]) == [0x10, 0, 0, 0]  # byte 16 then zero padding
    assert join(manifest, blocks) == data


def test_single_byte_roundtrip():
    data = b"\xa7"
    manifest, blocks = split(data, s=3, sector_bits=16)
    assert join(manifest, blocks) == data


def test_random_roundtrip_property():
    # 1000 random files up to 64 KiB across all sector shapes
    rng = SeededRng(b"codec-roundtrip")
    for k in range(1000):
        size = 1 + rng.randrange(65536)
        s = (1, 2, 4, 8, 16)[rng.randrange(5)]
        bits = (8, 16, 32)[rng.randrange(3)]
        data = rng.read(size)
        manifest, blocks = split(data, s=s, sector_bits=bits)
        assert manifest.n == -(-size // (s * bits // 8))
        bound = 1 << bits
        assert all(0 <= v < bound for row in blocks.rows for v in row)
        assert join(manifest, blocks) == data


def test_tampered_manifest_dimension_mismatch():
    data = bytes(64)
    manifest, blocks = split(data, s=4, sector_bits=32)
    bad = FileManifest(
        file_id=manifest.file_id, n=manifest.n + 1, s=manifest.s,
        sector_bits=manifest.sector_bits,
        original_len=manifest.original_len)
    with pytest.raises(DimensionMismatch):
        join(bad, blocks)


def test_ragged_matrix_rejected():
    data = bytes(32)
    manifest, blocks = split(data, s=4, sector_bits=32)
    blocks.rows[0] = blocks.rows[0][:-1]
    with pytest.raises(DimensionMismatch):
        join(manifest, blocks)


def test_oversized_sector_rejected():
    data = bytes(8)
    manifest, blocks = split(data, s=2, sector_bits=32)
    # an array row cannot hold 2^40, so the tampered row is a list
    blocks.rows[0] = [1 << 40, 0]
    with pytest.raises(DimensionMismatch):
        join(manifest, blocks)


def test_manifest_capacity_invariant():
    with pytest.raises(DimensionMismatch):
        FileManifest(file_id=b"\x00" * 32, n=1, s=1, sector_bits=8, original_len=100)


def test_manifest_refuses_original_len_below_one():
    # join would truncate an 11-byte file to 9 bytes at -3, and to b"" at 0
    good = json.loads(split(b"hello world", s=2, sector_bits=16)[0].to_json())
    for bad in (-3, 0):
        with pytest.raises(DimensionMismatch):
            FileManifest.from_json(json.dumps({**good, "original_len": bad}))


def test_manifest_refuses_a_file_id_that_is_not_a_digest():
    # file_identity always yields 32 bytes; anything else, a short hex
    # string from JSON included, is refused before encryption can use it
    good = json.loads(split(b"hello world", s=2, sector_bits=16)[0].to_json())
    for bad in ("ab", "", "00" * 31, "00" * 33):
        with pytest.raises(MalformedProof):
            FileManifest.from_json(json.dumps({**good, "file_id": bad}, sort_keys=True))
    sizes = dict(n=1, s=1, sector_bits=8, original_len=1)
    for bad in (b"", b"\x00" * 31, b"\x00" * 33, "00" * 32, bytearray(32), None):
        with pytest.raises(MalformedProof):
            FileManifest(file_id=bad, **sizes)
    assert FileManifest(file_id=bytes(32), **sizes).file_id == bytes(32)


def test_file_identity_binds_owner_and_name():
    content = b"same content"
    base = file_identity(content, b"alice", b"a.txt")
    assert base == file_identity(content, b"alice", b"a.txt")
    assert base != file_identity(content, b"bob", b"a.txt")
    assert base != file_identity(content, b"alice", b"b.txt")
    assert base != file_identity(b"other content", b"alice", b"a.txt")


def test_manifest_json_roundtrip():
    manifest, _ = split(b"hello world", s=2, sector_bits=16)
    again = FileManifest.from_json(manifest.to_json())
    assert again == manifest


def test_bad_split_args():
    with pytest.raises(ValueError):
        split(b"x", s=0, sector_bits=16)
    with pytest.raises(ValueError):
        split(b"x", s=1, sector_bits=24)


def test_block_matrix_shape_helpers():
    manifest, blocks = split(bytes(40), s=5, sector_bits=16)
    assert (blocks.n, blocks.s) == (manifest.n, manifest.s)
    blocks.check_shape(manifest)
    with pytest.raises(DimensionMismatch):
        BlockMatrix(blocks.rows + [blocks.rows[0]]).check_shape(manifest)


@pytest.mark.parametrize("bits", [8, 16, 32])
def test_join_refuses_list_rows_out_of_range(bits):
    manifest, blocks = split(bytes(4 * (bits // 8)), s=2, sector_bits=bits)
    top = (1 << bits) - 1
    blocks.rows[0] = [top, 0]
    blocks.rows[1] = [0, top]
    full, zero = top.to_bytes(bits // 8, "little"), bytes(bits // 8)
    assert join(manifest, blocks) == full + zero + zero + full
    for bad in (-1, 1 << bits, -(1 << bits), 1 << 64):
        for row in ([bad, 0], [0, bad]):
            blocks.rows[1] = row
            with pytest.raises(DimensionMismatch):
                join(manifest, blocks)


@pytest.mark.parametrize("bits, typecode", [(8, "B"), (16, "H"), (32, "I")])
def test_split_rows_are_arrays_of_the_sector_width(bits, typecode):
    data = bytes(range(1, 40))
    manifest, blocks = split(data, s=3, sector_bits=bits)
    width = bits // 8
    for i, row in enumerate(blocks.rows):
        assert row.typecode == typecode and len(row) == 3
        for j, v in enumerate(row):
            off = (i * 3 + j) * width
            assert v == int.from_bytes(data[off:off + width].ljust(width, b"\0"), "little")
    assert join(manifest, blocks) == data

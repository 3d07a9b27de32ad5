"""SyntheticData, ZeroData, CompositeData, and the piece helpers."""

import tracemalloc

import pytest

from repro.storage import (
    CompositeData,
    SyntheticData,
    ZeroData,
    concat_pieces,
    data_equal,
    piece_bytes,
    piece_len,
    piece_slice,
)
from repro.units import GiB, MiB


class TestSyntheticData:
    def test_deterministic_content(self):
        a = SyntheticData(1024, seed=5)
        b = SyntheticData(1024, seed=5)
        assert a.to_bytes() == b.to_bytes()

    def test_seed_changes_content(self):
        assert SyntheticData(256, seed=1).to_bytes() != SyntheticData(256, seed=2).to_bytes()

    def test_slice_matches_materialized_slice(self):
        data = SyntheticData(4096, seed=3)
        whole = data.to_bytes()
        part = data.slice(100, 900)
        assert part.to_bytes() == whole[100:900]

    def test_slice_of_slice(self):
        data = SyntheticData(4096, seed=3)
        assert data.slice(1000, 3000).slice(10, 20).to_bytes() == data.to_bytes()[1010:1020]

    def test_huge_data_is_cheap_but_unmaterializable(self):
        big = SyntheticData(4 * GiB, seed=0)
        assert big.nbytes == 4 * GiB
        with pytest.raises(MemoryError):
            big.to_bytes()

    def test_bad_slice_rejected(self):
        data = SyntheticData(10)
        with pytest.raises(ValueError):
            data.slice(5, 20)
        with pytest.raises(ValueError):
            data.slice(-1, 5)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SyntheticData(-1)

    @pytest.mark.parametrize("n,seed,origin", [
        (1, 0, 0),
        (4096, 3, 0),
        (1000, 12345, 777),
        (2048, 2**63 + 5, 0),
        (512, 2**64 - 1, 2**40 + 3),
        (300, 9, 2**48),
    ])
    def test_bytes_follow_the_pattern_formula(self, n, seed, origin):
        # content[i] = low byte of ((origin + i + salt) * K mod 2^64) >> 24,
        # written out in plain integers.
        mask = 2**64 - 1
        salt = (seed * 0x9E3779B97F4A7C15) & mask
        expected = bytes(
            ((((origin + i + salt) & mask) * 2654435761) & mask) >> 24 & 0xFF
            for i in range(n)
        )
        assert SyntheticData(n, seed=seed, origin=origin).to_bytes() == expected

    def test_materializing_needs_at_most_12_bytes_per_byte(self):
        data = SyntheticData(4 * MiB, seed=7, origin=3)
        tracemalloc.start()
        try:
            data.to_bytes()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * data.nbytes, peak / data.nbytes


class TestZeroData:
    def test_zeros(self):
        assert ZeroData(16).to_bytes() == bytes(16)

    def test_slice(self):
        assert ZeroData(16).slice(2, 5).nbytes == 3


class TestPieceHelpers:
    def test_piece_len(self):
        assert piece_len(b"abc") == 3
        assert piece_len(bytearray(b"abcd")) == 4
        assert piece_len(SyntheticData(7)) == 7
        assert piece_len(ZeroData(9)) == 9

    def test_piece_len_rejects_unknown(self):
        with pytest.raises(TypeError):
            piece_len(3.14)

    def test_piece_slice_bytes(self):
        assert piece_slice(b"hello", 1, 4) == b"ell"
        with pytest.raises(ValueError):
            piece_slice(b"hello", 2, 99)

    def test_piece_bytes(self):
        assert piece_bytes(bytearray(b"xy")) == b"xy"
        assert piece_bytes(ZeroData(2)) == b"\x00\x00"


class TestConcat:
    def test_empty(self):
        assert concat_pieces([]) == b""

    def test_single_piece_passthrough(self):
        s = SyntheticData(100, seed=1)
        assert concat_pieces([s]) is s

    def test_bytes_fuse(self):
        assert concat_pieces([b"ab", b"cd", ZeroData(2)]) == b"abcd\x00\x00"

    def test_adjacent_synthetic_slices_coalesce(self):
        s = SyntheticData(1000, seed=4)
        merged = concat_pieces([s.slice(0, 400), s.slice(400, 1000)])
        assert isinstance(merged, SyntheticData)
        assert merged == s

    def test_non_adjacent_synthetic_stays_composite(self):
        s = SyntheticData(1000, seed=4)
        out = concat_pieces([s.slice(0, 100), s.slice(500, 600)])
        assert isinstance(out, CompositeData)
        assert out.nbytes == 200

    def test_composite_flattening(self):
        s = SyntheticData(10 * MiB, seed=1)
        inner = concat_pieces([s.slice(0, 1 * MiB), b"xyz"])
        outer = concat_pieces([inner, ZeroData(5)])
        assert outer.nbytes == 1 * MiB + 8


class TestCompositeData:
    def test_slice_spans_pieces(self):
        comp = CompositeData([b"abcd", b"efgh"])
        assert comp.slice(2, 6).to_bytes() == b"cdef"

    def test_bad_slice(self):
        comp = CompositeData([b"ab"])
        with pytest.raises(ValueError):
            comp.slice(0, 5)


class TestDataEqual:
    def test_small_byte_for_byte(self):
        s = SyntheticData(64, seed=2)
        assert data_equal(s, s.to_bytes())
        assert not data_equal(s, bytes(64))

    def test_large_structural(self):
        a = SyntheticData(2 * GiB, seed=9)
        b = SyntheticData(2 * GiB, seed=9)
        c = SyntheticData(2 * GiB, seed=10)
        assert data_equal(a, b)
        assert not data_equal(a, c)

    def test_length_mismatch(self):
        assert not data_equal(b"ab", b"abc")

    def test_composite_vs_whole_after_chunked_readback(self):
        """The read path returns coalescible slices; equality must hold."""
        s = SyntheticData(200 * MiB, seed=3)
        chunks = [s.slice(i * 50 * MiB, (i + 1) * 50 * MiB) for i in range(4)]
        assert data_equal(concat_pieces(chunks), s)

"""Unit tests for framing: integrity, fragmentation, reassembly."""

import pytest

from repro.errors import FrameError
from repro.network.frames import (
    HEADER,
    encode_frames,
    frame_overhead,
    parse_frame,
    write_frame,
)


def roundtrip(payload: bytes, max_fragment: int = 1 << 20) -> bytes:
    wire = b"".join(encode_frames(payload, max_fragment))
    got, end = parse_frame(wire)
    assert end == len(wire)
    return got


class TestRoundtrip:
    @pytest.mark.parametrize("payload", [b"", b"x", b"hello world", bytes(range(256))])
    def test_single_frame(self, payload):
        assert roundtrip(payload) == payload

    def test_large_payload(self):
        payload = bytes(i % 251 for i in range(1_000_000))
        assert roundtrip(payload) == payload

    def test_write_frame_returns_total_bytes(self):
        sent = []
        total = write_frame(sent.append, b"abcdef")
        assert total == sum(len(s) for s in sent)
        assert total == frame_overhead() + 6


class TestFragmentation:
    def test_fragment_count(self):
        frames = encode_frames(b"x" * 1000, max_fragment=300)
        assert len(frames) == 4  # 300+300+300+100

    def test_fragmented_reassembly(self):
        payload = bytes(range(256)) * 10
        wire = b"".join(encode_frames(payload, max_fragment=100))
        assert parse_frame(wire) == (payload, len(wire))
        # Every strict prefix is "not yet": a fragment alone is no payload.
        assert all(parse_frame(wire[:cut]) is None for cut in range(0, len(wire), 7))

    def test_more_flag_set_on_all_but_last(self):
        frames = encode_frames(b"x" * 250, max_fragment=100)
        flags = [HEADER.unpack(f[: HEADER.size])[1] for f in frames]
        assert flags == [1, 1, 0]

    def test_exact_multiple_boundary(self):
        payload = b"x" * 200
        assert roundtrip(payload, max_fragment=100) == payload

    def test_invalid_fragment_size(self):
        with pytest.raises(FrameError):
            encode_frames(b"x", max_fragment=0)

    def test_two_messages_back_to_back(self):
        wire = bytearray(b"".join(encode_frames(b"first") + encode_frames(b"second")))
        first, end = parse_frame(wire)
        del wire[:end]
        assert first == b"first"
        assert parse_frame(wire) == (b"second", len(wire))


class TestIntegrity:
    def test_bad_magic(self):
        wire = bytearray(b"".join(encode_frames(b"data")))
        wire[0] = ord("X")
        with pytest.raises(FrameError, match="magic"):
            parse_frame(bytes(wire))

    def test_corrupt_payload_detected(self):
        wire = bytearray(b"".join(encode_frames(b"data")))
        wire[-1] ^= 0xFF
        with pytest.raises(FrameError, match="checksum"):
            parse_frame(bytes(wire))

    def test_truncated_header(self):
        wire = b"".join(encode_frames(b"data"))[:5]
        assert parse_frame(wire) is None  # not yet a frame, not an error

    def test_truncated_payload(self):
        wire = b"".join(encode_frames(b"data"))[:-2]
        assert parse_frame(wire) is None

    def test_bad_magic_is_caught_before_the_payload_arrives(self):
        wire = bytearray(b"".join(encode_frames(b"data" * 100)))
        wire[1] = ord("X")
        with pytest.raises(FrameError, match="magic"):
            parse_frame(bytes(wire[: HEADER.size]))

"""Correlated (version-2) compact frames: ids, bursts, and hostile bytes.

The pipelining PR added a correlation id slot to the compact framing
(`DC` version 0x02), the :class:`PipelineBatch`/:class:`Envelope`
containers, and the split/burst helpers the hot paths use.
"""

import pytest

from repro.core.keys import FolderName, Key, Symbol
from repro.errors import DecodingError, EncodingError
from repro.network.codec import (
    COMPACT_MAGIC,
    CORRELATED_VERSION,
    decode_message,
    decode_tagged,
    encode_correlated_burst,
    encode_message,
    split_correlated,
)
from repro.network.protocol import (
    Envelope,
    GetRequest,
    PipelineBatch,
    PutRequest,
    Reply,
)
from repro.transferable.wire import encode as tlv_encode


def folder(i=0):
    return FolderName("app", Key(Symbol("k"), (i,)))


SAMPLES = [
    PutRequest(folder=folder(), payload=b"v" * 9, origin="p1"),
    GetRequest(folder=folder(3), mode="skip", origin="p2"),
    Reply(ok=True, found=True, payload=b"x"),
    Reply(ok=False, error="host down: nope"),
]


class TestCorrelatedFrames:
    @pytest.mark.parametrize("cid", [0, 1, 7, 127, 128, 300, 2**20, 2**40])
    def test_roundtrip_preserves_message_and_id(self, cid):
        for msg in SAMPLES:
            got, got_cid = decode_tagged(encode_message(msg, corr_id=cid))
            assert got == msg
            assert got_cid == cid

    def test_plain_frames_carry_no_id(self):
        for msg in SAMPLES:
            got, got_cid = decode_tagged(encode_message(msg))
            assert got == msg
            assert got_cid is None

    def test_decode_message_drops_the_id(self):
        msg = SAMPLES[0]
        assert decode_message(encode_message(msg, corr_id=42)) == msg

    def test_v2_frame_is_v1_plus_id(self):
        """The correlated layout is exactly: version byte + uvarint id."""
        msg = SAMPLES[0]
        plain = encode_message(msg)
        tagged = encode_message(msg, corr_id=5)
        assert plain[:2] == tagged[:2] == COMPACT_MAGIC
        assert tagged[2] == CORRELATED_VERSION
        assert tagged[3] == plain[3]  # same type tag
        assert tagged[5:] == plain[4:]  # one-byte id, identical body

    def test_negative_id_rejected(self):
        with pytest.raises(EncodingError):
            encode_message(SAMPLES[0], corr_id=-1)

    def test_unregistered_type_cannot_carry_id(self):
        with pytest.raises(EncodingError):
            encode_message({"plain": "dict"}, corr_id=1)


class TestHostileBytes:
    def test_truncated_mid_id(self):
        frame = encode_message(SAMPLES[0], corr_id=2**40)
        with pytest.raises(DecodingError):
            decode_tagged(frame[:5])

    def test_unknown_version_byte(self):
        frame = bytearray(encode_message(SAMPLES[0], corr_id=1))
        frame[2] = 3
        with pytest.raises(DecodingError):
            decode_tagged(bytes(frame))

    def test_truncated_body_still_detected(self):
        frame = encode_message(SAMPLES[0], corr_id=1)
        with pytest.raises(DecodingError):
            decode_tagged(frame[:-3])

    def test_trailing_garbage_detected(self):
        frame = encode_message(SAMPLES[0], corr_id=1)
        with pytest.raises(DecodingError):
            decode_tagged(frame + b"\x00\x01")


class TestSplitCorrelated:
    def test_split_matches_decode(self):
        frame = encode_message(SAMPLES[0], corr_id=777)
        split = split_correlated(frame)
        assert split is not None
        cid, tagbody = split
        assert cid == 777
        # tag+body equals the id-less encoding minus its 3-byte header.
        assert tagbody == encode_message(SAMPLES[0])[3:]

    def test_non_v2_frames_return_none(self):
        assert split_correlated(encode_message(SAMPLES[0])) is None
        assert split_correlated(tlv_encode([1, 2])) is None
        assert split_correlated(b"") is None
        assert split_correlated(b"DC\x02\x01") is None  # no id byte


class TestContainers:
    def test_pipeline_batch_roundtrip(self):
        frames = tuple(
            encode_message(m, corr_id=i) for i, m in enumerate(SAMPLES)
        )
        got = decode_message(encode_message(PipelineBatch(frames)))
        assert got.frames == frames
        inner = [decode_tagged(f) for f in got.frames]
        assert [m for m, _ in inner] == SAMPLES
        assert [c for _, c in inner] == [0, 1, 2, 3]

    def test_empty_batch_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            PipelineBatch(())

    def test_burst_envelope_roundtrip(self):
        frames = (encode_message(SAMPLES[0], corr_id=9),)
        env = Envelope(app="app", target_host="h2", frames=frames, trail=("h1",))
        got = decode_message(encode_message(env))
        assert got == env

    def test_empty_burst_envelope_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            Envelope(app="a", target_host="h", frames=())


class TestCorrelatedBurstEncoder:
    def test_burst_encoding_equals_per_message_encoding(self):
        ack = Reply(ok=True, found=True)
        pairs = [(ack, 1), (ack, 2), (SAMPLES[3], 3), (ack, 300)]
        frames = encode_correlated_burst(pairs)
        assert frames == [encode_message(m, corr_id=c) for m, c in pairs]

    def test_shared_instance_bodies_decode_identically(self):
        ack = Reply(ok=True, found=True)
        frames = encode_correlated_burst([(ack, i) for i in range(5)])
        for i, frame in enumerate(frames):
            msg, cid = decode_tagged(frame)
            assert msg == ack
            assert cid == i

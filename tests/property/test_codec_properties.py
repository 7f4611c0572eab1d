"""Property-based round-trips for every compact message that names a folder."""

from hypothesis import given, strategies as st

from repro.core.keys import FolderName, Key, Symbol
from repro.durability.records import (
    WalConsume,
    WalDelayed,
    WalDelayedClear,
    WalFolderDrop,
    WalPut,
)
from repro.network.codec import decode_tagged, encode_message
from repro.network.protocol import (
    GET_MODES,
    GET_WAIT_MODES,
    GetAltSkipRequest,
    GetRequest,
    GetWaitRequest,
    MemoReady,
    PutDelayedRequest,
    PutRequest,
    ReplicatePut,
    Reply,
)

# -- strategies -------------------------------------------------------------------

U64 = (1 << 64) - 1

# Few distinct names, so examples repeat folders (the interned path) as
# well as introduce new ones; lengths and indexes straddle the one-, two-
# and ten-byte varint boundaries.
names = st.text(
    st.characters(blacklist_characters="/\x00", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=6,
) | st.sampled_from(["s", "jar", "é" * 70, "x" * 200])
indexes = st.lists(
    st.integers(0, U64) | st.sampled_from([0, 1, 127, 128, 1 << 14, U64]),
    max_size=5,
).map(tuple)
folders = st.builds(
    FolderName,
    st.text(min_size=1, max_size=6) | st.sampled_from(["app", "a" * 130]),
    st.builds(Key, st.builds(Symbol, names), indexes),
)
payloads = st.binary(max_size=40)
origins = st.text(max_size=4)
uints = st.integers(0, U64)

messages = st.one_of(
    st.builds(PutRequest, folders, payloads, origins),
    st.builds(PutDelayedRequest, folders, folders, payloads, origins),
    st.builds(GetRequest, folders, st.sampled_from(GET_MODES), origins),
    st.builds(
        GetAltSkipRequest, st.lists(folders, min_size=1, max_size=4).map(tuple), origins
    ),
    st.builds(GetWaitRequest, folders, st.sampled_from(GET_WAIT_MODES), uints, origins),
    st.builds(MemoReady, uints, folders, payloads),
    st.builds(
        ReplicatePut, origins, folders, payloads, origins, st.just(False),
        st.none() | folders, origins, uints,
    ),
    st.builds(
        ReplicatePut, origins, folders, payloads, origins, st.just(True),
        folders, origins, uints,
    ),
    st.builds(
        Reply, st.booleans(), st.booleans(), payloads, st.none() | folders, origins
    ),
    st.builds(WalPut, folders, payloads, origins, origins, uints),
    st.builds(WalConsume, folders, uints, st.booleans()),
    st.builds(WalDelayed, folders, folders, payloads, origins, origins, uints),
    st.builds(WalDelayedClear, folders),
    st.builds(WalFolderDrop, folders),
)


@given(messages, st.none() | st.integers(0, 1 << 20))
def test_folder_bearing_messages_roundtrip(msg, corr_id):
    """Decoding is the inverse of encoding, first sight of a folder or not."""
    data = encode_message(msg, corr_id)
    for _ in range(2):
        decoded, got_id = decode_tagged(data)
        assert decoded == msg and got_id == corr_id
        assert type(decoded) is type(msg)


@given(folders)
def test_decoded_folder_hashes_and_canonicalises_like_a_fresh_one(name):
    data = encode_message(WalFolderDrop(name))
    decoded = decode_tagged(data)[0].folder
    fresh = FolderName(name.app, Key(Symbol(name.key.symbol.name), name.key.index))
    assert decoded == fresh and hash(decoded) == hash(fresh)
    assert decoded.canonical() == fresh.canonical()
    assert decode_tagged(data)[0].folder == fresh

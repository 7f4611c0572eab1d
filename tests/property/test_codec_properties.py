"""Property-based round-trips for every message the compact codec registers.

The message strategies are keyed by class and checked against the codec's
own tag registry, so a tag registered without saying here how to build
its message fails under its own name.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.keys import FolderName, Key, Symbol
from repro.durability.records import (
    WalConsume,
    WalDelayed,
    WalDelayedClear,
    WalFolderDrop,
    WalPut,
)
from repro.network import codec
from repro.network.codec import decode_tagged, encode_message
from repro.network.protocol import (
    GET_MODES,
    GET_WAIT_MODES,
    BurstEnvelope,
    CancelWaitRequest,
    DeltaSyncPull,
    ForwardEnvelope,
    GetAltSkipRequest,
    GetRequest,
    GetWaitRequest,
    Heartbeat,
    MemoReady,
    MigrateRequest,
    PipelineBatch,
    PutDelayedRequest,
    PutRequest,
    RegisterRequest,
    ReplicatePut,
    Reply,
    ResyncRequest,
    ShutdownRequest,
    StatsRequest,
    WaitCancelled,
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
# Depositor, store and host names: empty, repeated, non-ASCII and past
# the one-byte length prefix — the ``name`` kind must read them all as
# ``str`` does.
origins = st.text(max_size=4) | st.sampled_from(["", "worker-é", "ж" * 70])
uints = st.integers(0, U64)
floats = st.floats(allow_nan=False)
str_tuples = st.lists(origins, max_size=3).map(tuple)
frame_tuples = st.lists(payloads, min_size=1, max_size=3).map(tuple)
float_dicts = st.dictionaries(origins, floats, max_size=3)
# ``tlv`` fields: open-ended dicts of TLV-encodable scalars.
int_dicts = st.dictionaries(origins, st.integers(-U64, U64), max_size=3)
stats_dicts = st.dictionaries(
    origins, st.integers(-U64, U64) | floats | st.text(max_size=4) | st.booleans(),
    max_size=3,
)

STRATEGIES = {
    PutRequest: st.builds(PutRequest, folders, payloads, origins),
    PutDelayedRequest: st.builds(PutDelayedRequest, folders, folders, payloads, origins),
    GetRequest: st.builds(GetRequest, folders, st.sampled_from(GET_MODES), origins),
    GetAltSkipRequest: st.builds(
        GetAltSkipRequest, st.lists(folders, min_size=1, max_size=4).map(tuple), origins
    ),
    RegisterRequest: st.builds(
        RegisterRequest,
        origins,
        st.dictionaries(origins, float_dicts, max_size=3),
        float_dicts,
        st.lists(st.tuples(origins, origins), max_size=3).map(tuple),
        st.integers(1, U64),
    ),
    MigrateRequest: st.builds(MigrateRequest, origins, origins),
    ReplicatePut: st.builds(
        ReplicatePut, origins, folders, payloads, origins, st.just(False),
        st.none() | folders, origins, uints,
    )
    | st.builds(
        ReplicatePut, origins, folders, payloads, origins, st.just(True),
        folders, origins, uints,
    ),
    Heartbeat: st.builds(Heartbeat, origins, origins),
    DeltaSyncPull: st.builds(
        DeltaSyncPull, origins, origins, int_dicts, int_dicts, int_dicts, origins
    ),
    StatsRequest: st.builds(StatsRequest, origins),
    ShutdownRequest: st.builds(ShutdownRequest, origins),
    ResyncRequest: st.builds(ResyncRequest, str_tuples, origins),
    ForwardEnvelope: st.builds(ForwardEnvelope, origins, origins, payloads, str_tuples),
    PipelineBatch: st.builds(PipelineBatch, frame_tuples),
    BurstEnvelope: st.builds(BurstEnvelope, origins, origins, frame_tuples, str_tuples),
    GetWaitRequest: st.builds(
        GetWaitRequest, folders, st.sampled_from(GET_WAIT_MODES), uints, origins
    ),
    MemoReady: st.builds(MemoReady, uints, folders, payloads),
    WaitCancelled: st.builds(WaitCancelled, uints, origins),
    CancelWaitRequest: st.builds(CancelWaitRequest, uints, origins),
    Reply: st.builds(
        Reply, st.booleans(), st.booleans(), payloads, st.none() | folders, origins,
        stats_dicts,
    ),
    WalPut: st.builds(WalPut, folders, payloads, origins, origins, uints),
    WalConsume: st.builds(WalConsume, folders, uints, st.booleans()),
    WalDelayed: st.builds(WalDelayed, folders, folders, payloads, origins, origins, uints),
    WalDelayedClear: st.builds(WalDelayedClear, folders),
    WalFolderDrop: st.builds(WalFolderDrop, folders),
}

REGISTERED = sorted(
    (spec.cls for spec in codec._SPECS_BY_TAG.values()), key=lambda cls: cls.__name__
)


@pytest.mark.parametrize("cls", REGISTERED, ids=lambda cls: cls.__name__)
@given(data=st.data(), corr_id=st.none() | st.integers(0, 1 << 20))
def test_every_registered_tag_roundtrips(cls, data, corr_id):
    """Decoding is the inverse of encoding — id-less v1 and correlated v2
    framing, first sight of a folder or a name or not."""
    assert cls in STRATEGIES, f"{cls.__name__} has a compact tag and no strategy here"
    msg = data.draw(STRATEGIES[cls])
    frame = encode_message(msg, corr_id)
    assert frame[2] == (1 if corr_id is None else 2)
    for _ in range(2):
        decoded, got_id = decode_tagged(frame)
        assert decoded == msg and got_id == corr_id
        assert type(decoded) is cls


@given(folders)
def test_decoded_folder_hashes_and_canonicalises_like_a_fresh_one(name):
    data = encode_message(WalFolderDrop(name))
    decoded = decode_tagged(data)[0].folder
    fresh = FolderName(name.app, Key(Symbol(name.key.symbol.name), name.key.index))
    assert decoded == fresh and hash(decoded) == hash(fresh)
    assert decoded.canonical() == fresh.canonical()
    assert decode_tagged(data)[0].folder == fresh

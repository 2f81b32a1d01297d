"""Tests for archives, protocols, splitmd and trait-based selection."""

import pickle
import threading

import numpy as np
import pytest

from repro import runtime
from repro.apps.mra.data import MraMessage
from repro.linalg.tile import MatrixTile
from repro.serialization import splitmd
from repro.serialization.archive import ArchiveError, BufferInputArchive, BufferOutputArchive
from repro.serialization.protocols import (
    GenericProtocol,
    MadnessProtocol,
    TrivialProtocol,
    wire_size,
)
from repro.serialization.splitmd import (
    METADATA_MEMO_SIZE,
    SplitMetadataProtocol,
    pack_metadata,
    unpack_metadata,
)
from repro.serialization.traits import (
    is_trivially_serializable,
    pack,
    register_trivial,
    select_protocol,
    supports_splitmd,
)
from repro.sim.cluster import HAWK, Cluster


# ------------------------------------------------------------------ archive


@pytest.mark.parametrize(
    "value",
    [
        None,
        42,
        -(2**40),
        3.14159,
        True,
        False,
        "héllo world",
        b"\x00\x01binary",
        [1, 2, {"a": (3, 4)}],
        {"nested": [None, 1.5]},
    ],
)
def test_archive_roundtrip_scalars(value):
    ar = BufferOutputArchive()
    ar.store(value)
    out = BufferInputArchive(ar.bytes()).load()
    assert out == value
    assert type(out) is type(value)


def test_archive_roundtrip_ndarray():
    a = np.arange(24, dtype=np.float64).reshape(4, 6)
    ar = BufferOutputArchive().store(a)
    out = BufferInputArchive(ar.bytes()).load()
    assert isinstance(out, np.ndarray)
    assert out.dtype == a.dtype
    assert np.array_equal(out, a)


def test_archive_roundtrip_noncontiguous_array():
    a = np.arange(24, dtype=np.int32).reshape(4, 6)[:, ::2]
    out = BufferInputArchive(BufferOutputArchive().store(a).bytes()).load()
    assert np.array_equal(out, a)


def test_archive_multiple_frames():
    ar = BufferOutputArchive()
    ar.store(1).store("two").store(3.0)
    ia = BufferInputArchive(ar.bytes())
    assert ia.load() == 1
    assert ia.load() == "two"
    assert ia.load() == 3.0
    assert ia.at_end()


def test_archive_underflow():
    ar = BufferOutputArchive().store(12345)
    data = ar.bytes()[:-2]
    with pytest.raises(ArchiveError):
        BufferInputArchive(data).load()


def test_archive_nbytes_grows():
    ar = BufferOutputArchive()
    n0 = ar.nbytes
    ar.store(np.zeros(100))
    assert ar.nbytes > n0 + 800


# ---------------------------------------------------------------- protocols


def test_wire_size_uses_nominal():
    t = MatrixTile.synthetic(64, 64)
    assert wire_size(t, 50) == 64 * 64 * 8
    assert wire_size(123, 50) == 50


def test_generic_roundtrip_and_copies():
    p = GenericProtocol()
    msg = p.serialize({"k": [1, 2, 3]})
    assert msg.protocol == "generic"
    assert msg.sender_copy_bytes == msg.eager_bytes
    assert msg.receiver_copy_bytes == msg.eager_bytes
    assert p.deserialize(msg) == {"k": [1, 2, 3]}


def test_madness_double_copies():
    p = MadnessProtocol()
    msg = p.serialize([1.0] * 10)
    assert msg.sender_copy_bytes == 2 * msg.eager_bytes
    assert msg.receiver_copy_bytes == 2 * msg.eager_bytes
    assert p.deserialize(msg) == [1.0] * 10


def test_trivial_applicable_to_scalars_and_tuples():
    p = TrivialProtocol()
    assert p.applicable(5)
    assert p.applicable((1, 2, 3))
    assert p.applicable(2.5)
    assert not p.applicable([1, 2])
    assert not p.applicable({"a": 1})


def test_trivial_roundtrip():
    p = TrivialProtocol()
    msg = p.serialize((3, 4))
    assert msg.receiver_copy_bytes == 0
    assert p.deserialize(msg) == (3, 4)


def test_register_trivial():
    class Pod:
        __trivially_serializable__ = False
        nbytes = 16

        def __eq__(self, other):
            return isinstance(other, Pod)

    assert not is_trivially_serializable(Pod())
    register_trivial(Pod)
    assert is_trivially_serializable(Pod())


def test_dunder_trivial_flag():
    class Pod2:
        __trivially_serializable__ = True
        nbytes = 8

    assert is_trivially_serializable(Pod2())


# ------------------------------------------------------------------ splitmd


def test_tile_supports_splitmd():
    assert supports_splitmd(MatrixTile.zeros(4, 4))
    assert not supports_splitmd(42)
    assert not supports_splitmd("text")


def test_splitmd_roundtrip_tile():
    p = SplitMetadataProtocol()
    rng = np.random.default_rng(0)
    t = MatrixTile(5, 7, rng.standard_normal((5, 7)))
    msg = p.serialize(t)
    assert msg.protocol == "splitmd"
    assert msg.rma_bytes == 5 * 7 * 8
    assert msg.sender_copy_bytes == 0 and msg.receiver_copy_bytes == 0
    out = p.deserialize(msg)
    assert isinstance(out, MatrixTile)
    assert out.allclose(t)


def test_splitmd_synthetic_tile_charges_nominal():
    p = SplitMetadataProtocol()
    t = MatrixTile.synthetic(32, 32)
    msg = p.serialize(t)
    assert msg.rma_bytes == 32 * 32 * 8
    out = p.deserialize(msg)
    assert out.shape == (32, 32)


def test_pack_unpack_metadata():
    t = MatrixTile.zeros(3, 3)
    cls, meta = unpack_metadata(pack_metadata(t))
    assert cls is MatrixTile
    assert meta == (3, 3, True)


# ------------------------------------------------------------------- traits


def test_select_protocol_preference_order():
    tile = MatrixTile.zeros(8, 8)
    assert select_protocol(tile, backend_supports_splitmd=True).name == "splitmd"
    assert select_protocol(tile, backend_supports_splitmd=False).name == "generic"
    assert select_protocol(5, backend_supports_splitmd=True).name == "trivial"
    assert select_protocol([1, 2], backend_supports_splitmd=False).name == "generic"


def test_select_protocol_whitelist():
    tile = MatrixTile.zeros(4, 4)
    p = select_protocol(
        tile, backend_supports_splitmd=True, allowed=("trivial", "madness")
    )
    assert p.name == "madness"


def test_select_protocol_nothing_applicable():
    with pytest.raises(TypeError):
        select_protocol(MatrixTile.zeros(2, 2), allowed=("trivial",))


# ------------------------------------------------------- one pack per send


@pytest.fixture
def pickle_dumps_calls(monkeypatch):
    """Counts ``pickle.dumps`` calls made by the serialization layer."""
    calls = []
    real = pickle.dumps

    def counting(obj, *args, **kwargs):
        calls.append(type(obj).__name__)
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", counting)
    return calls


@pytest.mark.parametrize("backend_name, protocol",
                         [("ParsecBackend", "generic"),
                          ("MadnessBackend", "madness")])
def test_send_packs_each_value_exactly_once(pickle_dumps_calls, backend_name,
                                            protocol):
    # Selecting a generic protocol used to pickle the value as a yes/no
    # test and serialize() pickled it again: 2 calls per send.
    be = getattr(runtime, backend_name)(Cluster(HAWK, 2))
    got = []
    be.send_value(0, 1, {"x": [1, 2]}, got.append)
    be.run()
    assert got == [{"x": [1, 2]}]
    assert set(be.stats.bytes_by_protocol) == {protocol}
    assert pickle_dumps_calls == ["dict"]


def test_natively_storable_values_need_no_trial_pickle(pickle_dumps_calls):
    for value in (None, 7, 2.5, "text", b"raw", np.zeros(4)):
        proto = select_protocol(value, allowed=("generic", "madness"))
        assert proto.name == "generic"
    assert pickle_dumps_calls == []


def test_refusal_carries_the_packing_error():
    with pytest.raises(TypeError, match="applicable to lock") as info:
        pack(threading.Lock(), allowed=("generic", "madness"))
    assert isinstance(info.value.__cause__, TypeError)
    assert "pickle" in str(info.value.__cause__)


def test_unpicklable_value_is_refused_with_the_same_error():
    for choose in (select_protocol, pack):
        with pytest.raises(TypeError, match="no serialization protocol "
                                            "applicable to function"):
            choose(lambda: None, backend_supports_splitmd=True)


def test_pack_agrees_with_select_then_serialize():
    values = [MatrixTile.zeros(4, 4), 5, (1, 2.0), [1, 2], {"k": "v"},
              np.arange(6.0), "s", None]
    for splitmd in (False, True):
        for allowed in (None, ("trivial", "madness"), ("generic",)):
            for v in values:
                kw = dict(backend_supports_splitmd=splitmd, allowed=allowed)
                try:
                    want = select_protocol(v, **kw)
                except TypeError:
                    with pytest.raises(TypeError):
                        pack(v, **kw)
                    continue
                proto, msg = pack(v, **kw)
                ref = want.serialize(v)
                assert proto is want and msg.protocol == ref.protocol
                assert (msg.eager_bytes, msg.rma_bytes, msg.sender_copy_bytes,
                        msg.receiver_copy_bytes) == (
                    ref.eager_bytes, ref.rma_bytes, ref.sender_copy_bytes,
                    ref.receiver_copy_bytes)


def _fresh_metadata(value):
    """What three ``store`` calls on a fresh archive write for ``value``."""
    cls = type(value)
    ar = BufferOutputArchive()
    ar.store(cls.__module__).store(cls.__qualname__)
    return ar.store(value.splitmd_metadata()).bytes()


def test_metadata_buffer_is_three_archive_frames(metadata_memos):
    # Metadata is memoised per (class, metadata) and per buffer; the bytes
    # on the wire and what they decode to must not depend on a hit.
    values = [MatrixTile.zeros(3, 5), MatrixTile.synthetic(3, 5),
              MraMessage((np.zeros((2, 2)), None), (7, 0.5, True), 2.0),
              MraMessage((np.zeros(3),), ((1, 2), "k", None))]
    for _ in range(2):
        for v in values:
            data = pack_metadata(v)
            assert data == _fresh_metadata(v)
            assert unpack_metadata(data) == (type(v), v.splitmd_metadata())
    assert len(metadata_memos[0]) == 2  # the float-free metadata only


class Meta:
    """A splitmd type whose metadata is whatever it was built with."""

    def __init__(self, meta):
        self.meta = meta

    def splitmd_metadata(self):
        return self.meta

    def splitmd_payload(self):
        return None

    @classmethod
    def splitmd_allocate(cls, meta):
        return cls(meta)

    def splitmd_fill(self, payload):
        pass


@pytest.fixture
def metadata_memos():
    """The emptied (encode, decode) metadata memos, emptied again after."""
    memos = (splitmd._encoded, splitmd._decoded)
    for memo in memos:
        memo.clear()
    yield memos
    for memo in memos:
        memo.clear()


@pytest.mark.parametrize("first", [0, 1])
def test_metadata_memo_is_type_exact(metadata_memos, first):
    # Equal metadata of other leaf types must not hit: 1 == 1.0 == True
    # but each encodes to its own bytes (and -0.0 == 0.0 but not in bits).
    metas = [(128, 128, False), (128.0, 128, 0), (128, 128, 0), (0.0,),
             (-0.0,), ((1, True), "x"), ((True, 1), "x")]
    if first:
        metas.reverse()
    datas = [pack_metadata(Meta(m)) for m in metas]
    assert len(set(datas)) == len(metas)
    for meta, data in zip(metas, datas):
        assert data == _fresh_metadata(Meta(meta))
        assert pack_metadata(Meta(meta)) == data
        for _ in range(2):
            cls, got = unpack_metadata(data)
            assert cls is Meta and got == meta
            assert repr(got) == repr(meta)


def test_mutable_metadata_round_trips_uncached(metadata_memos):
    data = pack_metadata(Meta([1, 2]))
    assert data == pack_metadata(Meta([1, 2])) == _fresh_metadata(Meta([1, 2]))
    first, second = unpack_metadata(data)[1], unpack_metadata(data)[1]
    assert first == second == [1, 2] and first is not second
    assert metadata_memos == ({}, {})


def test_metadata_memos_are_bounded(metadata_memos):
    for i in range(10 * METADATA_MEMO_SIZE):
        cls, meta = unpack_metadata(pack_metadata(Meta((i, "tile"))))
        assert meta == (i, "tile")
    assert [len(memo) for memo in metadata_memos] == [METADATA_MEMO_SIZE] * 2

"""Serialization protocols: trivial (memcpy), generic (Boost-like), madness.

Each protocol turns an object into a :class:`SerializedMessage` describing
both the real payload (so receivers reconstruct a genuine object) and the
*cost model*: how many bytes cross the wire eagerly, how many move via RMA,
and how many in-memory copies each side performs.  The runtimes charge those
copies against the node's memory bandwidth, which is how the paper's
copy-avoidance results become visible in simulated time.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Optional

from repro.serialization.archive import (
    NATIVE_TYPES,
    BufferInputArchive,
    BufferOutputArchive,
)


@dataclass
class SerializedMessage:
    """Wire representation + cost accounting for one value.

    Attributes
    ----------
    protocol:
        Name of the protocol that produced this message.
    eager_bytes:
        Bytes transferred in the initial (eager/rendezvous) message.
    rma_bytes:
        Bytes transferred by a subsequent one-sided get (splitmd only).
    sender_copy_bytes / receiver_copy_bytes:
        In-memory bytes copied while packing/unpacking on each side.
    payload:
        Opaque wire payload consumed by :meth:`Protocol.deserialize`.
    source:
        For zero-copy protocols, the live source object (the simulator is a
        single address space; the cost model is what distinguishes copies).
    """

    protocol: str
    eager_bytes: int
    rma_bytes: int = 0
    sender_copy_bytes: int = 0
    receiver_copy_bytes: int = 0
    payload: Any = None
    source: Any = None

    @property
    def total_bytes(self) -> int:
        return self.eager_bytes + self.rma_bytes


class Protocol:
    """Abstract serialization protocol."""

    name = "abstract"

    def applicable(self, value: Any) -> bool:
        raise NotImplementedError

    def serialize(self, value: Any) -> SerializedMessage:
        raise NotImplementedError

    def try_serialize(self, value: Any) -> Optional[SerializedMessage]:
        """The message for ``value``, or ``None`` when this protocol does
        not apply -- the send path's one call (:func:`traits.pack`).
        Protocols whose applicability test *is* packing override it, so
        that a sent value is packed exactly once."""
        return self.serialize(value) if self.applicable(value) else None

    def deserialize(self, msg: SerializedMessage) -> Any:
        raise NotImplementedError


def _generic_pack(value: Any) -> bytes:
    """Pack via the buffer archive (pickle fallback inside)."""
    ar = BufferOutputArchive()
    ar.store(value)
    return ar.bytes()


def wire_size(value: Any, packed_len: int) -> int:
    """Bytes this value occupies on the wire.

    Objects may declare a nominal ``nbytes`` larger than their packed Python
    representation -- e.g. synthetic tiles that carry no real array data but
    must be *charged* as if they did.  The wire size is the max of the two.
    """
    nominal = getattr(value, "nbytes", 0) or 0
    return max(packed_len, int(nominal))


def _generic_unpack(data: bytes) -> Any:
    return BufferInputArchive(data).load()


class TrivialProtocol(Protocol):
    """memcpy of fixed-size POD objects.

    A type opts in either by registration (:func:`traits.register_trivial`)
    or by exposing ``__trivially_serializable__ = True`` and ``nbytes``.
    One copy into the message buffer at the sender, none at the receiver
    (delivered in place).
    """

    name = "trivial"

    def applicable(self, value: Any) -> bool:
        from repro.serialization.traits import is_trivially_serializable

        return is_trivially_serializable(value)

    def serialize(self, value: Any) -> SerializedMessage:
        data = _generic_pack(value)
        nbytes = wire_size(value, len(data))
        return SerializedMessage(
            protocol=self.name,
            eager_bytes=nbytes,
            sender_copy_bytes=nbytes,
            receiver_copy_bytes=0,
            payload=data,
        )

    def deserialize(self, msg: SerializedMessage) -> Any:
        return _generic_unpack(msg.payload)


class GenericProtocol(Protocol):
    """Boost.Serialization-like generic protocol via buffer archives.

    Applicable to anything picklable.  One pack copy at the sender, one
    unpack copy at the receiver.
    """

    name = "generic"
    #: buffer copies of the packed bytes on each side
    copies_per_side = 1

    def applicable(self, value: Any) -> bool:
        if type(value) in NATIVE_TYPES:
            return True  # no trial pickle: the archive frames these itself
        try:
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            return True
        except Exception:
            return False

    def serialize(self, value: Any) -> SerializedMessage:
        data = _generic_pack(value)
        n = wire_size(value, len(data))
        return SerializedMessage(
            protocol=self.name,
            eager_bytes=n,
            sender_copy_bytes=self.copies_per_side * n,
            receiver_copy_bytes=self.copies_per_side * n,
            payload=data,
        )

    def try_serialize(self, value: Any) -> Optional[SerializedMessage]:
        # Whether a value can be packed is only known by packing it.
        try:
            return self.serialize(value)
        except Exception:
            return None

    def deserialize(self, msg: SerializedMessage) -> Any:
        return _generic_unpack(msg.payload)


class MadnessProtocol(GenericProtocol):
    """MADNESS serialization: generic plus an extra buffer copy per side.

    MADNESS archives serialize the whole object into an AM buffer which is
    then copied into the transport buffer (and symmetrically on receipt);
    the paper attributes the TTG/MADNESS performance gap on POD-heavy
    workloads to exactly these copies.
    """

    name = "madness"
    copies_per_side = 2


#: Registry in the paper's preference order *excluding* splitmd, which is
#: appended by traits.select_protocol when the backend supports it.
PROTOCOLS = {
    "trivial": TrivialProtocol(),
    "generic": GenericProtocol(),
    "madness": MadnessProtocol(),
}

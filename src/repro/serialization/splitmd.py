"""Split-metadata (splitmd) 2-stage serialization protocol (paper Fig. 4).

Stage 1: the object's *metadata* (fields sufficient to allocate its memory)
is serialized and sent eagerly, together with RMA registration info for the
object's contiguous payload.  Stage 2: the receiver allocates an object from
the metadata and fetches the payload with a one-sided get directly into the
new object's memory -- no intermediate copies on either side.  Once the
transfer completes the sender is notified to release the source object.

splitmd is intrusive: allocated-but-uninitialized must be a valid state, so
types opt in by implementing :class:`SplitMetadataSupport`.
"""

from __future__ import annotations

import importlib
from functools import lru_cache
from typing import Any, Dict, Optional, Protocol as TypingProtocol, Tuple, runtime_checkable

import numpy as np

from repro.serialization.archive import BufferInputArchive, BufferOutputArchive
from repro.serialization.protocols import Protocol, SerializedMessage

#: Modeled size of an RMA registration record appended to metadata messages.
RMA_REGISTRATION_BYTES = 64


@runtime_checkable
class SplitMetadataSupport(TypingProtocol):
    """Interface a type implements to opt in to splitmd.

    ``splitmd_metadata`` returns a small picklable object;
    ``splitmd_payload`` returns the contiguous payload as a numpy array view
    (zero-copy at the sender; None for synthetic cost-model-only objects);
    the classmethod ``splitmd_allocate`` builds an uninitialized instance
    from metadata and ``splitmd_fill`` installs the fetched payload.
    """

    def splitmd_metadata(self) -> Any: ...

    def splitmd_payload(self) -> Optional[np.ndarray]: ...

    @classmethod
    def splitmd_allocate(cls, metadata: Any) -> "SplitMetadataSupport": ...

    def splitmd_fill(self, payload: np.ndarray) -> None: ...


def splitmd_phase_names(tag: str) -> Tuple[str, str]:
    """Span names for the two stages of a splitmd transfer of ``tag``.

    Telemetry links the eager-metadata span and the RMA-payload span of
    one transfer with a flow arrow; both layers must agree on the names,
    so they live here next to the protocol itself.
    """
    return f"splitmd:meta:{tag}", f"splitmd:rma:{tag}"


@lru_cache(maxsize=None)
def _identity_frames(cls: type) -> bytes:
    """The two type-identity frames (module, qualified name) every metadata
    buffer of ``cls`` starts with: the same bytes for every instance."""
    ar = BufferOutputArchive()
    ar.store(cls.__module__)
    ar.store(cls.__qualname__)
    return ar.bytes()


def pack_metadata(value: SplitMetadataSupport) -> bytes:
    """Serialize (type identity, metadata) into a small eager buffer."""
    ar = BufferOutputArchive()
    ar.store(value.splitmd_metadata())
    return _identity_frames(type(value)) + ar.bytes()


def unpack_metadata(data: bytes) -> Tuple[type, Any]:
    """Inverse of :func:`pack_metadata`: returns ``(cls, metadata)``."""
    ar = BufferInputArchive(data)
    module = ar.load()
    qualname = ar.load()
    meta = ar.load()
    return _resolve(module, qualname), meta


def payload_nbytes(value: Any) -> int:
    """Bytes the RMA stage must move for ``value``.

    Uses the live payload when present; synthetic objects (``payload is
    None``) fall back to their declared nominal ``nbytes``.
    """
    return _nbytes(value, value.splitmd_payload())


def _nbytes(value: Any, payload: Optional[np.ndarray]) -> int:
    if payload is not None:
        return int(payload.nbytes)
    return int(getattr(value, "nbytes", 0) or 0)


class SplitMetadataProtocol(Protocol):
    """The 2-stage protocol; only offered by backends with RMA support."""

    name = "splitmd"

    def __init__(self) -> None:
        # Verdict per class: the runtime_checkable isinstance walks the
        # protocol's attribute list on every call, and this sits on the
        # send path of every message.  The interface is methods and a
        # classmethod, so the class decides.
        self._verdicts: Dict[type, bool] = {}

    def applicable(self, value: Any) -> bool:
        cls = type(value)
        verdict = self._verdicts.get(cls)
        if verdict is None:
            verdict = self._verdicts[cls] = isinstance(
                value, SplitMetadataSupport
            ) and not isinstance(value, (int, float, str, bytes, tuple))
        return verdict

    def serialize(self, value: Any) -> SerializedMessage:
        meta_bytes = pack_metadata(value)
        payload = value.splitmd_payload()
        return SerializedMessage(
            protocol=self.name,
            eager_bytes=len(meta_bytes) + RMA_REGISTRATION_BYTES,
            rma_bytes=_nbytes(value, payload),
            sender_copy_bytes=0,
            receiver_copy_bytes=0,
            payload=(meta_bytes, payload),
            source=value,
        )

    def deserialize(self, msg: SerializedMessage) -> Any:
        """Single-shot deserialize for tests; backends integrate the RMA
        stage with the comm engine instead of calling this."""
        meta_bytes, payload = msg.payload
        cls, meta = unpack_metadata(meta_bytes)
        obj = cls.splitmd_allocate(meta)
        if payload is not None:
            obj.splitmd_fill(np.array(payload, copy=True))
        return obj


@lru_cache(maxsize=None)
def _resolve(module: str, qualname: str) -> type:
    mod = importlib.import_module(module)
    obj: Any = mod
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not isinstance(obj, type):
        raise TypeError(f"{module}.{qualname} is not a class")
    return obj

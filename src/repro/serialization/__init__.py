"""Serialization framework mirroring Section II-C of the paper.

TTG supports several serialization protocols and picks the best available one
per type via compile-time traits; we reproduce the same hierarchy with
runtime traits:

1. **splitmd** -- 2-stage split-metadata protocol: small metadata message
   (eager) + one-sided RMA transfer of the contiguous payload; zero
   intermediate copies.  Intrusive: the type must implement the
   :class:`~repro.serialization.splitmd.SplitMetadataSupport` interface.
2. **trivial** -- memcpy of a fixed-size plain-old-data object.
3. **generic** -- Boost.Serialization-like generic archive (implemented with
   pickle into an in-memory buffer archive); one pack copy at the sender and
   one unpack copy at the receiver.
4. **madness** -- MADNESS serialization: like generic but with an extra
   buffer copy on each side (the cost the paper attributes to the MADNESS
   backend for POD-heavy workloads).

Preference order (paper, end of II-C): splitmd > trivial > generic > madness.
"""

from repro.serialization.archive import BufferOutputArchive, BufferInputArchive
from repro.serialization.protocols import (
    Protocol,
    SerializedMessage,
    TrivialProtocol,
    GenericProtocol,
    MadnessProtocol,
    PROTOCOLS,
)
from repro.serialization.splitmd import SplitMetadataSupport, SplitMetadataProtocol
from repro.serialization.traits import (
    is_trivially_serializable,
    supports_splitmd,
    select_protocol,
    pack,
    register_trivial,
)

__all__ = [
    "BufferOutputArchive",
    "BufferInputArchive",
    "Protocol",
    "SerializedMessage",
    "TrivialProtocol",
    "GenericProtocol",
    "MadnessProtocol",
    "SplitMetadataSupport",
    "SplitMetadataProtocol",
    "PROTOCOLS",
    "is_trivially_serializable",
    "supports_splitmd",
    "select_protocol",
    "pack",
    "register_trivial",
]

"""In-memory buffer archives optimized for messaging (no versioning/tracking).

Stock Boost archives carry archival features (type versioning, pointer
tracking) that the paper deems ill-suited for messaging; TTG uses custom
buffer archives.  These classes are the Python analogue: length-prefixed
binary framing into a single bytearray, with explicit typed accessors for
scalars, bytes and numpy arrays.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

import numpy as np

_TAG_PICKLE = 0
_TAG_BYTES = 1
_TAG_NDARRAY = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_NONE = 6


#: Types :meth:`BufferOutputArchive.store` frames natively (exact types;
#: ``bool`` goes through pickle but cannot fail either): packing one of
#: these needs no trial run to know that it works.
NATIVE_TYPES = (type(None), bool, int, float, str, bytes, np.ndarray)


class ArchiveError(RuntimeError):
    """Raised on malformed archive data."""


class BufferOutputArchive:
    """Serialize values into a growing in-memory buffer.

    Scalars, bytes and numpy arrays are stored natively (no pickle overhead);
    everything else falls back to pickle within the same frame stream.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def _frame(self, tag: int, payload: bytes) -> None:
        self._buf += struct.pack("<BI", tag, len(payload))
        self._buf += payload

    def store(self, value: Any) -> "BufferOutputArchive":
        if value is None:
            self._frame(_TAG_NONE, b"")
        elif isinstance(value, bool):
            # bool is an int subclass; keep pickle for exact round-trip.
            self._frame(_TAG_PICKLE, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        elif isinstance(value, int):
            self._frame(_TAG_INT, struct.pack("<q", value))
        elif isinstance(value, float):
            self._frame(_TAG_FLOAT, struct.pack("<d", value))
        elif isinstance(value, str):
            self._frame(_TAG_STR, value.encode("utf-8"))
        elif isinstance(value, (bytes, bytearray, memoryview)):
            self._frame(_TAG_BYTES, bytes(value))
        elif isinstance(value, np.ndarray):
            header = pickle.dumps((value.dtype.str, value.shape), protocol=pickle.HIGHEST_PROTOCOL)
            raw = np.ascontiguousarray(value).tobytes()
            self._frame(_TAG_NDARRAY, struct.pack("<I", len(header)) + header + raw)
        else:
            self._frame(_TAG_PICKLE, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        return self

    def bytes(self) -> bytes:
        return bytes(self._buf)

    @property
    def nbytes(self) -> int:
        return len(self._buf)


class BufferInputArchive:
    """Deserialize values written by :class:`BufferOutputArchive`."""

    def __init__(self, data: bytes) -> None:
        self._data = memoryview(data)
        self._pos = 0

    def _read(self, n: int) -> memoryview:
        if self._pos + n > len(self._data):
            raise ArchiveError("archive underflow")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def load(self) -> Any:
        tag, length = struct.unpack("<BI", self._read(5))
        payload = self._read(length)
        try:
            if tag == _TAG_NONE:
                return None
            if tag == _TAG_INT:
                return struct.unpack("<q", payload)[0]
            if tag == _TAG_FLOAT:
                return struct.unpack("<d", payload)[0]
            if tag == _TAG_STR:
                return bytes(payload).decode("utf-8")
            if tag == _TAG_BYTES:
                return bytes(payload)
            if tag == _TAG_NDARRAY:
                (hlen,) = struct.unpack("<I", payload[:4])
                dtype_str, shape = pickle.loads(bytes(payload[4 : 4 + hlen]))
                raw = payload[4 + hlen :]
                return np.frombuffer(raw, dtype=np.dtype(dtype_str)).reshape(shape).copy()
            if tag == _TAG_PICKLE:
                return pickle.loads(bytes(payload))
        except ArchiveError:
            raise
        except (struct.error, pickle.UnpicklingError, ValueError, TypeError,
                UnicodeDecodeError, EOFError, KeyError, AttributeError,
                IndexError, MemoryError) as e:
            # A length prefix or payload corrupted in-flight must surface
            # as malformed archive data, never a bare codec exception.
            raise ArchiveError(
                f"malformed frame payload (tag {tag}): {e}"
            ) from e
        raise ArchiveError(f"unknown frame tag {tag}")

    def at_end(self) -> bool:
        return self._pos == len(self._data)

    @property
    def tell(self) -> int:
        """Current read offset into the underlying buffer.

        Checkpoint readers use this to know how many bytes the frames
        consumed so far (e.g. to checksum exactly the span they cover).
        """
        return self._pos

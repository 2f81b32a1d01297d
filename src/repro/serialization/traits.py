"""Type traits and protocol selection (paper II-C, last paragraph).

``select_protocol`` picks, for a given value, the best applicable protocol in
the paper's preference order::

    splitmd (if the backend supports RMA) > trivial > generic > madness

Types may be registered as trivially serializable; alternatively a type can
expose ``__trivially_serializable__ = True``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterable, Optional, Set, Tuple, Type

from repro.serialization.protocols import PROTOCOLS, Protocol, SerializedMessage
from repro.serialization.splitmd import SplitMetadataProtocol

_SPLITMD = SplitMetadataProtocol()
_TRIVIAL_TYPES: Set[type] = {int, float, bool, complex}


def register_trivial(cls: Type[Any]) -> Type[Any]:
    """Class decorator / function registering a fixed-size POD type."""
    _TRIVIAL_TYPES.add(cls)
    return cls


def is_trivially_serializable(value: Any) -> bool:
    """True for registered PODs, small scalar tuples, and opted-in types."""
    if type(value) in _TRIVIAL_TYPES:
        return True
    if getattr(type(value), "__trivially_serializable__", False):
        return True
    if isinstance(value, tuple) and all(type(v) in _TRIVIAL_TYPES for v in value):
        return True
    return False


def supports_splitmd(value: Any) -> bool:
    """True when the value implements the intrusive splitmd interface."""
    return _SPLITMD.applicable(value)


@lru_cache(maxsize=None)
def _preference(splitmd: bool,
                allowed: Optional[Tuple[str, ...]]) -> Tuple[Protocol, ...]:
    """Protocols to try, best first (two backends, a few whitelists: the
    order is looked up once per message and built once per combination)."""
    order = [_SPLITMD] if splitmd else []
    order.extend(PROTOCOLS[name] for name in ("trivial", "generic", "madness"))
    return tuple(p for p in order if allowed is None or p.name in allowed)


def _candidates(splitmd: bool,
                allowed: Optional[Iterable[str]]) -> Tuple[Protocol, ...]:
    return _preference(splitmd, None if allowed is None else tuple(allowed))


def _refused(value: Any) -> TypeError:
    return TypeError(
        f"no serialization protocol applicable to {type(value).__name__}")


def select_protocol(
    value: Any,
    *,
    backend_supports_splitmd: bool = False,
    allowed: Optional[Iterable[str]] = None,
) -> Protocol:
    """Choose the best applicable serialization protocol for ``value``.

    Parameters
    ----------
    backend_supports_splitmd:
        The splitmd protocol needs backend RMA support (PaRSEC backend only,
        per the paper).
    allowed:
        Optional whitelist of protocol names (used by ablation benches to
        force e.g. generic serialization).
    """
    for proto in _candidates(backend_supports_splitmd, allowed):
        if proto.applicable(value):
            return proto
    raise _refused(value)


def pack(
    value: Any,
    *,
    backend_supports_splitmd: bool = False,
    allowed: Optional[Iterable[str]] = None,
) -> Tuple[Protocol, SerializedMessage]:
    """Serialize ``value`` with the best applicable protocol.

    The send path: same choice as :func:`select_protocol` followed by
    ``serialize``, but each value is packed exactly once (the generic
    protocols can only tell that they apply by packing).
    """
    for proto in _candidates(backend_supports_splitmd, allowed):
        msg = proto.try_serialize(value)
        if msg is not None:
            return proto, msg
    raise _refused(value)

"""Process maps (keymaps) and priority maps.

The process on which a given task executes is specified by a user-defined
function mapping task IDs to ranks; priorities are likewise supplied by a
per-template priority map (one of the features added by the paper).
Common maps used by the applications live here.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Any, Callable


def hash_keymap(nranks: int) -> Callable[[Any], int]:
    """Stable hash of the key modulo ranks (default distribution).

    Uses crc32 of the repr so that the mapping is stable across processes
    and Python runs (builtin ``hash`` is salted for strings).
    """

    def keymap(key: Any) -> int:
        return zlib.crc32(repr(key).encode()) % nranks

    return keymap


def round_robin_keymap(nranks: int) -> Callable[[Any], int]:
    """First element of a tuple key (or the key itself) modulo ranks."""

    def keymap(key: Any) -> int:
        if isinstance(key, tuple) and key:
            return int(key[0]) % nranks
        return int(key) % nranks

    return keymap


def block_cyclic_keymap(prows: int, pcols: int) -> Callable[[Any], int]:
    """2-D block-cyclic map for (i, j[, ...]) tile keys.

    Rank = (i mod P) * Q + (j mod Q): the distribution used by the dense
    linear-algebra applications (and ScaLAPACK).
    """

    def keymap(key: Any) -> int:
        i, j = int(key[0]), int(key[1])
        return (i % prows) * pcols + (j % pcols)

    return keymap


def constant_keymap(rank: int) -> Callable[[Any], int]:
    """Pin every task of a template to one rank (e.g. result collectors)."""

    def keymap(key: Any) -> int:
        return rank

    return keymap


def subtree_keymap(nranks: int, target_level: int) -> Callable[[Any], int]:
    """MRA-style map: randomly distribute tree nodes *and their subtrees*.

    Keys are ``(func_id, level, index_tuple)``.  Nodes at or below the
    target refinement level map with their ancestor at that level, keeping
    subtrees local while spreading them across ranks (paper III-E:
    over-decomposition via a task ID map at a target level of refinement).

    Every node of a subtree shares its anchor ``(fid, level, idx)`` at the
    target level, so the anchor's owner is hashed once and remembered for
    the life of the map: the anchors number at most
    ``functions * 2^(d * target_level)`` (plus the few boxes above them).
    The map stays a pure function of the task ID.
    """

    @lru_cache(maxsize=None)
    def owner(anchor: Any) -> int:
        return zlib.crc32(repr(anchor).encode()) % nranks

    def keymap(key: Any) -> int:
        fid, level, idx = key
        if level > target_level:
            shift = level - target_level
            idx = tuple(i >> shift for i in idx)
            level = target_level
        return owner((fid, level, idx))

    return keymap


def zero_priomap(key: Any) -> int:
    """Default priority: all tasks equal."""
    return 0

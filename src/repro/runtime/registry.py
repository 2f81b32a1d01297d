"""Runtime-object registry: stable keys for pickling event-heap entries.

Heap entries reference live runtime objects -- the backend, worker pools,
executables, template tasks -- that cannot (and must not) be serialized by
value: a template task closes over user callables, a backend owns an open
telemetry bus, and pickling any of them by value would duplicate the
runtime instead of referencing it.  This module assigns every such object
a *structural key* derived from a deterministic walk over the backend
object graph, and provides pickler/unpickler pairs that swap objects for
keys on the way out (``persistent_id``) and keys for objects on the way
back in (``persistent_load``).

Physical checkpoints (:mod:`repro.durability.checkpoint` format v2) rely
on the walk being deterministic: a resumed process rebuilds the backend
by replaying the build phase, walks it, and restores the serialized heap
against the fresh objects.

The walk covers exactly the objects reachable from scheduled callbacks:
backend, engine, cluster (+network), comm endpoint, RMA window,
termination detector, stats, tracer, telemetry (+bus/+metrics), worker
pools by rank, and every executable (graph + template tasks) in
registration order.  Bound methods of registered objects need no entry of
their own -- pickle reduces them to ``getattr(owner, name)`` and the owner
resolves through the registry.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, Dict, Optional, Tuple

Key = Tuple[Any, ...]


class RegistryError(RuntimeError):
    """An object required by a heap entry is not in the registry."""


class RuntimeRegistry:
    """Bidirectional map between runtime objects and structural keys."""

    def __init__(self) -> None:
        self._key_by_id: Dict[int, Key] = {}
        self._obj_by_key: Dict[Key, Any] = {}
        # Strong refs pin every registered object so CPython cannot
        # recycle an id() for a different object mid-run.
        self._pinned: list = []

    def add(self, key: Key, obj: Any) -> None:
        if obj is None:
            return
        oid = id(obj)
        if oid in self._key_by_id:
            return  # first registration wins (stable under re-walks)
        self._key_by_id[oid] = key
        self._obj_by_key[key] = obj
        self._pinned.append(obj)

    def key_of(self, obj: Any) -> Optional[Key]:
        return self._key_by_id.get(id(obj))

    def obj_of(self, key: Key) -> Any:
        try:
            return self._obj_by_key[key]
        except KeyError:
            raise RegistryError(
                f"no runtime object registered under key {key!r}; the "
                "restoring process must rebuild the same backend structure "
                "(same graphs, same registration order) before loading"
            ) from None

    def __len__(self) -> int:
        return len(self._obj_by_key)

    # ---------------------------------------------------------------- walk

    @classmethod
    def for_backend(cls, backend: Any) -> "RuntimeRegistry":
        """Walk ``backend`` and register every runtime object reachable
        from scheduled callbacks.  The walk order is structural (never
        id- or hash-ordered), so two processes holding equal backend
        structures produce identical key spaces."""
        from repro.core.graph import _EMPTY  # deferred: graph imports runtime

        reg = cls()
        # The empty-slot sentinel is compared with ``is`` by the delivery
        # paths; by-value pickling would mint a different object and break
        # every restored _Pending, so it travels by reference.
        reg.add(("sentinel", "empty"), _EMPTY)
        reg.add(("backend",), backend)
        reg.add(("engine",), backend.engine)
        reg.add(("cluster",), backend.cluster)
        reg.add(("network",), getattr(backend.cluster, "network", None))
        reg.add(("comm",), backend.comm)
        reg.add(("rma",), backend.rma)
        reg.add(("termination",), backend.termination)
        reg.add(("stats",), backend.stats)
        reg.add(("config",), backend.config)
        reg.add(("tracer",), backend.tracer)
        tel = backend.telemetry
        if tel is not None:
            reg.add(("telemetry",), tel)
            reg.add(("telemetry", "bus"), tel.bus)
            reg.add(("telemetry", "metrics"), tel.metrics)
        for r, pool in enumerate(backend.pools):
            reg.add(("pool", r), pool)
        for j, ex in enumerate(getattr(backend, "executables", ())):
            reg.add(("ex", j), ex)
            reg.add(("ex", j, "graph"), ex.graph)
            if ex.sanitizer is not None:
                reg.add(("ex", j, "sanitizer"), ex.sanitizer)
            for t, tt in enumerate(ex.graph.tts):
                reg.add(("ex", j, "tt", t), tt)
                # Graph-owned callables (bodies, maps, reducers) are
                # frequently closures over application state; they are
                # identical in every process that rebuilt the same graph,
                # so they travel by key.
                for attr in ("fn", "_keymap", "_priomap", "_devicemap",
                             "_cost"):
                    reg.add(("ex", j, "tt", t, attr),
                            getattr(tt, attr, None))
                for i, term in enumerate(tt.inputs):
                    reg.add(("ex", j, "tt", t, "in", i), term)
                    reg.add(("ex", j, "tt", t, "in", i, "edge"), term.edge)
                    reg.add(("ex", j, "tt", t, "in", i, "reducer"),
                            getattr(term, "reducer", None))
                for i, term in enumerate(tt.outputs):
                    reg.add(("ex", j, "tt", t, "out", i), term)
                    reg.add(("ex", j, "tt", t, "out", i, "edge"), term.edge)
        return reg

    # ------------------------------------------------------------- pickling

    def dumps(self, obj: Any) -> bytes:
        buf = io.BytesIO()
        _RegistryPickler(self, buf).dump(obj)
        return buf.getvalue()

    def loads(self, data: bytes) -> Any:
        return _RegistryUnpickler(self, io.BytesIO(data)).load()


class _RegistryPickler(pickle.Pickler):
    """Pickler swapping registered runtime objects for structural keys."""

    def __init__(self, registry: RuntimeRegistry, file: Any) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._registry = registry

    def persistent_id(self, obj: Any) -> Any:
        key = self._registry.key_of(obj)
        return None if key is None else ("rt", key)


class _RegistryUnpickler(pickle.Unpickler):
    def __init__(self, registry: RuntimeRegistry, file: Any) -> None:
        super().__init__(file)
        self._registry = registry

    def persistent_load(self, pid: Any) -> Any:
        kind, payload = pid
        if kind == "rt":
            return self._registry.obj_of(payload)
        raise RegistryError(f"unknown persistent id kind {kind!r}")

"""MADNESS backend (paper II-D).

The original proof-of-concept TTG backend.  Distinguishing behaviour:

- no splitmd: every object is fully serialized with the MADNESS protocol
  (two buffer copies per side for non-trivial types);
- the runtime does not own TTG data, so even const-ref sends copy
  (``copy_on_cref=True``) -- the paper attributes the MRA performance gap to
  exactly "data copies and high communication overhead";
- a *single* thread serves remote active messages: deserialization occupies
  that thread, so message-heavy phases serialize behind it
  (``am_cost_per_byte > 0`` and ``_copies_block_am_server``).
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.base import Backend, BackendConfig
from repro.sim.cluster import Cluster
from repro.sim.trace import Tracer
from repro.telemetry.events import Telemetry


class MadnessBackend(Backend):
    """TTG over the MADNESS-like runtime."""

    name = "madness"

    # World futures and RMI replies are address-space local, so heap
    # entries do not pickle: checkpoints stay logical for this backend.
    heap_picklable = False

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[BackendConfig] = None,
        tracer: Optional[Tracer] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if config is None:
            config = BackendConfig(
                scheduler="priority",
                broadcast="optimized",
                serialization_allowed=("trivial", "madness"),
                supports_splitmd=False,
                copy_on_cref=True,
                # Deserialization copies already occupy the single AM
                # server thread at copy_bandwidth (see base.send_value);
                # this per-byte term only covers header handling.
                am_cost_per_byte=2.0e-11,
            )
        super().__init__(cluster, config, tracer, telemetry)

    def _copies_block_am_server(self) -> bool:
        return True

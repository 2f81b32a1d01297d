"""PaRSEC backend (paper II-D).

The performance vehicle of TTG.  Distinguishing behaviour reproduced here:

- splitmd serialization is available (only on this backend, per the paper);
- the runtime *owns* the data flowing through the graph, so sending by
  const-ref performs no copy (``copy_on_cref=False``);
- active messages are used only for small control signals, one-sided
  transfers move the data, and completion callbacks drive progress; the
  communication thread's per-message cost is low and independent of payload
  size (payloads bypass the AM server entirely);
- MCA-style schedulers; the default honours task priorities so per-template
  priority maps take effect.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.base import Backend, BackendConfig
from repro.sim.cluster import Cluster
from repro.telemetry.events import Telemetry


class ParsecBackend(Backend):
    """TTG over the PaRSEC-like runtime."""

    name = "parsec"

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[BackendConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if config is None:
            config = BackendConfig(
                scheduler="priority",
                broadcast="optimized",
                serialization_allowed=None,
                supports_splitmd=True,
                copy_on_cref=False,
                am_cost_per_byte=0.0,
            )
        super().__init__(cluster, config, telemetry)

    def _copies_block_am_server(self) -> bool:
        # Deserialization (when a non-splitmd protocol is used at all) runs
        # on worker threads, not the communication thread.
        return False

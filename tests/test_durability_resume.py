"""The checkpointer's engine hook: off by default, and removable.

A killed run is not resumed: the simulator is deterministic, so running
the cell again reproduces it bit for bit.  What stays is the write-only
checkpoint trail, armed and disarmed through the backend.
"""

from repro.durability import Checkpointer
from repro.runtime import ParsecBackend
from repro.sim.cluster import Cluster, HAWK


def test_checkpointing_disabled_by_default():
    """Zero-overhead path: no hook, no cadence, no directory touched."""
    backend = ParsecBackend(Cluster(HAWK.with_workers(1), 1))
    assert backend.checkpointer is None
    assert backend.engine.on_checkpoint is None
    assert backend.engine.checkpoint_every == 0


def test_checkpointer_detach_restores_engine(tmp_path):
    backend = ParsecBackend(Cluster(HAWK.with_workers(1), 1))
    ck = Checkpointer(str(tmp_path), "r-seed0-seq", spec={"app": "r"},
                      every=16)
    backend.attach_checkpointer(ck)
    assert backend.engine.on_checkpoint is not None
    assert backend.engine.checkpoint_every == 16
    backend.close_checkpointer()
    assert backend.checkpointer is None
    assert backend.engine.on_checkpoint is None
    assert backend.engine.checkpoint_every == 0

"""Communication layer on top of the simulator.

Provides the abstractions the TTG backends consume (Section II-D): active
messages for control, one-sided RMA transfers for bulk data, completion
callbacks and FIFO point-to-point channels.  The bulk-synchronous
baselines charge their collectives analytically through
:class:`~repro.sim.network.NetworkModel`.
"""

from repro.comm.endpoint import CommEngine
from repro.comm.rma import RmaWindow

__all__ = ["CommEngine", "RmaWindow"]

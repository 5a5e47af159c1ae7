"""XRL protocol families (paper §6.3).

    "Protocol families are the mechanisms by which XRLs are transported
    from one component to another.  Each protocol family is responsible
    for providing argument marshaling and unmarshaling facilities as well
    as the IPC mechanism itself."

Families implemented here:

* ``local``  — intra-process direct dispatch (paper "Intra-Process");
* ``stcp``   — real TCP with request pipelining (XORP's default);
* ``sudp``   — real UDP, deliberately *without* pipelining, mirroring the
  paper's first prototype ("UDP ... does not pipeline requests");
* ``sim``    — simulated-latency delivery on a virtual clock, used by the
  latency experiments to model IPC context-switch cost;
* ``kill``   — delivers a Unix-signal-like number to a process;
* ``fault``  — a wrapper family that deterministically drops, delays,
  duplicates, corrupts, or partitions frames of any inner family (the
  chaos harness behind the supervision tests).
"""

from repro.xrl.transport.base import ProtocolFamily, Sender
from repro.xrl.transport.fault import FaultFamily, FaultStats
from repro.xrl.transport.intra import IntraProcessFamily
from repro.xrl.transport.kill import KillFamily
from repro.xrl.transport.sim import SimFamily
from repro.xrl.transport.tcp import TcpFamily
from repro.xrl.transport.udp import UdpFamily

__all__ = [
    "FaultFamily",
    "FaultStats",
    "IntraProcessFamily",
    "KillFamily",
    "ProtocolFamily",
    "Sender",
    "SimFamily",
    "TcpFamily",
    "UdpFamily",
]

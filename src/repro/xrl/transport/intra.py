"""Intra-process protocol family: direct dispatch, no sockets.

Matches the paper's "Intra-Process direct calling where the XRL library
invokes direct method calls between a sender and receiver inside the same
process".  Marshaling still happens (the library code path is shared with
the networked families); only the transport disappears.  Delivery is
deferred through the event loop so callers observe the same asynchronous
semantics on every family.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict

from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.transport.base import DirectSender, ProtocolFamily, Sender


class _IntraSender(DirectSender):
    def _target(self):
        entry = self._family._listeners.get(self._address)
        if entry is None:
            raise XrlError(
                XrlErrorCode.SEND_FAILED, f"intra target {self._address} is gone"
            )
        target_router, process_token = entry
        if process_token != self._caller.process_token:
            raise XrlError(
                XrlErrorCode.SEND_FAILED,
                "intra-process family cannot cross process boundaries",
            )
        return target_router

    # Each family's sender class carries its own entries, so per-class
    # instrumentation can wrap one family without touching the other.
    call = DirectSender.call
    call_batch = DirectSender.call_batch


class IntraProcessFamily(ProtocolFamily):
    """Shared in-interpreter registry of intra-process listeners."""

    name = "local"
    preference = 30

    def __init__(self) -> None:
        self._listeners: Dict[str, tuple] = {}
        self._ids = itertools.count(1)

    def listen(self, router) -> str:
        # The pid keeps addresses globally unique when several real OS
        # processes register with one Finder (multi-process deployment):
        # another interpreter's "intra-N" must never alias ours.
        address = f"intra-{os.getpid():x}-{next(self._ids)}"
        self._listeners[address] = (router, router.process_token)
        return address

    def connect(self, address: str, router) -> Sender:
        return _IntraSender(self, address, router)

    def unlisten(self, address: str) -> None:
        self._listeners.pop(address, None)

    def reachable(self, address: str, router) -> bool:
        """True if *router* may use this address (same process only)."""
        entry = self._listeners.get(address)
        return entry is not None and entry[1] == router.process_token

"""Kill protocol family.

    "Finally, there exists a kill protocol family, which is capable of
    sending just one message type — a UNIX signal — to components within a
    host."  (paper §6.3)

Here a "signal" is an integer delivered to the owning process object's
``on_signal`` handler.  The Router Manager uses it to stop modules.
"""

from __future__ import annotations

import itertools
from typing import Dict

from repro.xrl.args import XrlArgs
from repro.xrl.codec import TEXTUAL
from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.transport.base import ProtocolFamily, ReplyCallback, Sender

SIGTERM = 15
SIGKILL = 9
SIGHUP = 1


class _KillSender(Sender):
    def __init__(self, family: "KillFamily", address: str, router):
        self._family = family
        self._address = address
        self._caller = router

    def call(self, request: bytes, reply_cb: ReplyCallback) -> None:
        """The request payload is a single byte: the signal number."""
        import struct

        target = self._family._listeners.get(self._address)
        if target is None:
            raise XrlError(
                XrlErrorCode.SEND_FAILED, f"kill target {self._address} is gone"
            )
        (seq,) = struct.unpack_from("!I", request, 0)
        signal_number = request[4] if len(request) > 4 else SIGTERM
        loop = self._caller.loop

        def deliver() -> None:
            # Liveness is re-checked at delivery time: an unlisten that
            # lands between call() and the loop running us must not
            # resurrect the handler of a process that is already gone.
            if self._family._listeners.get(self._address) is not target:
                reply_cb(TEXTUAL.encode_response(
                    seq,
                    XrlError(XrlErrorCode.SEND_FAILED,
                             f"kill target {self._address} died before "
                             "delivery"),
                    XrlArgs()))
                return
            handler = getattr(target, "on_signal", None)
            if handler is not None:
                handler(signal_number)
            reply_cb(TEXTUAL.encode_response(seq, XrlError.okay(), XrlArgs()))

        loop.call_soon(deliver)


class KillFamily(ProtocolFamily):
    name = "kill"
    preference = 0

    def __init__(self) -> None:
        self._listeners: Dict[str, object] = {}
        self._ids = itertools.count(1)

    def listen(self, router) -> str:
        """Register *router* (anything with ``on_signal``) as killable."""
        import os

        address = f"pid-{os.getpid():x}-{next(self._ids)}"
        self._listeners[address] = router
        return address

    def connect(self, address: str, router) -> Sender:
        return _KillSender(self, address, router)

    def unlisten(self, address: str) -> None:
        self._listeners.pop(address, None)

    def capabilities(self) -> dict:
        """Signals have one fixed wire form; no codec to negotiate."""
        return {"codecs": ("signal",)}

    @staticmethod
    def encode_signal(seq: int, signal_number: int) -> bytes:
        import struct

        return struct.pack("!IB", seq & 0xFFFFFFFF, signal_number)

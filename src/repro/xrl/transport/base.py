"""Protocol family base classes.

The frame codecs themselves live in :mod:`repro.xrl.codec`; a sender
speaks :data:`~repro.xrl.codec.TEXTUAL` frames unless its transport
negotiates another codec.

Every transport exposes the same constructor surface (the uniform API
the codec negotiation relies on):

* ``listen(router) -> address``
* ``connect(address, router) -> Sender``
* ``capabilities() -> dict`` — at minimum ``{"codecs": (...)}``; the
  TCP hello/ack exchange advertises exactly this set, and wrapper
  families (fault, kill) delegate so they compose over a negotiated
  binary codec unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.xrl.args import XrlArgs
from repro.xrl.codec import TEXTUAL
from repro.xrl.error import XrlError

ReplyCallback = Callable[[bytes], None]


class Sender:
    """A connection to one remote listener address.

    :meth:`call` transmits one encoded request and arranges for the raw
    response frame to reach *reply_cb*.  Whether calls pipeline (multiple
    outstanding) is a per-family property — the crux of the paper's
    TCP-vs-UDP comparison in Figure 9.

    The frames a sender carries are opaque between the router and this
    sender: the router encodes requests with :meth:`encode_request` and
    decodes the reply frames with :meth:`decode_response`, so a
    codec-negotiating transport (TCP) can swap the wire form under an
    established connection without the router noticing.
    """

    def encode_request(self, seq: int, resolved_method: str,
                       args: XrlArgs) -> bytes:
        """Encode one request frame for this connection's current codec."""
        return TEXTUAL.encode_request(seq, resolved_method, args)

    def decode_response(self, frame: bytes) -> Tuple[int, XrlError, XrlArgs]:
        """Decode one reply frame previously passed to a reply callback."""
        return TEXTUAL.decode_response(frame)

    def call(self, request: bytes, reply_cb: ReplyCallback) -> None:
        raise NotImplementedError

    def call_batch(self, requests: "list") -> None:
        """Transmit several ``(request, reply_cb)`` pairs coalesced.

        Families with per-call transmission overhead (a syscall, an
        event-loop hop) override this to pay that overhead once per batch;
        responses still arrive individually, demuxed by sequence number.
        The default decomposes the batch into singular :meth:`call`\\ s, so
        the batch is always semantically identical to its decomposition —
        the same contract the staged tables follow.
        """
        for request, reply_cb in requests:
            self.call(request, reply_cb)

    def close(self) -> None:
        """Release transport resources (idempotent)."""

    def retire(self) -> None:
        """Stop using this sender, but let in-flight replies drain first.

        The router calls this when a Finder invalidation drops a cached
        resolution: the resolution is stale, yet requests already on the
        wire may still complete — a re-registration (new methods, a
        sibling birth) must not shoot down its own connection's pending
        calls.  Stateful transports override to defer the close until the
        last pending reply arrives.
        """
        self.close()

    @property
    def alive(self) -> bool:
        return True


class DirectSender(Sender):
    """Delivery by direct dispatch through the caller's event loop.

    The in-interpreter families (intra-process, host-local) differ only in
    how they find the listening router, :meth:`_target`.  Delivery is
    deferred one loop hop so callers observe the same asynchronous
    semantics as on a socket.
    """

    def __init__(self, family: "ProtocolFamily", address: str, router):
        self._family = family
        self._address = address
        self._caller = router

    def _target(self):
        """The listening router; raise ``SEND_FAILED`` if it is unusable."""
        raise NotImplementedError

    def call(self, request: bytes, reply_cb: ReplyCallback) -> None:
        target_router = self._target()
        loop = self._caller.loop

        def deliver() -> None:
            target_router.dispatch_frame_async(
                request, lambda response: loop.call_soon(reply_cb, response))

        loop.call_soon(deliver)

    def call_batch(self, requests) -> None:
        """Deliver a whole batch in two event-loop hops instead of ``2N``.

        One deferred call dispatches every request; replies produced
        synchronously by the handlers are collected and flushed together
        in a second deferred call.  A handler that defers (an XRL
        intermediary) still answers through its own later hop.
        """
        target_router = self._target()
        loop = self._caller.loop
        pairs = list(requests)

        def deliver() -> None:
            ready = []
            collecting = True

            def respond_for(reply_cb):
                def respond(response: bytes) -> None:
                    if collecting:
                        ready.append((reply_cb, response))
                    else:
                        loop.call_soon(reply_cb, response)
                return respond

            for request, reply_cb in pairs:
                target_router.dispatch_frame_async(request,
                                                   respond_for(reply_cb))
            collecting = False
            if ready:
                def flush() -> None:
                    for reply_cb, response in ready:
                        reply_cb(response)
                loop.call_soon(flush)

        loop.call_soon(deliver)


class ProtocolFamily:
    """Factory for listeners and senders of one transport kind."""

    #: family tag used in resolved XRLs (e.g. ``stcp``)
    name: str = "?"
    #: larger is preferred when several families can reach a target
    preference: int = 0

    def listen(self, router) -> str:
        """Start receiving for *router*; return the listener address."""
        raise NotImplementedError

    def connect(self, address: str, router) -> Sender:
        """Create (or reuse) a sender towards *address*."""
        raise NotImplementedError

    def unlisten(self, address: str) -> None:
        """Stop receiving on *address* (idempotent)."""

    def capabilities(self) -> dict:
        """What this transport speaks; read by the codec negotiation."""
        return {"codecs": ("textual",)}

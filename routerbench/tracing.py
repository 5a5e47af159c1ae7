"""Per-layer attribution for the traced run, from outside the program.

The tracer rebinds public methods of the router's classes with thin
wrappers for the length of one traced run and puts the original function
objects back afterwards.  Nothing under ``src/`` knows it exists.

* A *span* wrapper records ``(metric, parent, start_ns, end_ns)`` per call
  into flat in-memory lists; the parent is whatever wrapped call was open
  on the call stack.  Self time is derived at the end: a span's duration
  minus the durations of its direct children.  ``calls`` counts spans
  whose parent is not a span of the same metric, so a handler that
  delegates to a sibling handler (``xrl_replace_route4`` calling
  ``xrl_add_route4``) is one call.
* A *count* wrapper only bumps a counter (event-loop turns, queued
  callbacks, Finder resolutions): spans there would cost more than the
  work they describe.

Handlers are captured as bound methods when a process binds its XRL
interfaces, so the tracer must be armed *before* the traced router is
built.  :meth:`Tracer.disarm` restores every class attribute and
:meth:`Tracer.restored` checks identity (``cls.__dict__[name] is
original``), the same structural check the repository's sanitizer and
obs overhead gates use.
"""

from __future__ import annotations

import gc
import gzip
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.core.stages import OriginStage
from repro.core.txqueue import XrlTransmitQueue
from repro.bgp.peer import PeerHandler
from repro.eventloop import EventLoop
from repro.fea import FeaProcess
from repro.fea.backends import TrieFibBackend
from repro.rib import RibProcess
from repro.rib.flow import FeaFlowController
from repro.trie.trie import RouteTrie
from repro.xrl import Finder, XrlRouter
from repro.xrl.codec import BinaryCodec, TextualCodec
from repro.xrl.transport.intra import _IntraSender
from repro.xrl.transport.local import _HostLocalSender
from repro.xrl.transport.tcp import _TcpSender

_now_ns = time.perf_counter_ns

#: (class, attribute, metric) — wrapped as spans
SPANS: List[Tuple[type, str, str]] = [
    (PeerHandler, "update_received", "bgp.update"),
    (RibProcess, "xrl_add_route4", "rib.xrl"),
    (RibProcess, "xrl_replace_route4", "rib.xrl"),
    (RibProcess, "xrl_delete_route4", "rib.xrl"),
    (OriginStage, "originate", "rib.origin"),
    (OriginStage, "withdraw", "rib.origin"),
    (OriginStage, "withdraw_if_present", "rib.origin"),
    (FeaFlowController, "submit", "rib.flow.submit"),
    (FeaFlowController, "submit_batch", "rib.flow.submit"),
    (XrlRouter, "dispatch_request", "xrl.dispatch"),
    (TextualCodec, "encode_request", "codec.textual"),
    (TextualCodec, "decode_request", "codec.textual"),
    (TextualCodec, "encode_response", "codec.textual"),
    (TextualCodec, "decode_response", "codec.textual"),
    (BinaryCodec, "encode_request", "codec.binary"),
    (BinaryCodec, "decode_request", "codec.binary"),
    (BinaryCodec, "encode_response", "codec.binary"),
    (BinaryCodec, "decode_response", "codec.binary"),
    (_HostLocalSender, "call", "transport"),
    (_HostLocalSender, "call_batch", "transport"),
    (_IntraSender, "call", "transport"),
    (_IntraSender, "call_batch", "transport"),
    (_TcpSender, "call", "transport"),
    (_TcpSender, "call_batch", "transport"),
    (FeaProcess, "xrl_add_entry4", "fea.xrl"),
    (FeaProcess, "xrl_delete_entry4", "fea.xrl"),
    (FeaProcess, "xrl_add_entries4", "fea.xrl"),
    (FeaProcess, "xrl_delete_entries4", "fea.xrl"),
    (TrieFibBackend, "apply", "fea.backend.apply"),
    (RouteTrie, "insert", "trie.insert"),
    (RouteTrie, "remove", "trie.remove"),
    (RouteTrie, "discard", "trie.remove"),
    (RouteTrie, "exact", "trie.lookup"),
    (RouteTrie, "best_match", "trie.lookup"),
]

#: (class, attribute, counter) — wrapped as counters only
COUNTS: List[Tuple[type, str, str]] = [
    (EventLoop, "run_once", "eventloop.turns"),
    (EventLoop, "call_soon", "eventloop.callbacks"),
    (Finder, "resolve", "xrl.finder.resolves"),
]


class Tracer:
    """In-memory span recorder over wrapped class attributes."""

    def __init__(self) -> None:
        #: recording switch: the benchmark's own FIB probes run with it off
        self.on = False
        self._saved: List[Tuple[type, str, object]] = []
        self._stack: List[int] = []
        self.span_metric: List[str] = []
        self.span_parent: List[int] = []
        self.span_start: List[int] = []
        self.span_end: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: per-call sizes: request bytes, frames per transport call, ...
        self.sizes: Dict[str, int] = defaultdict(int)
        self.txq_waits_ns: List[int] = []
        self._gc_started = 0
        self.gc_ns = 0
        self.gc_collections = 0

    # -- arming ---------------------------------------------------------------
    def arm(self) -> None:
        for cls, name, metric in SPANS:
            self._install(cls, name, self._span_wrapper(cls, name, metric))
        for cls, name, metric in COUNTS:
            self._install(cls, name, self._count_wrapper(cls, name, metric))
        self._install(XrlTransmitQueue, "enqueue", self._enqueue_wrapper())
        self._install(XrlRouter, "send", self._send_wrapper())
        gc.callbacks.append(self._on_gc)

    def disarm(self) -> None:
        self.on = False
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def restored(self) -> List[str]:
        """Wrapped attributes that are not the original object again."""
        return [f"{cls.__name__}.{name}" for cls, name, original in self._saved
                if cls.__dict__.get(name) is not original]

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up units)."""
        self._stack.clear()
        for series in (self.span_metric, self.span_parent, self.span_start,
                       self.span_end, self.txq_waits_ns):
            series.clear()
        self.counts.clear()
        self.sizes.clear()
        self.gc_ns = 0
        self.gc_collections = 0

    def _install(self, cls: type, name: str, wrapper: Callable) -> None:
        original = cls.__dict__[name]
        if isinstance(original, staticmethod):
            wrapper = staticmethod(wrapper)
        self._saved.append((cls, name, original))
        setattr(cls, name, wrapper)

    # -- wrappers -------------------------------------------------------------
    @staticmethod
    def _target(cls: type, name: str) -> Callable:
        original = cls.__dict__[name]
        return (original.__func__ if isinstance(original, staticmethod)
                else original)

    def _span_wrapper(self, cls: type, name: str, metric: str) -> Callable:
        func = self._target(cls, name)
        metrics, parents = self.span_metric, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        measure = _SIZE_OF.get((cls, name))
        sizes = self.sizes

        def wrapper(*args, **kwargs):
            if not self.on:
                return func(*args, **kwargs)
            index = len(metrics)
            metrics.append(metric)
            parents.append(stack[-1] if stack else -1)
            starts.append(_now_ns())
            ends.append(0)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = _now_ns()
                stack.pop()
            if measure is not None:
                measure(sizes, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__qualname__ = getattr(func, "__qualname__", name)
        return wrapper

    def _count_wrapper(self, cls: type, name: str, metric: str) -> Callable:
        func = self._target(cls, name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.on:
                counts[metric] += 1
            return func(*args, **kwargs)

        wrapper.__name__ = func.__name__
        return wrapper

    def _enqueue_wrapper(self) -> Callable:
        """``XrlTransmitQueue.enqueue``: count it and time the wait until
        the queue hands the XRL to the router (its ``on_sent`` moment)."""
        func = self._target(XrlTransmitQueue, "enqueue")
        counts, waits = self.counts, self.txq_waits_ns

        def enqueue(queue, xrl, on_sent=None, on_reply=None, *, batch=False):
            if not self.on:
                return func(queue, xrl, on_sent, on_reply, batch=batch)
            counts["txq.enqueue"] += 1
            queued = _now_ns()

            def sent() -> None:
                waits.append(_now_ns() - queued)
                if on_sent is not None:
                    on_sent()

            return func(queue, xrl, sent, on_reply, batch=batch)

        return enqueue

    def _send_wrapper(self) -> Callable:
        """``XrlRouter.send``: count sends and error replies."""
        func = self._target(XrlRouter, "send")
        counts = self.counts

        def send(router, xrl, callback=None, **kwargs):
            if not self.on:
                return func(router, xrl, callback, **kwargs)
            counts["xrl.send"] += 1

            def completed(error, args) -> None:
                if not error.is_okay:
                    counts["xrl.errors"] += 1
                if callback is not None:
                    callback(error, args)

            return func(router, xrl, completed, **kwargs)

        return send

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.on:
            return
        if phase == "start":
            self._gc_started = _now_ns()
        else:
            self.gc_ns += _now_ns() - self._gc_started
            self.gc_collections += 1

    # -- derived figures --------------------------------------------------------
    def span_totals(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Per metric: top-level call count and self time in ms."""
        metrics, parents = self.span_metric, self.span_parent
        starts, ends = self.span_start, self.span_end
        child_ns = [0] * len(metrics)
        for index, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += ends[index] - starts[index]
        calls: Dict[str, int] = defaultdict(int)
        self_ns: Dict[str, int] = defaultdict(int)
        for index, metric in enumerate(metrics):
            self_ns[metric] += ends[index] - starts[index] - child_ns[index]
            parent = parents[index]
            if parent < 0 or metrics[parent] != metric:
                calls[metric] += 1
        return calls, {metric: ns / 1e6 for metric, ns in self_ns.items()}

    def txq_wait_ms_p50(self) -> float:
        if not self.txq_waits_ns:
            return 0.0
        return statistics.median(self.txq_waits_ns) / 1e6

    def write_spans(self, path) -> None:
        """Gzipped TSV, one line per span: index, parent, metric, start and
        end in ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tparent\tmetric\tstart_ns\tend_ns\n")
            for index, metric in enumerate(self.span_metric):
                out.write(f"{index}\t{self.span_parent[index]}\t{metric}\t"
                          f"{self.span_start[index]}\t"
                          f"{self.span_end[index]}\n")


def _request(sizes, args, kwargs, result) -> None:
    sizes["codec.requests"] += 1
    sizes["codec.request_bytes"] += len(result)


def _one_frame(sizes, args, kwargs, result) -> None:
    sizes["transport.frames"] += 1


def _batch_frames(sizes, args, kwargs, result) -> None:
    sizes["transport.frames"] += len(args[1])


def _one_op(sizes, args, kwargs, result) -> None:
    sizes["rib.flow.ops"] += 1


def _batch_ops(sizes, args, kwargs, result) -> None:
    sizes["rib.flow.ops"] += len(args[3])


def _one_route(sizes, args, kwargs, result) -> None:
    sizes["fea.xrl.routes"] += 1


def _vector_routes(sizes, args, kwargs, result) -> None:
    # XRL handlers are called with keyword arguments
    sizes["fea.xrl.routes"] += len(kwargs["nets"] if "nets" in kwargs
                                   else args[1])


def _apply_ops(sizes, args, kwargs, result) -> None:
    sizes["fea.backend.ops"] += len(args[1])


#: (class, attribute) -> measure(sizes, args, kwargs, result), run after
#: the call
_SIZE_OF: Dict[Tuple[type, str], Callable] = {
    (TextualCodec, "encode_request"): _request,
    (BinaryCodec, "encode_request"): _request,
    (_HostLocalSender, "call"): _one_frame,
    (_HostLocalSender, "call_batch"): _batch_frames,
    (_IntraSender, "call"): _one_frame,
    (_IntraSender, "call_batch"): _batch_frames,
    (_TcpSender, "call"): _one_frame,
    (_TcpSender, "call_batch"): _batch_frames,
    (FeaFlowController, "submit"): _one_op,
    (FeaFlowController, "submit_batch"): _batch_ops,
    (FeaProcess, "xrl_add_entry4"): _one_route,
    (FeaProcess, "xrl_delete_entry4"): _one_route,
    (FeaProcess, "xrl_add_entries4"): _vector_routes,
    (FeaProcess, "xrl_delete_entries4"): _vector_routes,
    (TrieFibBackend, "apply"): _apply_ops,
}

"""The router benchmark: one workload per invocation, one JSON result line.

Usage, from the root of the repository::

    python3 routerbench/run.py --workload bgp_feed --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` runs a few units untraced, then the same units
with the per-layer tracer armed, and prints the per-layer metrics
including the tracer's overhead against the untraced side.

End-to-end times are scaled to a reference speed: between units the run
times a fixed pure-Python probe, and each unit's times are multiplied by
``REFERENCE_PROBE_S`` over the probe time measured around it, so a shared
machine's slow spells cancel out.

The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it
records the run context (Python version, usable CPUs, a calibration-loop
score) and the workload's detail, including ``failed_ratio`` and the
unscaled metrics.  See ``routerbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: spans of traced runs are written here, one file per workload and seed
SPAN_DIR = ROOT / ".routerbench"

_clock = time.perf_counter

#: units per side of a traced run
TRACED_UNITS = 3

#: seconds of one :func:`reference_probe` at the reference speed (about
#: the median on the machine the reference run in README.md was made on)
REFERENCE_PROBE_S = 0.0035
#: probe time after each unit, as a share of the unit's time
PROBE_SHARE = 0.15
#: probes per measurement at least
MIN_PROBES = 5

#: name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "announce_routes_per_s": "1/s",
    "withdraw_routes_per_s": "1/s",
    "route_latency_ms_p50": "ms",
    "route_latency_ms_p99": "ms",
    "xrl_calls_per_s": "1/s",
    "rss_bytes_per_route": "B",
    "setup_s": "s",
}

PER_LAYER = {
    "bgp.update.calls": "count",
    "bgp.update.self_ms": "ms",
    "txq.enqueue.calls": "count",
    "txq.wait_ms_p50": "ms",
    "rib.xrl.calls": "count",
    "rib.xrl.self_ms": "ms",
    "rib.origin.calls": "count",
    "rib.origin.self_ms": "ms",
    "rib.flow.submit.calls": "count",
    "rib.flow.submit.self_ms": "ms",
    "rib.flow.peak_depth": "count",
    "rib.flow.shed": "count",
    "rib.flow.polls_sent": "count",
    "rib.flow.ops_per_segment": "ops/call",
    "xrl.send.calls": "count",
    "xrl.dispatch.calls": "count",
    "xrl.dispatch.self_ms": "ms",
    "xrl.retries": "count",
    "xrl.late_replies": "count",
    "xrl.errors": "count",
    "xrl.finder.resolves_per_send": "ratio",
    "codec.textual.self_ms": "ms",
    "codec.binary.self_ms": "ms",
    "codec.request_bytes_per_call": "B/call",
    "transport.calls": "count",
    "transport.frames_per_call": "frames/call",
    "fea.xrl.calls": "count",
    "fea.xrl.routes_per_call": "routes/call",
    "fea.xrl.self_ms": "ms",
    "fea.backend.apply.calls": "count",
    "fea.backend.apply.self_ms": "ms",
    "fea.backend.ops_per_apply": "ops/call",
    "fea.driver.retries": "count",
    "fea.driver.failed": "count",
    "trie.insert.self_ms": "ms",
    "trie.remove.self_ms": "ms",
    "trie.lookup.self_ms": "ms",
    "eventloop.turns": "count",
    "eventloop.callbacks": "count",
    "eventloop.callbacks_per_route": "ratio",
    "proc.gc_ms": "ms",
    "proc.gc_collections": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_context() -> dict:
    """Where the numbers came from, so a slower machine shows."""
    rounds = []
    for __ in range(5):
        start = _clock()
        acc = 0
        for value in range(200_000):
            acc = (acc + value * value) % 1_000_003
        rounds.append(_clock() - start)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_loops_per_s": 200_000 / statistics.median(rounds),
    }


def reference_probe() -> None:
    """A fixed piece of pure-Python work shaped like the router's: slotted
    objects, a string-keyed table, a FIFO and small tuples.  It uses no
    router code, so a change to the router never changes its time."""
    table = {}
    queue = deque()
    pool = _PROBE_POOL
    total = 0
    for value in range(3000):
        key = (value * 2654435761) & 4095
        entry = pool[key]
        name = f"10.{key >> 4}.{key & 15}.0/24"
        entry.value = (name, value)
        row = table.get(name)
        if row is None:
            table[name] = [entry, value]
        else:
            row[1] += value
        queue.append(entry)
        if len(queue) > 512:
            total += queue.popleft().key
    total += len({entry.value[0] for entry in queue}) + len(sorted(table))


class _ProbeEntry:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = None


_PROBE_POOL = [_ProbeEntry(key) for key in range(4096)]


def probe_seconds(budget: float) -> float:
    """Run :func:`reference_probe` for about *budget* seconds (at least
    :data:`MIN_PROBES` times); returns the mean seconds of one probe."""
    probes = 0
    start = _clock()
    while probes < MIN_PROBES or _clock() - start < budget:
        reference_probe()
        probes += 1
    return (_clock() - start) / probes


def end_to_end(tally, setup_times, setup_probe_s: float,
               scaled: bool = True) -> dict:
    """Each unit's rate and latency percentiles, scaled by its probe, and
    the median over the run's units.  ``setup_s`` is the median set-up,
    scaled by the probes around the set-ups.  With *scaled* false, the
    same figures in plain wall-clock time."""
    units = tally.done

    def scale(probe_s: float) -> float:
        return REFERENCE_PROBE_S / probe_s if scaled else 1.0

    def rate(kind: str) -> float:
        return statistics.median(
            sum(ops for ops, __ in getattr(unit, kind))
            / sum(seconds for __, seconds in getattr(unit, kind))
            / scale(unit.probe_s) for unit in units)

    def latency_ms(percentile: int) -> float:
        return 1e3 * statistics.median(
            statistics.quantiles(unit.latency, n=100)[percentile - 1]
            * scale(unit.probe_s) for unit in units)

    return {
        "announce_routes_per_s": rate("announce"),
        "withdraw_routes_per_s": rate("withdraw"),
        "route_latency_ms_p50": latency_ms(50),
        "route_latency_ms_p99": latency_ms(99),
        "xrl_calls_per_s": rate("xrl"),
        "rss_bytes_per_route": tally.rss_bytes_per_route,
        "setup_s": statistics.median(setup_times) * scale(setup_probe_s),
    }


def _process_counters(layers) -> dict:
    routers, rib, fea = layers
    counters = {
        "xrl.retries": sum(router.retries_performed for router in routers),
        "xrl.late_replies": sum(router.late_replies for router in routers),
        "rib.flow.shed": rib.flow.shed_total if rib else 0,
        "rib.flow.polls_sent": rib.flow.polls_sent if rib else 0,
        "fea.driver.retries": 0,
        "fea.driver.failed": 0,
    }
    if fea is not None:
        registry = fea.metrics
        for name in ("retries", "failed"):
            counters[f"fea.driver.{name}"] = registry.get(
                f"{registry.namespace}.backend.{name}").value
    return counters


def per_layer(tracer, route_ops: int, before: dict, after: dict, layers,
              overhead: float) -> dict:
    calls, self_ms = tracer.span_totals()
    counts, sizes = tracer.counts, tracer.sizes
    __, rib, __ = layers
    metrics = {name: after[name] - before[name] for name in before}
    metrics.update({
        "bgp.update.calls": calls["bgp.update"],
        "bgp.update.self_ms": self_ms.get("bgp.update", 0.0),
        "txq.enqueue.calls": counts["txq.enqueue"],
        "txq.wait_ms_p50": tracer.txq_wait_ms_p50(),
        "rib.xrl.calls": calls["rib.xrl"],
        "rib.xrl.self_ms": self_ms.get("rib.xrl", 0.0),
        "rib.origin.calls": calls["rib.origin"],
        "rib.origin.self_ms": self_ms.get("rib.origin", 0.0),
        "rib.flow.submit.calls": calls["rib.flow.submit"],
        "rib.flow.submit.self_ms": self_ms.get("rib.flow.submit", 0.0),
        "rib.flow.peak_depth": rib.flow.peak_depth if rib else 0,
        "rib.flow.ops_per_segment": _ratio(
            sizes["rib.flow.ops"] - metrics["rib.flow.shed"],
            calls["fea.xrl"]),
        "xrl.send.calls": counts["xrl.send"],
        "xrl.dispatch.calls": calls["xrl.dispatch"],
        "xrl.dispatch.self_ms": self_ms.get("xrl.dispatch", 0.0),
        "xrl.errors": counts["xrl.errors"],
        "xrl.finder.resolves_per_send": _ratio(
            counts["xrl.finder.resolves"], counts["xrl.send"]),
        "codec.textual.self_ms": self_ms.get("codec.textual", 0.0),
        "codec.binary.self_ms": self_ms.get("codec.binary", 0.0),
        "codec.request_bytes_per_call": _ratio(sizes["codec.request_bytes"],
                                               sizes["codec.requests"]),
        "transport.calls": calls["transport"],
        "transport.frames_per_call": _ratio(sizes["transport.frames"],
                                            calls["transport"]),
        "fea.xrl.calls": calls["fea.xrl"],
        "fea.xrl.routes_per_call": _ratio(sizes["fea.xrl.routes"],
                                          calls["fea.xrl"]),
        "fea.xrl.self_ms": self_ms.get("fea.xrl", 0.0),
        "fea.backend.apply.calls": calls["fea.backend.apply"],
        "fea.backend.apply.self_ms": self_ms.get("fea.backend.apply", 0.0),
        "fea.backend.ops_per_apply": _ratio(sizes["fea.backend.ops"],
                                            calls["fea.backend.apply"]),
        "trie.insert.self_ms": self_ms.get("trie.insert", 0.0),
        "trie.remove.self_ms": self_ms.get("trie.remove", 0.0),
        "trie.lookup.self_ms": self_ms.get("trie.lookup", 0.0),
        "eventloop.turns": counts["eventloop.turns"],
        "eventloop.callbacks": counts["eventloop.callbacks"],
        "eventloop.callbacks_per_route": _ratio(
            counts["eventloop.callbacks"], route_ops),
        "proc.gc_ms": tracer.gc_ns / 1e6,
        "proc.gc_collections": tracer.gc_collections,
        "trace.overhead_ratio": overhead,
    })
    return metrics


def _unit(workload, tally, probe_s: float, tracer=None) -> float:
    """One unit from a collected heap, so the collector's work falls the
    same way in every unit, then a probe; the unit's ``probe_s`` is the
    mean of *probe_s* (the probe before it) and the probe after it, which
    is returned.  *tracer* records during the unit only."""
    gc.collect()
    began = _clock()
    if tracer is not None:
        tracer.on = True
    try:
        workload.run_unit(tally)
    finally:
        if tracer is not None:
            tracer.on = False
    after = probe_seconds(PROBE_SHARE * (_clock() - began))
    tally.done[-1].probe_s = (probe_s + after) / 2
    return after


def run_untraced(workload_cls, seed: int, seconds: float):
    """Set-ups between two probes, then units until *seconds* have
    passed."""
    from workloads import Tally

    workload = workload_cls(seed)
    setup_times = []
    try:
        before = probe_seconds(0.0)
        for __ in range(workload_cls.setups):
            workload.close()
            gc.collect()
            start = _clock()
            workload.setup()
            setup_times.append(_clock() - start)
        probe_s = probe_seconds(PROBE_SHARE * sum(setup_times))
        setup_probe_s = (before + probe_s) / 2
        tally = Tally()
        start = _clock()
        while tally.units == 0 or _clock() - start < seconds:
            probe_s = _unit(workload, tally, probe_s)
    finally:
        workload.close()
    return tally, setup_times, setup_probe_s


def _seconds_per_op(unit) -> float:
    """A unit's seconds per route operation, at the reference speed."""
    phases = unit.announce + unit.withdraw
    return (sum(seconds for __, seconds in phases)
            / sum(ops for ops, __ in phases)
            * REFERENCE_PROBE_S / unit.probe_s)


def run_traced(workload_cls, seed: int):
    """:data:`TRACED_UNITS` units untraced, then as many traced, each side
    on a fresh router.  Per-layer figures come from the last traced unit;
    the overhead compares the fastest unit of each side, in seconds per
    operation at the reference speed."""
    from tracing import Tracer
    from workloads import Tally

    workload = workload_cls(seed)
    plain = Tally()
    try:
        workload.setup()
        probe_s = probe_seconds(0.0)
        for __ in range(TRACED_UNITS):
            probe_s = _unit(workload, plain, probe_s)
    finally:
        workload.close()

    tracer = Tracer()
    traced = Tally()
    workload = workload_cls(seed)
    workload.tracer = tracer
    tracer.arm()
    try:
        workload.setup()
        layers = workload.layers()
        probe_s = probe_seconds(0.0)
        for __ in range(TRACED_UNITS - 1):
            probe_s = _unit(workload, traced, probe_s, tracer)
        tracer.reset()
        before = _process_counters(layers)
        _unit(workload, traced, probe_s, tracer)
        after = _process_counters(layers)
    finally:
        tracer.on = False
        workload.close()
        tracer.disarm()
    unit = traced.done[-1]
    overhead = (min(map(_seconds_per_op, traced.done))
                / min(map(_seconds_per_op, plain.done)))
    route_ops = sum(ops for ops, __ in unit.announce + unit.withdraw)
    metrics = per_layer(tracer, route_ops, before, after, layers, overhead)
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write_spans(SPAN_DIR / f"spans-{workload_cls.name}-{seed}.tsv.gz")
    return traced, metrics, tracer.restored()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"routerbench: no router sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Stall

    workload_cls = WORKLOADS.get(options.workload)
    if workload_cls is None:
        print(f"routerbench: unknown workload {options.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    context = run_context()
    try:
        if options.trace:
            tally, values, residue = run_traced(workload_cls, options.seed)
            units = PER_LAYER
        else:
            tally, *setups = run_untraced(workload_cls, options.seed,
                                          options.seconds)
            values = end_to_end(tally, *setups)
            unscaled = end_to_end(tally, *setups, scaled=False)
            residue = []
            units = END_TO_END
    except Stall as stall:
        print(f"routerbench: {options.workload} stalled: {stall}",
              file=sys.stderr)
        return 1
    if residue:
        print(f"routerbench: tracer left wrappers on {residue}",
              file=sys.stderr)

    detail = {
        "workload": options.workload,
        "seed": options.seed,
        "trace": options.trace,
        "context": context,
        "units": tally.units,
        "route_ops": tally.ops,
        "latency_samples_per_unit": len(tally.done[0].latency),
        "failed_ratio": _ratio(tally.failed, tally.attempted),
        "unrestored": residue,
    }
    if not options.trace:
        detail["probe_ms"] = [1e3 * unit.probe_s for unit in tally.done]
        detail["unscaled"] = unscaled
    print(json.dumps(detail))
    result = {
        "correct": tally.failed == 0 and not residue,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

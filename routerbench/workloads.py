"""The benchmark's four closed-loop workloads and their output oracles.

Every workload is built from a seed, drives the router from this one
thread, and checks the router's output against a table it computed from
its own inputs.  A workload is a *set-up* (build the router, connect,
preload) followed by *units* of measured work; ``run.py`` repeats the
set-up to time it and repeats units until the run's seconds are spent.
Every unit of a workload runs the same inputs.

Route workloads run the in-process :class:`~repro.core.process.Host`, so
BGP, the RIB and the FEA talk over the host-local XRL family with the
textual codec.  ``xrl_tcp`` is the one workload on a socket: two XRL
routers over a single TCP loopback connection with the binary codec.
"""

from __future__ import annotations

import gc
import os
import random
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.bgp import BgpProcess, BgpState
from repro.bgp.attributes import ASPath, Origin, PathAttributeList
from repro.bgp.messages import UpdateMessage
from repro.bgp.peer import PeerConfig
from repro.bgp.session import session_pair
from repro.core.process import Host
from repro.eventloop import EventLoop, SystemClock
from repro.experiments.synth import synthetic_feed, synthetic_prefixes
from repro.fea import FeaProcess
from repro.net import IPNet, IPv4
from repro.rib import RibProcess
from repro.rib.route import RibRoute
from repro.simnet.baselines import _BaselineRouter
from repro.xrl import Finder, Xrl, XrlArgs, XrlRouter
from repro.xrl.transport import TcpFamily

_clock = time.perf_counter

#: a wait that makes no progress for this long is a stalled router
STALL_S = 60.0

DUT_AS = 65000
FEED_AS = 65002
OVERRIDE_AS = 65003
NH_FEED = IPv4("10.0.0.2")
NH_OVERRIDE = IPv4("10.0.1.2")
#: the IGP route that makes both peers' nexthops resolvable
STATIC_NET = IPNet(IPv4("10.0.0.0"), 8)
STATIC_NH = IPv4("0.0.0.0")

_PAGE = os.sysconf("SC_PAGE_SIZE")


class Stall(RuntimeError):
    """The router did not reach the state the workload waits for."""


def rss_bytes() -> int:
    """Current resident set size of this interpreter."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * _PAGE


#: one measured phase: operations and the seconds they took
Phase = Tuple[int, float]


class Unit:
    """One unit's measured phases."""

    def __init__(self) -> None:
        self.announce: List[Phase] = []
        self.withdraw: List[Phase] = []
        #: each announced route's announce-to-FIB latency (s)
        self.latency: List[float] = []
        #: XRLs the router (or the XRL client) completed, per phase
        self.xrl: List[Phase] = []
        #: seconds of one reference probe around this unit (set by run.py)
        self.probe_s = 0.0


class Tally:
    """What a run measured; ``run.py`` turns it into metrics."""

    def __init__(self) -> None:
        self.done: List[Unit] = []
        self.attempted = 0
        self.failed = 0
        self.rss_bytes_per_route: Optional[float] = None

    @property
    def units(self) -> int:
        return len(self.done)

    def unit(self) -> Unit:
        self.done.append(Unit())
        return self.done[-1]

    @property
    def ops(self) -> int:
        return sum(ops for unit in self.done
                   for ops, __ in unit.announce + unit.withdraw)


def table_mismatches(fib, expected: Dict[IPNet, IPv4]) -> int:
    """Prefixes whose FIB state differs from *expected* (missing, extra or
    on another nexthop)."""
    seen = 0
    wrong = 0
    for net, entry in fib.entries():
        want = expected.get(net)
        if want is None:
            wrong += 1
            continue
        seen += 1
        if entry.nexthop != want:
            wrong += 1
    return wrong + len(expected) - seen


def _nexthop(fib, net: IPNet) -> Optional[IPv4]:
    entry = fib.exact(net)
    return None if entry is None else entry.nexthop


class Workload:
    """Base: a seeded input set, a router, and an optional tracer whose
    recording is paused while the benchmark probes the FIB."""

    name = "?"
    #: set-ups per run; ``setup_s`` is their median
    setups = 25

    def __init__(self, seed: int) -> None:
        self.tracer = None

    def setup(self) -> None:
        """Build the router (and preload it); ``close`` comes first."""
        raise NotImplementedError

    def run_unit(self, tally: Tally) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def layers(self) -> Tuple[list, Optional[RibProcess],
                              Optional[FeaProcess]]:
        """The XRL routers, RIB and FEA of the router under test."""
        raise NotImplementedError

    # -- probing (never recorded by the tracer) ---------------------------------
    def _probe(self, fn, *args):
        tracer = self.tracer
        if tracer is None or not tracer.on:
            return fn(*args)
        tracer.on = False
        try:
            return fn(*args)
        finally:
            tracer.on = True

    def _reach(self, loop, fib, start: float, states: list) -> List[float]:
        """Turn *loop* until *fib* shows each ``(net, nexthop or None)`` of
        *states*, in order; returns the seconds from *start* to each."""
        reached: List[float] = []
        progress = start
        while len(reached) < len(states):
            loop.run_once(block=False)
            now = _clock()
            while len(reached) < len(states) and self._probe(
                    _nexthop, fib, states[len(reached)][0]) == \
                    states[len(reached)][1]:
                reached.append(now - start)
                progress = now
            if now - progress > STALL_S:
                raise Stall(f"stalled at {len(reached)}/{len(states)}: "
                            f"{states[len(reached)]}")
        return reached


# -- the in-process router (bgp_feed, route_latency) ----------------------------

class _Injector(_BaselineRouter):
    """A BGP speaker that only sends UPDATEs; whatever it receives is
    dropped."""

    def update_from_peer(self, peer, update) -> None:
        pass

    def inject(self, update: UpdateMessage) -> None:
        self.peers["dut"].send_message(update)


class _Router:
    """BGP + RIB + FEA on one in-process host, with a feed peering and an
    override peering, and the static route that resolves their nexthops."""

    def __init__(self) -> None:
        self.loop = EventLoop(SystemClock())
        self.host = Host(loop=self.loop)
        self.fea = FeaProcess(self.host)
        self.rib = RibProcess(self.host)
        self.bgp = BgpProcess(self.host, local_as=DUT_AS,
                              bgp_id=IPv4("1.1.1.1"))
        args = (XrlArgs().add_txt("protocol", "static")
                .add_ipv4net("net", STATIC_NET).add_ipv4("nexthop", STATIC_NH)
                .add_u32("metric", 1).add_list("policytags", []))
        error, __ = self.bgp.xrl.send_sync(
            Xrl("rib", "rib", "1.0", "add_route4", args), deadline=10)
        if not error.is_okay:
            raise Stall(f"static route install failed: {error}")
        self.feed = self._peering("10.0.0.1", str(NH_FEED), FEED_AS, "feed")
        self.override = self._peering("10.0.1.1", str(NH_OVERRIDE),
                                      OVERRIDE_AS, "override")
        self.fib = self.fea.fib4

    def _peering(self, local: str, remote: str, peer_as: int,
                 name: str) -> _Injector:
        injector = _Injector(self.loop, name, peer_as, remote)
        injector_peer = injector.add_peer("dut", DUT_AS)
        handler = self.bgp.add_peer(PeerConfig(
            IPv4(remote), peer_as, DUT_AS, IPv4(local)))
        near, far = session_pair(self.loop, latency=0.0)
        injector_peer.attach_session(near)
        handler.attach_session(far)
        injector.start()
        handler.enable()
        if not self.loop.run_until(
                lambda: handler.fsm.state == BgpState.ESTABLISHED
                and injector_peer.fsm.state == BgpState.ESTABLISHED,
                timeout=STALL_S):
            raise Stall(f"peering {name} did not establish")
        return injector

    def xrl_sent(self) -> int:
        return self.bgp.txq.sent_count + self.rib.txq.sent_count

    def close(self) -> None:
        self.host.shutdown()


def _host_routers(host: Host) -> List[XrlRouter]:
    return [router for process in host.processes.values()
            for router in process.routers]


#: prefixes per UPDATE at most.  A fixed cap, rather than the feed's own
#: 1..200 group sizes, keeps the UPDATE size mix (and so the per-route
#: cost and window latency) the same from seed to seed.
UPDATE_PREFIXES = 32

#: one UPDATE to send: message, prefix to probe, its nexthop once the
#: UPDATE is applied (None: absent), and the routes it carries
_Send = Tuple[UpdateMessage, IPNet, Optional[IPv4], int]


class _RouterWorkload(Workload):
    router: Optional[_Router] = None

    def close(self) -> None:
        if self.router is not None:
            self.router.close()
            self.router = None

    def layers(self):
        router = self.router
        return _host_routers(router.host), router.rib, router.fea

    def _new_router(self) -> _Router:
        self.router = _Router()
        return self.router

    def _feed(self, injector: _Injector, sends: List[_Send],
              window: int) -> Tuple[float, list]:
        """Send *sends* keeping *window* UPDATEs unapplied.

        Returns the start time and, per UPDATE, ``(time applied, routes,
        latency)``.  The pipeline is FIFO from session to FIB, so an UPDATE
        is applied once its last prefix shows the expected state.
        """
        router = self.router
        loop, fib = router.loop, router.fib
        outstanding: deque = deque()
        applied = []
        index = 0
        start = _clock()
        progress = start
        while index < len(sends) or outstanding:
            while index < len(sends) and len(outstanding) < window:
                message, net, nexthop, count = sends[index]
                index += 1
                injector.inject(message)
                outstanding.append((net, nexthop, count, _clock()))
            loop.run_once(block=False)
            now = _clock()
            while outstanding and self._probe(
                    _nexthop, fib, outstanding[0][0]) == outstanding[0][1]:
                __, __, count, sent = outstanding.popleft()
                applied.append((now, count, now - sent))
                progress = now
            if now - progress > STALL_S:
                raise Stall(f"{len(outstanding)} UPDATEs not applied")
        return start, applied

    def _settle(self, expected: Dict[IPNet, IPv4]) -> Tuple[float, int]:
        """Run until the FIB equals *expected*; returns the seconds spent
        turning the loop (the comparisons are not counted) and the
        mismatches left if it never did."""
        router = self.router
        start = _clock()
        turning = 0.0
        while True:
            wrong = self._probe(table_mismatches, router.fib, expected)
            if not wrong or _clock() - start > STALL_S:
                return turning, wrong
            begin = _clock()
            for __ in range(100):
                router.loop.run_once(block=False)
            turning += _clock() - begin


def _feed_sends(groups, nexthop: Optional[IPv4],
                withdraw: bool) -> List[_Send]:
    sends = []
    for attributes, prefixes in groups:
        if withdraw:
            message = UpdateMessage(withdrawn=list(prefixes))
        else:
            message = UpdateMessage(attributes=attributes, nlri=list(prefixes))
        sends.append((message, prefixes[-1], nexthop, len(prefixes)))
    return sends


def _updates(count: int, seed: int) -> list:
    """The synthetic feed's attribute groups, split into UPDATEs of at
    most :data:`UPDATE_PREFIXES` prefixes."""
    return [(attributes, prefixes[index:index + UPDATE_PREFIXES])
            for attributes, prefixes in synthetic_feed(count, seed=seed)
            for index in range(0, len(prefixes), UPDATE_PREFIXES)]


class BgpFeed(_RouterWorkload):
    """Full-table convergence: announce, override, unwind, withdraw."""

    name = "bgp_feed"
    #: routes in the feed peer's table
    routes = 2048
    #: share of the table the override peer re-announces with a shorter path
    override_share = 0.25
    #: UPDATEs the peer keeps unapplied, like a TCP window
    window = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        groups = _updates(self.routes, seed)
        # Only a strictly shorter AS path is certain to win the decision.
        eligible = [net for attributes, prefixes in groups
                    if attributes.as_path.path_length() >= 2
                    for net in prefixes]
        picked = set(rng.sample(eligible,
                                int(self.override_share * self.routes)))
        overridden = [net for __, prefixes in groups for net in prefixes
                      if net in picked]
        override_attrs = PathAttributeList(
            origin=Origin.IGP, as_path=ASPath.from_sequence(OVERRIDE_AS),
            nexthop=NH_OVERRIDE)
        override_groups = [
            (override_attrs, overridden[index:index + UPDATE_PREFIXES])
            for index in range(0, len(overridden), UPDATE_PREFIXES)]
        base = {STATIC_NET: STATIC_NH}
        full = dict(base)
        for __, prefixes in groups:
            for net in prefixes:
                full[net] = NH_FEED
        overriding = dict(full)
        for net in overridden:
            overriding[net] = NH_OVERRIDE
        #: (phase, sends, table after the phase, counts as announce)
        self.phases = [
            ("announce", _feed_sends(groups, NH_FEED, False), full, True),
            ("override", _feed_sends(override_groups, NH_OVERRIDE, False),
             overriding, True),
            ("unwind", _feed_sends(override_groups, NH_FEED, True), full,
             False),
            ("withdraw", _feed_sends(groups, None, True), base, False),
        ]
        self.table_routes = sum(len(prefixes) for __, prefixes in groups)

    def setup(self) -> None:
        self._new_router()

    def run_unit(self, tally: Tally) -> None:
        router = self.router
        injectors = {"announce": router.feed, "override": router.override,
                     "unwind": router.override, "withdraw": router.feed}
        first = tally.units == 0
        unit = tally.unit()
        for phase, sends, expected, announce in self.phases:
            if first and phase == "announce":
                gc.collect()
                before = rss_bytes()
            sent_before = router.xrl_sent()
            start, applied = self._feed(injectors[phase], sends, self.window)
            extra, wrong = self._settle(expected)
            seconds = applied[-1][0] - start + extra
            routes = sum(send[3] for send in sends)
            unit.xrl.append((router.xrl_sent() - sent_before, seconds))
            tally.attempted += routes
            tally.failed += wrong
            if announce:
                unit.announce.append((routes, seconds))
                for __, count, latency in applied:
                    unit.latency.extend([latency] * count)
            else:
                unit.withdraw.append((routes, seconds))
            if first and phase == "announce":
                gc.collect()
                tally.rss_bytes_per_route = (
                    (rss_bytes() - before) / self.table_routes)


class RouteLatency(_RouterWorkload):
    """Figs 10-12: one /24 at a time through a router holding a table."""

    name = "route_latency"
    setups = 3
    #: routes preloaded through the feed peering during set-up
    preload = 4096
    #: announce/withdraw samples per unit
    samples = 1000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        groups = _updates(self.preload, seed)
        self.preload_sends = _feed_sends(groups, NH_FEED, False)
        self.table = {STATIC_NET: STATIC_NH}
        for __, prefixes in groups:
            for net in prefixes:
                self.table[net] = NH_FEED
        # Test prefixes come from 198.18.0.0/15, which the feed never uses.
        slots = list(range(512))
        random.Random(seed).shuffle(slots)
        self.test_nets = [IPNet(IPv4((198 << 24) | (18 << 16) | (slot << 8)),
                                24) for slot in slots]
        self.attrs = PathAttributeList(
            origin=Origin.IGP, as_path=ASPath.from_sequence(OVERRIDE_AS),
            nexthop=NH_OVERRIDE)
        self.setup_rss_per_route: Optional[float] = None

    def setup(self) -> None:
        router = self._new_router()
        gc.collect()
        before = rss_bytes()
        self._feed(router.feed, self.preload_sends, BgpFeed.window)
        __, wrong = self._settle(self.table)
        if wrong:
            raise Stall(f"preload left {wrong} prefixes wrong")
        gc.collect()
        if self.setup_rss_per_route is None:
            self.setup_rss_per_route = (rss_bytes() - before) / self.preload

    def _until(self, net: IPNet, nexthop: Optional[IPv4]) -> float:
        router = self.router
        return self._reach(router.loop, router.fib, _clock(),
                           [(net, nexthop)])[0]

    def run_unit(self, tally: Tally) -> None:
        router = self.router
        sent_before = router.xrl_sent()
        latencies = []
        withdraws = []
        for index in range(self.samples):
            net = self.test_nets[index % len(self.test_nets)]
            router.override.inject(
                UpdateMessage(attributes=self.attrs, nlri=[net]))
            latencies.append(self._until(net, NH_OVERRIDE))
            router.override.inject(UpdateMessage(withdrawn=[net]))
            withdraws.append(self._until(net, None))
        if tally.units == 0:
            tally.rss_bytes_per_route = self.setup_rss_per_route
        unit = tally.unit()
        unit.announce.append((self.samples, sum(latencies)))
        unit.withdraw.append((self.samples, sum(withdraws)))
        unit.latency = latencies
        unit.xrl.append((router.xrl_sent() - sent_before,
                         sum(latencies) + sum(withdraws)))
        tally.attempted += 2 * self.samples
        __, wrong = self._settle(self.table)
        tally.failed += wrong


# -- rib_burst -------------------------------------------------------------------

class RibBurst(Workload):
    """Fig 13's singular entry point, in a burst above the flow
    controller's high watermark."""

    name = "rib_burst"
    #: distinct prefixes per burst (high_watermark is 1024)
    routes = 1536
    #: share re-originated with a new nexthop later in the same burst
    reoriginate_share = 0.25
    NH_FIRST = IPv4("10.0.0.1")
    NH_SECOND = IPv4("10.0.0.9")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        nets = synthetic_prefixes(self.routes, seed=seed)
        # The re-originations follow the first originations, so every one
        # lands while its predecessor is still queued or in flight.
        again = rng.sample(nets, int(self.reoriginate_share * self.routes))
        events = ([(net, self.NH_FIRST) for net in nets]
                  + [(net, self.NH_SECOND) for net in again])
        self.events = events
        final: Dict[IPNet, int] = {}
        for position, (net, __) in enumerate(events):
            final[net] = position
        #: (net, nexthop) in the order their final state reaches the FIB
        self.arrivals = [events[position] for position
                         in sorted(final.values())]
        self.expected = dict(self.arrivals)
        #: (net, None): each withdrawn prefix, gone from the FIB in order
        self.withdrawals = [(net, None) for net in nets]
        rng.shuffle(self.withdrawals)
        self.loop = None
        self.host = None

    def setup(self) -> None:
        self.loop = EventLoop(SystemClock())
        self.host = Host(loop=self.loop)
        self.fea = FeaProcess(self.host)
        self.rib = RibProcess(self.host)
        self.origin = self.rib.v4.origin("static")

    def close(self) -> None:
        if self.host is not None:
            self.host.shutdown()
            self.host = None

    def layers(self):
        return _host_routers(self.host), self.rib, self.fea

    def _routes(self) -> List[RibRoute]:
        return [RibRoute(net, nexthop, 1, "static", ifname="eth0")
                for net, nexthop in self.events]

    def run_unit(self, tally: Tally) -> None:
        fib, origin = self.fea.fib4, self.origin
        routes = self._routes()
        first = tally.units == 0
        if first:
            gc.collect()
            before = rss_bytes()
        sent_before = self.rib.txq.sent_count

        def burst() -> None:
            for route in routes:
                origin.originate(route)

        start = _clock()
        self.loop.call_soon(burst)
        latencies = self._reach(self.loop, fib, start, self.arrivals)
        announce_s = _clock() - start
        unit = Unit()
        unit.announce.append((len(routes), announce_s))
        unit.latency = latencies
        tally.attempted += len(routes)
        tally.failed += self._probe(table_mismatches, fib, self.expected)
        if first:
            gc.collect()
            tally.rss_bytes_per_route = (
                (rss_bytes() - before) / len(self.arrivals))

        def unburst() -> None:
            for net, __ in self.withdrawals:
                origin.withdraw(net)

        start = _clock()
        self.loop.call_soon(unburst)
        self._reach(self.loop, fib, start, self.withdrawals)
        withdraw_s = _clock() - start
        unit.withdraw.append((len(self.withdrawals), withdraw_s))
        unit.xrl.append((self.rib.txq.sent_count - sent_before,
                         announce_s + withdraw_s))
        tally.done.append(unit)
        tally.attempted += len(self.withdrawals)
        tally.failed += self._probe(table_mismatches, fib, {})


# -- xrl_tcp ---------------------------------------------------------------------

class _RouteSink:
    """The XRL target: keeps announced routes and echoes each prefix."""

    def __init__(self) -> None:
        self.routes: Dict[IPNet, IPv4] = {}

    def add_route4(self, args: XrlArgs) -> XrlArgs:
        net = args.get_ipv4net("net")
        self.routes[net] = args.get_ipv4("nexthop")
        return XrlArgs().add_ipv4net("net", net)

    def delete_route4(self, args: XrlArgs) -> XrlArgs:
        net = args.get_ipv4net("net")
        del self.routes[net]
        return XrlArgs().add_ipv4net("net", net)


class XrlTcp(Workload):
    """Fig 9: routing-shaped XRLs over one TCP connection, binary codec."""

    name = "xrl_tcp"
    #: distinct routes announced then withdrawn per unit
    routes = 8192
    #: calls in flight (the paper's fig 9 pipeline size)
    window = 100

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.nets = synthetic_prefixes(self.routes, seed=seed)
        self.nexthops = [IPv4(f"10.0.{rng.randrange(256)}.{rng.randrange(1, 255)}")
                         for __ in self.nets]
        self.client = None
        self.server = None

    def setup(self) -> None:
        self.loop = EventLoop(SystemClock())
        finder = Finder()
        family = TcpFamily(codec="binary")
        self.sink = _RouteSink()
        self.server = XrlRouter(self.loop, "routesink", finder,
                                families=[family])
        self.server.register_raw_method("routesink/1.0/add_route4",
                                        self.sink.add_route4)
        self.server.register_raw_method("routesink/1.0/delete_route4",
                                        self.sink.delete_route4)
        self.client = XrlRouter(self.loop, "routefeed", finder,
                                families=[family])
        # One call connects and runs the codec HELLO exchange.
        warm = IPNet(IPv4("198.18.0.0"), 24)
        for xrl in (self._add(warm, NH_FEED), self._delete(warm)):
            error, __ = self.client.send_sync(xrl, deadline=STALL_S)
            if not error.is_okay:
                raise Stall(f"warm-up call failed: {error}")
        # The negotiated codec is not exposed publicly; read it once here.
        senders = [entry.sender for entry in self.client._cache.values()]
        if not senders or any(getattr(sender, "_codec", None) is None
                              for sender in senders):
            raise Stall("binary codec was not negotiated")

    @staticmethod
    def _add(net: IPNet, nexthop: IPv4) -> Xrl:
        args = (XrlArgs().add_txt("protocol", "ebgp").add_ipv4net("net", net)
                .add_ipv4("nexthop", nexthop).add_u32("metric", 0)
                .add_list("policytags", []))
        return Xrl("routesink", "routesink", "1.0", "add_route4", args)

    @staticmethod
    def _delete(net: IPNet) -> Xrl:
        args = XrlArgs().add_txt("protocol", "ebgp").add_ipv4net("net", net)
        return Xrl("routesink", "routesink", "1.0", "delete_route4", args)

    def close(self) -> None:
        if self.client is not None:
            self.client.shutdown()
            self.server.shutdown()
            self.client = self.server = None

    def layers(self):
        return [self.client, self.server], None, None

    def _calls(self, build, tally: Tally) -> Tuple[float, List[float]]:
        """Closed loop: *window* calls in flight, each echo checked.  Like
        BGP and the RIB, the sender builds each call as it sends it.
        Returns the seconds until the last reply and each call's round
        trip."""
        loop, send, nets = self.loop, self.client.send, self.nets
        total = len(nets)
        state = {"sent": 0, "done": 0, "failed": 0}
        latencies = []

        def pump() -> None:
            while (state["sent"] < total
                   and state["sent"] - state["done"] < self.window):
                index = state["sent"]
                state["sent"] += 1
                send(build(index),
                     lambda error, args, index=index, sent=_clock():
                         reply(index, sent, error, args),
                     batch=True)

        def reply(index: int, sent: float, error, args) -> None:
            state["done"] += 1
            now = _clock()
            latencies.append(now - sent)
            if not error.is_okay or args.get_ipv4net("net") != nets[index]:
                state["failed"] += 1
            pump()

        start = _clock()
        pump()
        progress, done = start, 0
        while state["done"] < total:
            loop.run_once()
            if state["done"] != done:
                progress, done = _clock(), state["done"]
            elif _clock() - progress > STALL_S:
                raise Stall(f"{total - done} calls unanswered")
        seconds = _clock() - start
        tally.attempted += total
        tally.failed += state["failed"]
        return seconds, latencies

    def _sink_mismatches(self, expected: Dict[IPNet, IPv4]) -> int:
        routes = self.sink.routes
        wrong = sum(1 for net, nexthop in expected.items()
                    if routes.get(net) != nexthop)
        return wrong + len(set(routes) - set(expected))

    def run_unit(self, tally: Tally) -> None:
        first = tally.units == 0
        if first:
            gc.collect()
            before = rss_bytes()
        nets, nexthops = self.nets, self.nexthops
        add_s, latencies = self._calls(
            lambda index: self._add(nets[index], nexthops[index]), tally)
        tally.failed += self._sink_mismatches(
            dict(zip(self.nets, self.nexthops)))
        if first:
            gc.collect()
            tally.rss_bytes_per_route = (rss_bytes() - before) / len(self.nets)
        delete_s, __ = self._calls(lambda index: self._delete(nets[index]),
                                   tally)
        tally.failed += self._sink_mismatches({})
        unit = tally.unit()
        unit.announce.append((len(nets), add_s))
        unit.latency = latencies
        unit.withdraw.append((len(nets), delete_s))
        unit.xrl.append((2 * len(nets), add_s + delete_s))


WORKLOADS = {cls.name: cls for cls in (BgpFeed, RouteLatency, RibBurst,
                                       XrlTcp)}


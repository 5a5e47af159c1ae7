"""Integration tests: XrlRouter + Finder + protocol families end to end."""

import random

import pytest

from repro.eventloop import EventLoop, SimulatedClock, SystemClock
from repro.xrl import Finder, Xrl, XrlArgs, XrlError, XrlRouter, parse_idl
from repro.xrl.call_xrl import call_xrl, call_xrl_checked
from repro.xrl.error import XrlErrorCode
from repro.xrl.finder import BIRTH, DEATH
from repro.xrl.transport import IntraProcessFamily, SimFamily, TcpFamily, UdpFamily

TEST_IDL = """
interface test/1.0 {
    echo ? value:u32 -> value:u32;
    greet ? name:txt -> greeting:txt;
    fail;
    noop;
}
"""


class EchoTarget:
    def xrl_echo(self, value):
        return {"value": value}

    def xrl_greet(self, name):
        return {"greeting": f"hello {name}"}

    def xrl_fail(self):
        raise RuntimeError("deliberate failure")

    def xrl_noop(self):
        return None


def build_pair(family_factory, clock=None, shared_process=False):
    """One server router and one client router over the given family."""
    loop = EventLoop(clock or SimulatedClock())
    finder = Finder(rng=random.Random(7))
    family = family_factory()
    iface = parse_idl(TEST_IDL)["test/1.0"]
    token = 999 if shared_process else None
    server = XrlRouter(loop, "echo", finder, families=[family],
                       process_token=token)
    server.bind(iface, EchoTarget())
    client = XrlRouter(loop, "client", finder, families=[family],
                       process_token=token)
    return loop, finder, server, client, iface


FAMILIES = [
    ("intra", lambda: IntraProcessFamily(), None, True),
    ("sim", lambda: SimFamily(), None, False),
    ("tcp", lambda: TcpFamily(), SystemClock(), False),
    ("udp", lambda: UdpFamily(), SystemClock(), False),
]


@pytest.mark.parametrize("name,factory,clock,shared", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
class TestEndToEnd:
    def test_echo(self, name, factory, clock, shared):
        loop, __, __, client, __ = build_pair(factory, clock, shared)
        xrl = Xrl("echo", "test", "1.0", "echo", XrlArgs().add_u32("value", 42))
        error, args = client.send_sync(xrl, deadline=10)
        assert error.is_okay, error
        assert args.get_u32("value") == 42

    def test_txt_round_trip(self, name, factory, clock, shared):
        loop, __, __, client, __ = build_pair(factory, clock, shared)
        xrl = Xrl("echo", "test", "1.0", "greet", XrlArgs().add_txt("name", "xorp"))
        error, args = client.send_sync(xrl, deadline=10)
        assert error.is_okay
        assert args.get_txt("greeting") == "hello xorp"

    def test_handler_exception_becomes_command_failed(self, name, factory, clock, shared):
        loop, __, __, client, __ = build_pair(factory, clock, shared)
        error, __ = client.send_sync(Xrl("echo", "test", "1.0", "fail"), deadline=10)
        assert error.code == XrlErrorCode.COMMAND_FAILED
        assert "deliberate" in error.note

    def test_bad_args_rejected_remotely(self, name, factory, clock, shared):
        loop, __, __, client, __ = build_pair(factory, clock, shared)
        xrl = Xrl("echo", "test", "1.0", "echo", XrlArgs().add_txt("value", "x"))
        error, __ = client.send_sync(xrl, deadline=10)
        assert error.code == XrlErrorCode.BAD_ARGS

    def test_pipelined_burst(self, name, factory, clock, shared):
        loop, __, __, client, __ = build_pair(factory, clock, shared)
        results = []
        for i in range(50):
            xrl = Xrl("echo", "test", "1.0", "echo", XrlArgs().add_u32("value", i))
            client.send(xrl, lambda err, args, i=i: results.append(
                (i, err.is_okay, args.get_u32("value") if err.is_okay else None)))
        assert loop.run_until(lambda: len(results) == 50, timeout=15)
        assert all(ok and got == i for i, ok, got in results)


class TestResolutionAndSecurity:
    def test_unknown_target(self):
        loop, __, __, client, __ = build_pair(IntraProcessFamily, None, True)
        error, __ = client.send_sync(Xrl("ghost", "test", "1.0", "echo",
                                         XrlArgs().add_u32("value", 1)))
        assert error.code == XrlErrorCode.RESOLVE_FAILED

    def test_unknown_method_fails_at_resolve(self):
        loop, __, __, client, __ = build_pair(IntraProcessFamily, None, True)
        error, __ = client.send_sync(Xrl("echo", "test", "1.0", "bogus"))
        assert error.code == XrlErrorCode.RESOLVE_FAILED

    def test_intra_cannot_cross_processes(self):
        """Two distinct process tokens must not short-circuit via intra."""
        loop = EventLoop(SimulatedClock())
        finder = Finder(rng=random.Random(1))
        family = IntraProcessFamily()
        iface = parse_idl(TEST_IDL)["test/1.0"]
        server = XrlRouter(loop, "echo", finder, families=[family])
        server.bind(iface, EchoTarget())
        client = XrlRouter(loop, "client", finder, families=[family])
        error, __ = client.send_sync(Xrl("echo", "test", "1.0", "noop"))
        assert error.code == XrlErrorCode.SEND_FAILED

    def test_key_rejection(self):
        """A forged key (bypassing the Finder) is rejected (paper §7)."""
        loop, finder, server, client, iface = build_pair(
            IntraProcessFamily, None, True)
        from repro.xrl.codec import TEXTUAL

        forged = TEXTUAL.encode_request(1, "0" * 32 + "/test/1.0/noop",
                                        XrlArgs())
        response = server.dispatch_frame(forged)
        __, error, __ = TEXTUAL.decode_response(response)
        assert error.code == XrlErrorCode.BAD_KEY

    def test_acl_denies_resolution(self):
        loop, finder, server, client, iface = build_pair(
            IntraProcessFamily, None, True)
        finder.set_acl(client.instance_name, allowed_targets={"rib"})
        error, __ = client.send_sync(Xrl("echo", "test", "1.0", "noop"))
        assert error.code == XrlErrorCode.ACCESS_DENIED

    def test_acl_method_globs(self):
        loop, finder, server, client, iface = build_pair(
            IntraProcessFamily, None, True)
        finder.set_acl(client.instance_name,
                       allowed_xrls={"test/1.0/noop"})
        okay, __ = client.send_sync(Xrl("echo", "test", "1.0", "noop"))
        assert okay.is_okay
        denied, __ = client.send_sync(
            Xrl("echo", "test", "1.0", "echo", XrlArgs().add_u32("value", 1)))
        assert denied.code == XrlErrorCode.ACCESS_DENIED

    def test_cache_invalidation_on_restart(self):
        """Client cache must survive a target restart transparently."""
        loop = EventLoop(SimulatedClock())
        finder = Finder(rng=random.Random(3))
        family = IntraProcessFamily()
        iface = parse_idl(TEST_IDL)["test/1.0"]
        token = 5
        server = XrlRouter(loop, "echo", finder, families=[family],
                           process_token=token)
        server.bind(iface, EchoTarget())
        client = XrlRouter(loop, "client", finder, families=[family],
                           process_token=token)
        xrl = Xrl("echo", "test", "1.0", "echo", XrlArgs().add_u32("value", 1))
        error, __ = client.send_sync(xrl)
        assert error.is_okay
        # Restart the echo component: new key, new address.
        server.shutdown()
        server2 = XrlRouter(loop, "echo", finder, families=[family],
                            process_token=token)
        server2.bind(iface, EchoTarget())
        error, args = client.send_sync(xrl)
        assert error.is_okay
        assert args.get_u32("value") == 1

    def test_send_after_shutdown_fails(self):
        loop, __, __, client, __ = build_pair(IntraProcessFamily, None, True)
        client.shutdown()
        error, __ = client.send_sync(Xrl("echo", "test", "1.0", "noop"))
        assert error.code == XrlErrorCode.SEND_FAILED

    def test_singleton_conflict(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder()
        XrlRouter(loop, "rib", finder, singleton=True, families=[])
        with pytest.raises(XrlError):
            XrlRouter(loop, "rib", finder, singleton=True, families=[])


class TestLifetimeNotification:
    def test_birth_and_death_events(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder()
        events = []
        finder.watch("watcher", "bgp",
                     lambda event, cls, inst: events.append((event, inst)))
        router = XrlRouter(loop, "bgp", finder, families=[])
        assert events == [(BIRTH, router.instance_name)]
        router.shutdown()
        assert events[-1] == (DEATH, router.instance_name)

    def test_watch_existing_fires_immediately(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder()
        router = XrlRouter(loop, "bgp", finder, families=[])
        events = []
        finder.watch("w", "bgp", lambda e, c, i: events.append(e))
        assert events == [BIRTH]

    def test_unwatch(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder()
        events = []
        finder.watch("w", "bgp", lambda e, c, i: events.append(e))
        finder.unwatch("w", "bgp")
        XrlRouter(loop, "bgp", finder, families=[])
        assert events == []


class TestStubs:
    def test_client_stub(self):
        loop, __, __, client, iface = build_pair(IntraProcessFamily, None, True)
        stub = iface.client(client, "echo")
        results = []
        stub.echo(callback=lambda err, args: results.append(args.get_u32("value")),
                  value=7)
        assert loop.run_until(lambda: bool(results), timeout=5)
        assert results == [7]

    def test_stub_rejects_bad_kwargs(self):
        loop, __, __, client, iface = build_pair(IntraProcessFamily, None, True)
        stub = iface.client(client, "echo")
        with pytest.raises(XrlError):
            stub.echo(value=1, extra=2)

    def test_bind_requires_all_methods(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder()
        iface = parse_idl(TEST_IDL)["test/1.0"]
        router = XrlRouter(loop, "bad", finder, families=[IntraProcessFamily()])

        class Partial:
            def xrl_echo(self, value):
                return {"value": value}

        from repro.xrl import IdlError

        with pytest.raises(IdlError):
            router.bind(iface, Partial())


class TestCallXrlScripting:
    def test_textual_invocation(self):
        loop, __, __, client, __ = build_pair(IntraProcessFamily, None, True)
        error, text = call_xrl(
            client, "finder://echo/test/1.0/echo?value:u32=99")
        assert error.is_okay
        assert text == "value:u32=99"

    def test_checked_raises(self):
        loop, __, __, client, __ = build_pair(IntraProcessFamily, None, True)
        with pytest.raises(XrlError):
            call_xrl_checked(client, "finder://ghost/test/1.0/echo?value:u32=1")

    def test_checked_returns_text(self):
        loop, __, __, client, __ = build_pair(IntraProcessFamily, None, True)
        text = call_xrl_checked(
            client, "finder://echo/test/1.0/greet?name:txt=world")
        assert text == "greeting:txt=hello%20world"

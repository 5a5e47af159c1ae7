"""Tests for deferred dispatch and the §7 XRL proxy intermediary."""

import pytest

from repro.core.process import Host, XorpProcess
from repro.net import IPNet, IPv4
from repro.xrl import Xrl, XrlArgs, parse_idl
from repro.xrl.error import XrlErrorCode
from repro.xrl.proxy import XrlProxy
from repro.xrl.router import DeferredReply

SVC_IDL = parse_idl("""
interface svc/1.0 {
    add ? a:u32 & b:u32 -> total:u32;
    fail;
}
""")["svc/1.0"]


class Backend:
    def xrl_add(self, a, b):
        return {"total": a + b}

    def xrl_fail(self):
        raise RuntimeError("backend exploded")


@pytest.fixture
def setup():
    host = Host()
    backend_process = XorpProcess(host, "backend-p")
    backend = backend_process.create_router("svc")
    backend.bind(SVC_IDL, Backend())
    proxy_process = XorpProcess(host, "proxy-p")
    proxy_router = proxy_process.create_router("svc-proxy")
    proxy = XrlProxy(proxy_router, SVC_IDL, "svc")
    client_process = XorpProcess(host, "client-p")
    client = client_process.create_router("client")
    return host, proxy, client


class TestDeferredDispatch:
    def test_deferred_reply_roundtrip(self):
        host = Host()
        process = XorpProcess(host, "p")
        router = process.create_router("slow")
        pending = []

        def handler(args):
            deferred = DeferredReply()
            pending.append(deferred)
            return deferred

        router.register_raw_method("slow/1.0/wait", handler)
        client_process = XorpProcess(host, "cp")
        client = client_process.create_router("cli")
        results = []
        client.send(Xrl("slow", "slow", "1.0", "wait"),
                    lambda err, args: results.append(err))
        host.loop.run_until(lambda: bool(pending), timeout=5)
        assert not results  # nothing answered yet
        pending[0].reply(XrlArgs())
        assert host.loop.run_until(lambda: bool(results), timeout=5)
        assert results[0].is_okay

    def test_deferred_fail(self):
        host = Host()
        process = XorpProcess(host, "p")
        router = process.create_router("slow")
        pending = []
        router.register_raw_method(
            "slow/1.0/wait",
            lambda args: pending.append(DeferredReply()) or pending[-1])
        client_process = XorpProcess(host, "cp")
        client = client_process.create_router("cli")
        results = []
        client.send(Xrl("slow", "slow", "1.0", "wait"),
                    lambda err, args: results.append(err))
        host.loop.run_until(lambda: bool(pending), timeout=5)
        from repro.xrl import XrlError

        pending[0].fail(XrlError(XrlErrorCode.COMMAND_FAILED, "later-no"))
        assert host.loop.run_until(lambda: bool(results), timeout=5)
        assert results[0].code == XrlErrorCode.COMMAND_FAILED

    def test_sync_dispatch_frame_raises_on_deferral(self):
        host = Host()
        process = XorpProcess(host, "p")
        router = process.create_router("slow")
        router.register_raw_method("slow/1.0/wait",
                                   lambda args: DeferredReply())
        from repro.xrl.codec import TEXTUAL

        frame = TEXTUAL.encode_request(1, router._key + "/slow/1.0/wait",
                                       XrlArgs())
        with pytest.raises(RuntimeError):
            router.dispatch_frame(frame)

    def test_double_completion_is_idempotent(self):
        deferred = DeferredReply()
        responses = []
        deferred._bind(responses.append, 1, None)
        deferred.reply(XrlArgs())
        deferred.reply(XrlArgs())
        from repro.xrl import XrlError

        deferred.fail(XrlError(XrlErrorCode.COMMAND_FAILED))
        assert len(responses) == 1


class TestXrlProxy:
    def _call(self, client, target, a, b):
        args = XrlArgs().add_u32("a", a).add_u32("b", b)
        return client.send_sync(Xrl(target, "svc", "1.0", "add", args),
                                deadline=10)

    def test_unconstrained_forwarding(self, setup):
        host, proxy, client = setup
        error, result = self._call(client, "svc-proxy", 2, 3)
        assert error.is_okay, error
        assert result.get_u32("total") == 5
        assert proxy.forwarded == 1

    def test_constraint_refuses_out_of_range(self, setup):
        host, proxy, client = setup
        proxy.set_constraint(
            "add", lambda kw: None if kw["a"] <= 100 else "a too large")
        okay, result = self._call(client, "svc-proxy", 7, 1)
        assert okay.is_okay and result.get_u32("total") == 8
        denied, __ = self._call(client, "svc-proxy", 101, 1)
        assert denied.code == XrlErrorCode.ACCESS_DENIED
        assert "too large" in denied.note
        assert proxy.refused == 1

    def test_backend_errors_propagate(self, setup):
        host, proxy, client = setup
        error, __ = client.send_sync(
            Xrl("svc-proxy", "svc", "1.0", "fail"), deadline=10)
        assert error.code == XrlErrorCode.COMMAND_FAILED
        assert "exploded" in error.note

    def test_constraint_on_unknown_method_rejected(self, setup):
        host, proxy, client = setup
        from repro.xrl import XrlError

        with pytest.raises(XrlError):
            proxy.set_constraint("bogus", lambda kw: None)

    def test_sandboxed_caller_sees_only_the_proxy(self, setup):
        """Finder ACL + proxy: argument-level sandboxing end to end."""
        host, proxy, client = setup
        host.finder.set_acl(client.instance_name,
                            allowed_targets={"svc-proxy"})
        proxy.set_constraint(
            "add", lambda kw: None if kw["b"] != 0 else "b must be nonzero")
        # Direct backend access: denied at resolution.
        direct, __ = self._call(client, "svc", 1, 1)
        assert direct.code == XrlErrorCode.ACCESS_DENIED
        # Through the proxy, within constraints: allowed.
        okay, result = self._call(client, "svc-proxy", 1, 1)
        assert okay.is_okay and result.get_u32("total") == 2
        # Through the proxy, outside constraints: refused.
        denied, __ = self._call(client, "svc-proxy", 1, 0)
        assert denied.code == XrlErrorCode.ACCESS_DENIED

#!/usr/bin/env python3
"""Scripting the router through textual XRLs (paper §6.1) + profiling (§8.2).

    "the textual form permits XRLs to be called from any scripting
    language via a simple call_xrl program.  This is put to frequent use
    in all our scripts for automated testing."

A small "test script" drives a live router entirely through textual XRLs:
it inspects targets, adds and looks up routes, flips an interface, then
uses the profile/1.0 interface (the paper's ``xorp_profiler``) to watch a
route flow through the RIB's profiling points.

Run:  python examples/xrl_scripting.py
"""

from repro.simnet import SimNetwork
from repro.xrl.call_xrl import call_xrl

SCRIPT = [
    # -- discovery ---------------------------------------------------------
    "finder://rib/common/0.1/get_target_name",
    "finder://rib/common/0.1/get_version",
    "finder://fea/common/0.1/get_status",
    # -- drive the RIB like a routing protocol would -----------------------
    "finder://rib/rib/1.0/add_igp_table4?protocol:txt=script",
    "finder://rib/rib/1.0/add_route4?protocol:txt=script"
    "&net:ipv4net=192.0.2.0/24&nexthop:ipv4=10.0.0.2&metric:u32=5"
    "&policytags:list=",
    "finder://rib/rib/1.0/lookup_route_by_dest4?addr:ipv4=192.0.2.55",
    "finder://rib/rib/1.0/get_protocol_admin_distance?protocol:txt=rip",
    # -- FEA interface management -------------------------------------------
    "finder://fea/fea_ifmgr/1.0/get_interfaces",
    "finder://fea/fea_ifmgr/1.0/get_interface_addr4?ifname:txt=eth0",
    "finder://fea/fea_fib/1.0/lookup_entry4?addr:ipv4=192.0.2.55",
]

PROFILE_SCRIPT = [
    "finder://rib/profile/1.0/enable?pname:txt=route_arrive_rib",
    "finder://rib/profile/1.0/enable?pname:txt=route_sent_fea",
    "finder://rib/rib/1.0/add_route4?protocol:txt=script"
    "&net:ipv4net=198.51.100.0/24&nexthop:ipv4=10.0.0.2&metric:u32=1"
    "&policytags:list=",
    "finder://rib/rib/1.0/delete_route4?protocol:txt=script"
    "&net:ipv4net=198.51.100.0/24",
    "finder://rib/profile/1.0/list",
    "finder://rib/profile/1.0/get_entries?pname:txt=route_arrive_rib",
    "finder://rib/profile/1.0/get_entries?pname:txt=route_sent_fea",
]


def run_script(router, lines) -> None:
    scripting_router = router.rib.xrl  # any component can originate XRLs
    for line in lines:
        error, output = call_xrl(scripting_router, line)
        status = "OK" if error.is_okay else f"FAIL ({error})"
        print(f"$ call_xrl {line}")
        print(f"  -> {status}" + (f": {output}" if output else ""))


def main() -> None:
    network = SimNetwork()
    r1 = network.add_router("r1")
    r2 = network.add_router("r2")
    network.link(r1, "10.0.0.1", r2, "10.0.0.2")
    network.run(duration=1)

    print("== scripted management session ==")
    run_script(r1, SCRIPT)
    network.run(duration=1)

    print("\n== the xorp_profiler equivalent: profile points over XRLs ==")
    run_script(r1, PROFILE_SCRIPT)

    print("\n== access keys in action: a forged request is rejected ==")
    from repro.xrl import XrlArgs
    from repro.xrl.codec import TEXTUAL

    forged = TEXTUAL.encode_request(
        1, "f" * 32 + "/rib/1.0/get_protocol_admin_distance",
        XrlArgs().add_txt("protocol", "rip"))
    response = r1.rib.xrl.dispatch_frame(forged)
    __, error, __ = TEXTUAL.decode_response(response)
    print(f"forged 16-byte key -> {error}")


if __name__ == "__main__":
    main()

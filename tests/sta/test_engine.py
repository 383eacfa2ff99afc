"""Tests for the PERT STA engine on hand-built and benchmark netlists."""

import numpy as np
import pytest

from repro.netlist import LogicGraph, Netlist, make_design, map_design
from repro.place import place_design
from repro.route import PreRouteEstimator, route_design
from repro.sta import ClockConstraint, derive_constraints, run_sta
from repro.techlib import (TimingTable, make_asap7_library,
                           make_sky130_library)


@pytest.fixture(scope="module")
def sky():
    return make_sky130_library()


@pytest.fixture(scope="module")
def asap():
    return make_asap7_library()


class ZeroWire:
    """Ideal interconnect: lets tests check pure cell-arc arithmetic."""

    def net_load(self, net):
        return net.total_sink_cap()

    def wire_delay(self, net, sink):
        return 0.0

    def slew_degradation(self, net, sink):
        return 0.0


def chain_netlist(sky, n_inv=3):
    """in -> INV x n -> out, all unit drives, no placement needed."""
    nl = Netlist("chain", sky)
    src = nl.add_port("in0", "input")
    net = nl.add_net("n0")
    nl.connect(net, src)
    for _ in range(n_inv):
        inv = nl.add_cell(sky.pick("INV", 1.0))
        nl.connect(net, inv.pins["A"])
        net = nl.add_net()
        nl.connect(net, inv.pins["Y"])
    out = nl.add_port("out0", "output")
    nl.connect(net, out)
    return nl


class TestEngineBasics:
    def test_inverter_chain_arrival_matches_tables(self, sky):
        nl = chain_netlist(sky, n_inv=3)
        report = run_sta(nl, ZeroWire(), ClockConstraint(10.0))
        # Recompute by hand with the same tables.
        inv = sky.pick("INV", 1.0)
        arc = inv.arcs[0]
        slew = sky.primary_input_slew
        at = 0.0
        loads = [inv.input_cap("A"), inv.input_cap("A"), 0.0]
        for load in loads:
            at += arc.delay.lookup(slew, load)
            slew = arc.output_slew.lookup(slew, load)
        out_pin = nl.ports["out0"]
        assert report.arrival[out_pin.index] == pytest.approx(at)

    def test_longer_chain_is_slower(self, sky):
        short = run_sta(chain_netlist(sky, 2), ZeroWire(),
                        ClockConstraint(10.0))
        long = run_sta(chain_netlist(sky, 6), ZeroWire(),
                       ClockConstraint(10.0))
        at = lambda r: max(r.endpoint_arrivals.values())
        assert at(long) > at(short)

    def test_max_over_inputs(self, sky):
        """A NAND's output arrival follows its latest input."""
        nl = Netlist("t", sky)
        fast = nl.add_port("fast", "input")
        slow = nl.add_port("slow", "input")
        n_fast, n_slow = nl.add_net(), nl.add_net()
        nl.connect(n_fast, fast)
        nl.connect(n_slow, slow)
        # Delay the slow input through two inverters.
        prev = n_slow
        for _ in range(2):
            inv = nl.add_cell(sky.pick("INV", 1.0))
            nl.connect(prev, inv.pins["A"])
            prev = nl.add_net()
            nl.connect(prev, inv.pins["Y"])
        nand = nl.add_cell(sky.pick("NAND2", 1.0))
        nl.connect(n_fast, nand.pins["A"])
        nl.connect(prev, nand.pins["B"])
        out_net = nl.add_net()
        nl.connect(out_net, nand.pins["Y"])
        po = nl.add_port("out", "output")
        nl.connect(out_net, po)

        report = run_sta(nl, ZeroWire(), ClockConstraint(10.0))
        at_out = report.arrival[po.index]
        at_slow_path = report.arrival[nand.pins["B"].index]
        arc = nand.ref.arc_for("B")
        slew_b = report.slew[nand.pins["B"].index]
        assert at_out == pytest.approx(
            at_slow_path + arc.delay.lookup(slew_b, 0.0)
        )

    def test_slack_and_wns(self, sky):
        nl = chain_netlist(sky, 4)
        tight = run_sta(nl, ZeroWire(), ClockConstraint(0.05))
        loose = run_sta(nl, ZeroWire(), ClockConstraint(50.0))
        assert tight.wns < 0 < loose.wns
        assert tight.tns <= tight.wns

    def test_flop_boundaries(self, asap):
        """Q startpoint gets clk->q; D endpoint gets setup subtracted."""
        g = LogicGraph("t")
        a = g.add_input("a")
        x = g.add_gate("INV", (a,))
        r = g.add_register(x)
        y = g.add_gate("INV", (r,))
        r2 = g.add_register(y)
        g.mark_output(r2, "q")
        nl = map_design(g, asap)
        report = run_sta(nl, ZeroWire(), ClockConstraint(1.0))
        dffs = nl.sequential_cells
        q_pins = [c.output_pin for c in dffs if c.output_pin.net
                  and c.output_pin.net.sinks]
        for q in q_pins:
            assert report.arrival[q.index] > 0  # clk->q delay
        for c in dffs:
            d = c.pins["D"]
            expected = 1.0 - report.clock.uncertainty \
                - c.ref.setup_time - report.arrival[d.index]
            assert report.slack[d.index] == pytest.approx(expected)

    def test_per_pin_slack_consistent_with_endpoints(self, asap):
        nl = map_design(make_design("arm9"), asap)
        place_design(nl, seed=0)
        report = run_sta(nl, PreRouteEstimator(nl))
        for pin in nl.timing_endpoints():
            if pin.index in report.slack:
                assert report.pin_slack[pin.index] == pytest.approx(
                    report.slack[pin.index], abs=1e-9
                )

    def test_upstream_slack_not_worse_than_downstream_worst(self, asap):
        """Property: a pin's slack >= the worst endpoint slack it feeds."""
        nl = map_design(make_design("linkruncca"), asap)
        place_design(nl, seed=0)
        report = run_sta(nl, PreRouteEstimator(nl))
        wns = report.wns
        for slack in report.pin_slack.values():
            assert slack >= wns - 1e-9

    def test_critical_endpoints_sorted(self, asap):
        nl = map_design(make_design("arm9"), asap)
        place_design(nl, seed=0)
        report = run_sta(nl, PreRouteEstimator(nl))
        crit = report.critical_endpoints(5)
        ats = [at for _, at in crit]
        assert ats == sorted(ats, reverse=True)
        assert len(crit) == 5

    def test_scalar_lookups_match_array_path_bitwise(self, asap,
                                                     monkeypatch):
        """Every arc evaluation through the pure-Python scalar lookup
        gives the same report, bit for bit, as routing each one through
        the ndarray branch."""
        nl = map_design(make_design("arm9"), asap)
        place_design(nl, seed=0)
        fast = run_sta(nl, PreRouteEstimator(nl))
        lookup = TimingTable.lookup
        calls = []

        def via_arrays(table, slew, load):
            calls.append(1)
            out = lookup(table, np.array([slew], dtype=float),
                         np.array([load], dtype=float))
            return float(out[0])

        monkeypatch.setattr(TimingTable, "lookup", via_arrays)
        slow = run_sta(nl, PreRouteEstimator(nl))
        assert calls
        assert fast.arrival == slow.arrival
        assert fast.slew == slow.slew
        assert fast.endpoint_arrivals == slow.endpoint_arrivals
        assert fast.pin_slack == slow.pin_slack


class TestConstraints:
    def test_invalid_constraints_rejected(self):
        with pytest.raises(ValueError):
            ClockConstraint(0.0)
        with pytest.raises(ValueError):
            ClockConstraint(1.0, uncertainty=2.0)

    def test_derived_period_scales_with_node(self, sky, asap):
        nl_sky = map_design(make_design("arm9"), sky)
        nl_asap = map_design(make_design("arm9"), asap)
        c_sky = derive_constraints(nl_sky)
        c_asap = derive_constraints(nl_asap)
        assert c_sky.period > 3.0 * c_asap.period

    def test_derived_period_scales_with_depth(self, asap):
        shallow = map_design(make_design("sha3"), asap)
        deep = map_design(make_design("chacha"), asap)
        assert derive_constraints(deep).period > \
            derive_constraints(shallow).period


class TestSignoffVsPreRoute:
    def test_routed_ats_generally_exceed_preroute(self, asap):
        """Routed interconnect is pessimistic vs the star estimate."""
        nl = map_design(make_design("chacha"), asap)
        fp = place_design(nl, seed=2)
        pre = run_sta(nl, PreRouteEstimator(nl))
        post = run_sta(nl, route_design(nl, fp, seed=2))
        pre_mean = np.mean(list(pre.endpoint_arrivals.values()))
        post_mean = np.mean(list(post.endpoint_arrivals.values()))
        assert post_mean > 0.9 * pre_mean  # routed should not be faster

    def test_endpoint_names_stable_across_providers(self, asap):
        nl = map_design(make_design("arm9"), asap)
        fp = place_design(nl, seed=2)
        pre = run_sta(nl, PreRouteEstimator(nl))
        post = run_sta(nl, route_design(nl, fp, seed=2))
        assert set(pre.endpoint_arrivals) == set(post.endpoint_arrivals)

"""Tests for message-size models and network byte accounting."""

import pytest

from repro.analysis import EdgeServiceSizeModel, VALUE_BEARING_KINDS
from repro.sim import ConstantDelay, Message, Network, Node, Simulator


class TestEdgeServiceSizeModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeServiceSizeModel(value_bytes=-1)

    def test_control_message_is_header_only(self):
        model = EdgeServiceSizeModel(value_bytes=1000, header_bytes=50)
        msg = Message(src="a", dst="b", kind="inval", payload={"lc": 1})
        assert model(msg) == 50

    def test_value_bearing_message_adds_value(self):
        model = EdgeServiceSizeModel(value_bytes=1000, header_bytes=50)
        msg = Message(src="a", dst="b", kind="dq_write",
                      payload={"obj": "x", "value": "data"})
        assert model(msg) == 1050

    def test_delayed_entries_counted(self):
        model = EdgeServiceSizeModel(header_bytes=10, delayed_entry_bytes=5)
        msg = Message(src="a", dst="b", kind="vl_renew_reply",
                      payload={"delayed": [("x", 1), ("y", 2), ("z", 3)]})
        assert model(msg) == 10 + 15

    def test_digest_entries_counted(self):
        model = EdgeServiceSizeModel(header_bytes=10, delayed_entry_bytes=4)
        msg = Message(src="a", dst="b", kind="ra_digest",
                      payload={"digest": {"x": 1, "y": 2}})
        assert model(msg) == 10 + 8

    def test_every_protocol_has_value_kinds(self):
        prefixes = {"dq_", "mq_", "rowa_", "ra_", "pb_", "cat_"}
        covered = {k.split("_")[0] + "_" for k in VALUE_BEARING_KINDS}
        assert prefixes <= covered


class TestNetworkByteAccounting:
    class Echo(Node):
        def on_dq_write(self, msg):
            self.reply(msg, payload={"lc": 1})

        def on_inval(self, msg):
            pass

    def test_bytes_tracked_with_model(self):
        sim = Simulator(seed=0)
        model = EdgeServiceSizeModel(value_bytes=100, header_bytes=10)
        net = Network(sim, ConstantDelay(1.0), size_model=model)
        a = self.Echo(sim, net, "a")
        b = self.Echo(sim, net, "b")

        def proc():
            yield a.call("b", "dq_write", {"obj": "x", "value": "v"})

        sim.run_process(proc())
        # request: 10+100; reply (dq_write_reply, not value-bearing): 10
        assert net.stats.total_bytes == 120
        assert net.stats.bytes_by_kind["dq_write"] == 110

    def test_no_model_means_zero_bytes(self):
        sim = Simulator(seed=0)
        net = Network(sim, ConstantDelay(1.0))
        a = self.Echo(sim, net, "a")
        b = self.Echo(sim, net, "b")
        a.send("b", "dq_write", {"obj": "x", "value": "v"})
        sim.run()
        assert net.stats.total_bytes == 0
        assert net.stats.total_messages == 2  # the handler replied

    def test_snapshot_diff_includes_bytes(self):
        sim = Simulator(seed=0)
        net = Network(sim, ConstantDelay(1.0),
                      size_model=EdgeServiceSizeModel(header_bytes=7, value_bytes=0))
        a = self.Echo(sim, net, "a")
        b = self.Echo(sim, net, "b")
        a.send("b", "inval", {"lc": 1})
        sim.run()
        net.reset_counters()
        a.send("b", "inval", {"lc": 2})
        sim.run()
        assert net.stats.total_bytes == 7

"""Tests for the gossip propagation simulator."""

from __future__ import annotations

import random

import pytest

from repro.network.gossip import GossipNetwork, orphan_rate_estimate


def _line_network():
    """a -- b -- c with known latencies."""
    network = GossipNetwork()
    network.connect("a", "b", 1.0)
    network.connect("b", "c", 2.0)
    return network


class TestTopology:
    def test_connect_and_degree(self):
        network = _line_network()
        assert len(network) == 3
        assert network.degree("b") == 2
        assert network.degree("a") == 1

    def test_validation(self):
        network = GossipNetwork()
        with pytest.raises(ValueError):
            network.connect("a", "a", 1.0)
        with pytest.raises(ValueError):
            network.connect("a", "b", 0.0)

    def test_random_topology_connected(self):
        network = GossipNetwork.random_topology(
            50, degree=6, rng=random.Random(1)
        )
        result = network.propagate("n0")
        assert result.reached == 50

    def test_random_topology_validation(self):
        with pytest.raises(ValueError):
            GossipNetwork.random_topology(1)
        with pytest.raises(ValueError):
            GossipNetwork.random_topology(10, degree=1)


class TestPropagation:
    def test_arrival_times_on_line(self):
        network = _line_network()
        result = network.propagate("a", validation_delay=0.0)
        assert result.arrival_times == {"a": 0.0, "b": 1.0, "c": 3.0}

    def test_validation_delay_added_per_hop(self):
        network = _line_network()
        result = network.propagate("a", validation_delay=0.5)
        # a relays immediately; b validates 0.5 before relaying to c.
        assert result.arrival_times["b"] == pytest.approx(1.0)
        assert result.arrival_times["c"] == pytest.approx(3.5)

    def test_shortest_path_wins(self):
        network = _line_network()
        network.connect("a", "c", 1.5)  # shortcut
        result = network.propagate("a")
        assert result.arrival_times["c"] == pytest.approx(1.5)

    def test_unknown_origin(self):
        with pytest.raises(KeyError):
            _line_network().propagate("zz")

    def test_coverage_time(self):
        network = _line_network()
        result = network.propagate("a")
        assert result.coverage_time(1.0) == pytest.approx(3.0)
        assert result.coverage_time(0.5) <= result.coverage_time(1.0)
        with pytest.raises(ValueError):
            result.coverage_time(0.0)

    def test_faster_validation_speeds_propagation(self):
        """The systems payoff of execution speed-ups: relay delay."""
        network = GossipNetwork.random_topology(
            60, degree=6, rng=random.Random(2)
        )
        slow = network.propagate("n0", validation_delay=0.25)
        fast = network.propagate("n0", validation_delay=0.25 / 6)  # 6x
        assert fast.coverage_time(0.9) < slow.coverage_time(0.9)


class TestExperimentAndOrphans:

    def test_orphan_rate_monotone_in_delay(self):
        assert orphan_rate_estimate(0.0, 600.0) == 0.0
        slow = orphan_rate_estimate(30.0, 600.0)
        fast = orphan_rate_estimate(5.0, 600.0)
        assert 0.0 < fast < slow < 1.0

    def test_orphan_rate_validation(self):
        with pytest.raises(ValueError):
            orphan_rate_estimate(-1.0, 600.0)
        with pytest.raises(ValueError):
            orphan_rate_estimate(1.0, 0.0)

    def test_speedup_reduces_orphan_rate_end_to_end(self):
        """Execution speed-up -> faster relay -> fewer orphans."""
        network = GossipNetwork.random_topology(
            60, degree=6, rng=random.Random(5)
        )
        slow = network.propagate("n0", validation_delay=0.5)
        fast = network.propagate("n0", validation_delay=0.5 / 6)
        interval = 13.0  # Ethereum-like
        assert orphan_rate_estimate(
            fast.coverage_time(0.9), interval
        ) < orphan_rate_estimate(slow.coverage_time(0.9), interval)

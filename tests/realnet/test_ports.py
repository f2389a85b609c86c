"""Tests for race-free UDP port allocation."""

import socket

import pytest

from repro.realnet.ports import PortPlan, address_of, bind_node_socket


def _close_all(sockets):
    for sock in sockets:
        sock.close()


class TestPortPlan:
    def test_defaults(self):
        plan = PortPlan()
        assert plan.bind_host == "127.0.0.1"
        assert plan.base_port is None

    def test_base_port_range_validated(self):
        with pytest.raises(ValueError):
            PortPlan(base_port=0)
        with pytest.raises(ValueError):
            PortPlan(base_port=70000)


class TestKernelAssigned:
    def test_binds_distinct_ephemeral_ports(self):
        plan = PortPlan()
        sockets = [bind_node_socket(plan, node_id) for node_id in range(5)]
        try:
            ports = {address_of(sock)[1] for sock in sockets}
            assert len(ports) == 5
            assert all(port > 0 for port in ports)
        finally:
            _close_all(sockets)

    def test_socket_is_nonblocking(self):
        sock = bind_node_socket(PortPlan(), 0)
        try:
            assert sock.getblocking() is False
        finally:
            sock.close()


class TestExplicitBase:
    def test_node_id_maps_to_base_plus_id(self):
        # Ask the kernel for a currently free port, then claim it explicitly.
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        base = address_of(probe)[1]
        probe.close()

        sock = bind_node_socket(PortPlan(base_port=base), 0)
        try:
            assert address_of(sock)[1] == base
        finally:
            sock.close()

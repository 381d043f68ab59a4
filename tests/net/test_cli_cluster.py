"""`repro cluster` / `repro serve`: the socket backend from the CLI."""

import os
import socket
import struct
import subprocess
import sys
import threading

import pytest

import repro
from repro.cli import build_parser, main
from repro.net.wire import decode_binary_response, encode_binary_request
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind


class TestParser:
    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.algorithm == "abd"
        assert args.rounds == 2
        assert args.address == []
        assert not args.demo

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.server, args.host, args.port) == (0, "127.0.0.1", 0)


class TestClusterCommand:
    def test_demo_runs_abd_over_sockets(self, capsys):
        assert main(["cluster", "--demo"]) == 0
        out = capsys.readouterr().out
        assert "abd over real sockets" in out
        assert "safety check passed" in out

    def test_single_cas_cluster(self, capsys):
        assert main(["cluster", "--algorithm", "single-cas"]) == 0
        out = capsys.readouterr().out
        assert "single-cas over real sockets" in out
        assert "safety check passed" in out

    def test_serve_rejects_unknown_server_index(self, capsys):
        assert main(["serve", "-n", "3", "-f", "1", "--server", "9"]) == 2
        err = capsys.readouterr().err
        assert "no server 9" in err

    def test_serve_explains_missing_layout_params(self, capsys):
        assert main(["serve"]) == 2  # abd needs -n/-f
        err = capsys.readouterr().err
        assert "pass -k/-n/-f" in err


def _repro(*args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def _assert_typed_failure(run, code):
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr
    lines = run.stderr.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines
    assert len(lines) == 1


class TestPortsFailTyped:
    @pytest.mark.parametrize(
        "args",
        [
            ("serve", "-n", "3", "-f", "1", "--port", "99999"),
            ("serve", "-n", "3", "-f", "1", "--port", "-1"),
            ("serve", "--shards", "2", "--ports", "7000,-5"),
            (
                "cluster", "-n", "3", "-f", "1",
                "--address", "127.0.0.1:99999",
                "--address", "127.0.0.1:1",
                "--address", "127.0.0.1:2",
            ),
        ],
        ids=["port-high", "port-negative", "shard-ports", "cluster-address"],
    )
    def test_a_port_outside_the_range_is_invalid_config(self, args):
        _assert_typed_failure(_repro(*args), 8)

    def test_a_port_in_use_is_transport_unavailable(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            run = _repro("serve", "-n", "3", "-f", "1", "--port", str(port))
        _assert_typed_failure(run, 17)


def _start_replica_thread():
    """Host single-cas's one server in a daemon thread; return its port."""
    from repro.net.asyncio_transport import run_replica_server

    announced = []
    ready = threading.Event()

    def announce(message):
        announced.append(message)
        ready.set()

    # the same replica spec snapshot_placements derives for single-cas:
    # one CAS object at index 0, initial value 0.
    thread = threading.Thread(
        target=run_replica_server,
        args=(0, [(0, "cas", 0)]),
        kwargs={"port": 0, "announce": announce},
        daemon=True,
    )
    thread.start()
    assert ready.wait(10), "replica server did not come up"
    return int(announced[0].rsplit(":", 1)[1])


class TestExternallyHostedReplica:
    def test_raw_socket_round_trip(self):
        port = _start_replica_thread()

        def cas(op_value, expected, new_value):
            return LowLevelOp(
                op_id=OpId(op_value),
                client_id=ClientId(0),
                object_id=ObjectId(0),
                kind=OpKind.CAS,
                args=(expected, new_value),
                trigger_time=0,
            )

        def answer(reader):
            # a frame is a 4-byte big-endian length, then the payload
            (length,) = struct.unpack(">I", reader.read(4))
            return decode_binary_response(reader.read(length))

        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            reader = conn.makefile("rb")
            conn.sendall(encode_binary_request(cas(0, 0, 5)))
            first = answer(reader)
            conn.sendall(encode_binary_request(cas(1, 5, 9)))
            second = answer(reader)
        # CAS returns the previous value: 0 initially, then the 5 the
        # first swap installed — the replica really holds state.
        assert first == {"op": 0, "result": 0}
        assert second == {"op": 1, "result": 5}

    def test_cluster_connects_to_external_server(self, capsys):
        port = _start_replica_thread()
        code = main(
            [
                "cluster",
                "--algorithm",
                "single-cas",
                "--address",
                f"127.0.0.1:{port}",
                "--rounds",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"127.0.0.1:{port}" in out
        assert "safety check passed" in out

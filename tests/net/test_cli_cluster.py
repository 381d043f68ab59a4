"""`repro cluster` / `repro serve`: the socket backend from the CLI."""

import socket
import struct
import threading

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

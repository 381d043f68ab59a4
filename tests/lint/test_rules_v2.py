"""Fixture tests for the dataflow-aware rules R007-R010.

Same contract as test_rules.py: every rule gets (a) fixtures it fires
on, (b) a fixture a ``# repro-lint: disable=`` directive silences, and
(c) true-negative fixtures it must stay quiet on.  The R009 section
includes the regression fixture reproducing the PR 4 ``FaultPlan.fate``
str-hash bug — the shape that silently broke cross-process replay and
motivated the rule.
"""

import pytest

from tests.lint.test_rules import lint_source, rules_fired

# -- R007: event-loop discipline ---------------------------------------------


class TestR007:
    def test_time_sleep_in_async_def_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            async def serve():
                time.sleep(0.1)
            """,
            "R007",
        )
        assert rules_fired(result) == ["R007"]
        assert "time.sleep()" in result.active[0].message

    def test_sync_socket_and_file_io_fire(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import socket

            async def dial(host, port):
                conn = socket.create_connection((host, port))
                with open("log.txt") as fh:
                    return fh.read(), conn
            """,
            "R007",
        )
        assert rules_fired(result) == ["R007", "R007"]

    def test_run_to_quiescence_in_async_def_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            async def drive(sim):
                sim.run_to_quiescence()
            """,
            "R007",
        )
        assert rules_fired(result) == ["R007"]

    def test_print_default_parameter_fires(self, tmp_path):
        # the asyncio-transport closure shape: a nested async def calling
        # a callback parameter of the enclosing sync function whose
        # default is print — resolved through the enclosing scope
        result = lint_source(
            tmp_path,
            """
            def run_server(announce=print):
                async def _serve():
                    announce("listening")
                return _serve
            """,
            "R007",
        )
        assert rules_fired(result) == ["R007"]
        assert "announce() (= print)" in result.active[0].message

    def test_own_parameter_default_print_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            async def serve(announce=print):
                announce("up")
            """,
            "R007",
        )
        assert rules_fired(result) == ["R007"]

    def test_suppression_silences(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            async def serve():
                # repro-lint: disable=R007 startup only, loop not yet serving
                time.sleep(0.1)
            """,
            "R007",
        )
        assert rules_fired(result) == []
        assert len(result.suppressed) == 1

    def test_asyncio_sleep_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import asyncio

            async def serve():
                await asyncio.sleep(0.1)
            """,
            "R007",
        )
        assert rules_fired(result) == []

    def test_sync_def_is_out_of_scope(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            def serve():
                time.sleep(0.1)
                print("done")
            """,
            "R007",
        )
        assert rules_fired(result) == []

    def test_callback_rebound_to_async_safe_value_is_clean(self, tmp_path):
        # a name locally bound to something non-blocking must not fall
        # through to the enclosing-scope default
        result = lint_source(
            tmp_path,
            """
            def run_server(announce=print):
                async def _serve(sink):
                    announce = sink.emit
                    announce("listening")
                return _serve
            """,
            "R007",
        )
        assert rules_fired(result) == []

    def test_blocking_callable_passed_not_called_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            async def serve(loop):
                await loop.run_in_executor(None, time.sleep, 0.1)
            """,
            "R007",
        )
        assert rules_fired(result) == []


# -- R008: fire-and-forget coroutines/tasks ----------------------------------


class TestR008:
    def test_discarded_ensure_future_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import asyncio

            def kick(coro):
                asyncio.ensure_future(coro)
            """,
            "R008",
        )
        assert rules_fired(result) == ["R008"]
        assert "fire-and-forget" in result.active[0].message

    def test_discarded_create_task_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            async def kick(loop, coro):
                loop.create_task(coro)
            """,
            "R008",
        )
        assert rules_fired(result) == ["R008"]

    def test_task_assigned_but_never_read_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import asyncio

            async def kick(coro):
                task = asyncio.create_task(coro)
            """,
            "R008",
        )
        assert rules_fired(result) == ["R008"]
        assert "never read" in result.active[0].message

    def test_unawaited_local_coroutine_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            async def work():
                return 1

            async def caller():
                work()
            """,
            "R008",
        )
        assert rules_fired(result) == ["R008"]
        assert "never awaited" in result.active[0].message

    def test_suppression_silences(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import asyncio

            def kick(coro):
                # repro-lint: disable=R008 daemon task, lifetime of process
                asyncio.ensure_future(coro)
            """,
            "R008",
        )
        assert rules_fired(result) == []
        assert len(result.suppressed) == 1

    def test_task_with_done_callback_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import asyncio

            async def kick(coro, on_done):
                task = asyncio.create_task(coro)
                task.add_done_callback(on_done)
            """,
            "R008",
        )
        assert rules_fired(result) == []

    def test_awaited_task_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import asyncio

            async def kick(coro):
                task = asyncio.ensure_future(coro)
                await task
            """,
            "R008",
        )
        assert rules_fired(result) == []

    def test_task_retained_in_collection_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import asyncio

            async def kick(coro, registry):
                task = asyncio.create_task(coro)
                registry.add(task)
            """,
            "R008",
        )
        assert rules_fired(result) == []

    def test_awaited_coroutine_call_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            async def work():
                return 1

            async def caller():
                await work()
            """,
            "R008",
        )
        assert rules_fired(result) == []


# -- R009: replay-determinism taint ------------------------------------------


class TestR009:
    def test_pr4_fate_str_hash_regression(self, tmp_path):
        # the PR 4 bug, reduced: FaultPlan.fate seeded its per-decision
        # RNG from hash((...components...)) where one component was a
        # str leg name — salted per process, so coordinator and replica
        # shells drew different fates and replay silently diverged.
        result = lint_source(
            tmp_path,
            """
            import random

            class FaultPlan:
                def fate(self, seed, op_id, server_index):
                    leg = "request"
                    rng = random.Random(
                        hash((seed, op_id, leg, server_index))
                    )
                    return rng.random() < 0.5
            """,
            "R009",
        )
        assert rules_fired(result) == ["R009"]
        assert "salted per process" in result.active[0].message

    def test_direct_str_hash_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def cache_slot(name: object) -> int:
                return hash("prefix") ^ 17
            """,
            "R009",
        )
        assert rules_fired(result) == ["R009"]

    def test_hash_through_assignment_chain_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            def fate(seed):
                key = "leg"
                token = key
                rng = random.Random(hash(token) + seed)
                return rng.random()
            """,
            "R009",
        )
        assert rules_fired(result) == ["R009"]

    def test_id_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def slot(obj):
                return id(obj) % 64
            """,
            "R009",
        )
        assert rules_fired(result) == ["R009"]
        assert "process-local" in result.active[0].message

    def test_tainted_value_reaching_sink_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            def pick(key):
                salted = hash(str(key))
                rng = random.Random(salted)
                return rng.random()
            """,
            "R009",
        )
        # the hash() itself plus the tainted flow into Random(...)
        assert rules_fired(result) == ["R009", "R009"]

    def test_set_iteration_into_wire_frame_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from repro.net.wire import encode_binary_requests

            def frame(servers):
                pending = set(servers)
                order = []
                for server in pending:
                    order = order + [server]
                return encode_binary_requests(order)
            """,
            "R009",
        )
        assert any(
            "unsorted set/dict iteration" in item.message
            for item in result.active
        )

    def test_set_iteration_into_the_replica_serve_pass_fires(self, tmp_path):
        # the replica packs its answer frames inside the serve pass: a
        # read assembled in set order would answer in a salted order.
        result = lint_source(
            tmp_path,
            """
            from repro.net.wire import serve_binary_requests

            def answer(replicas, frames):
                pending = set(frames)
                data = b""
                for frame in pending:
                    data = data + frame
                return serve_binary_requests(data, replicas)
            """,
            "R009",
        )
        assert any(
            "flows into serve_binary_requests" in item.message
            for item in result.active
        ), [item.message for item in result.active]

    def test_set_iteration_into_a_scheduler_pick_fires(self, tmp_path):
        # a scheduler's pick decides the next step and is recorded in
        # replay scripts: steps offered in set order replay differently
        # per process.
        result = lint_source(
            tmp_path,
            """
            def step(kernel, clients, responds):
                ready = set(responds)
                offered = []
                for op in ready:
                    offered = offered + [op]
                return kernel.scheduler.pick(clients, offered, kernel)
            """,
            "R009",
        )
        assert any(
            "flows into pick" in item.message for item in result.active
        ), [item.message for item in result.active]

    def test_float_accumulation_into_fate_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def decide(plan, weights):
                total = 0.0
                for w in weights:
                    total += w
                return plan.fate(total)
            """,
            "R009",
        )
        assert any(
            "float accumulation" in item.message for item in result.active
        )

    @pytest.mark.parametrize(
        "call",
        [
            "plan.compiled(index, seed)",
            "draw_fate(plan.compiled(index, 0), seed, 0, 0)",
        ],
    )
    def test_salted_seed_into_the_compiled_fate_path_fires(
        self, tmp_path, call
    ):
        result = lint_source(
            tmp_path,
            f"""
            from repro.net.faults import draw_fate

            def bind(plan, index, name):
                seed = hash(str(name))
                return {call}
            """,
            "R009",
        )
        assert any(
            "flows into" in item.message for item in result.active
        ), [item.message for item in result.active]

    def test_suppression_silences(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def display_bucket(name):
                # repro-lint: disable=R009 display-only, never replayed
                return hash(str(name)) % 8
            """,
            "R009",
        )
        assert rules_fired(result) == []
        assert len(result.suppressed) == 1

    def test_all_int_tuple_hash_is_clean(self, tmp_path):
        # the *fixed* FaultPlan.fate shape: every component an int
        result = lint_source(
            tmp_path,
            """
            import random

            def fate(seed, op_id, leg, server_index):
                rng = random.Random(hash((seed, op_id, leg, server_index)))
                return rng.random()
            """,
            "R009",
        )
        assert rules_fired(result) == []

    def test_sorted_iteration_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from repro.net.wire import encode_binary_requests

            def frame(servers):
                order = []
                for server in sorted(set(servers)):
                    order = order + [server]
                return encode_binary_requests(order)
            """,
            "R009",
        )
        assert rules_fired(result) == []

    def test_cleansed_reassignment_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            def fate(seed):
                token = hash(str(seed))
                token = int(seed)
                rng = random.Random(token)
                return rng.random()
            """,
            "R009",
        )
        # the direct hash(str(...)) still fires; the sink must not,
        # because the clean reassignment killed the taint
        assert rules_fired(result) == ["R009"]
        assert "flows into" not in result.active[0].message

    def test_out_of_scope_package_dir_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def bucket(name):
                return hash(str(name)) % 8
            """,
            "R009",
            name="repro/analysis/fixture.py",
        )
        assert rules_fired(result) == []

    def test_every_sink_names_a_live_binding(self):
        # A sink renamed or deleted in src/ leaves its flow unchecked.
        import ast
        from pathlib import Path

        import repro
        from repro.lint.rules_flow import ReplayDeterminismRule

        bound = {"Random"}
        for path in Path(repro.__file__).parent.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(
                    node,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    bound.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Store
                ):
                    bound.add(node.id)
        assert sorted(ReplayDeterminismRule.SINKS - bound) == []

    def test_result_cache_key_is_in_scope(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from repro.exec.cache import cell_key

            def key(cell, name):
                salt = hash(str(name))
                return cell_key(cell, salt)
            """,
            "R009",
            name="repro/exec/fixture.py",
        )
        assert any(
            "flows into cell_key" in item.message for item in result.active
        ), [item.message for item in result.active]


# -- R010: typed-error discipline --------------------------------------------


class TestR010:
    def test_bare_valueerror_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def validate(k):
                if k <= 0:
                    raise ValueError(f"k must be positive, got {k}")
            """,
            "R010",
        )
        assert rules_fired(result) == ["R010"]
        assert "--explain R010" in result.active[0].message

    def test_bare_runtimeerror_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def require_open(session):
                if session.closed:
                    raise RuntimeError("session is closed")
            """,
            "R010",
        )
        assert rules_fired(result) == ["R010"]

    def test_raise_without_call_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def fail():
                raise ValueError
            """,
            "R010",
        )
        assert rules_fired(result) == ["R010"]

    def test_suppression_silences(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def validate(k):
                if k <= 0:
                    # repro-lint: disable=R010 stdlib-compat surface
                    raise ValueError(f"k must be positive, got {k}")
            """,
            "R010",
        )
        assert rules_fired(result) == []
        assert len(result.suppressed) == 1

    def test_typed_error_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from repro.errors import InvalidConfig

            def validate(k):
                if k <= 0:
                    raise InvalidConfig(f"k must be positive, got {k}")
            """,
            "R010",
        )
        assert rules_fired(result) == []

    def test_reraise_and_other_builtins_are_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def passthrough():
                try:
                    risky()
                except ValueError:
                    raise
                raise NotImplementedError("subclass responsibility")
            """,
            "R010",
        )
        assert rules_fired(result) == []

    def test_errors_module_is_exempt(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            class ReproError(Exception):
                def __init_subclass__(cls, **kwargs):
                    if not cls.__doc__:
                        raise ValueError("error classes need docstrings")
            """,
            "R010",
            name="repro/errors.py",
        )
        assert rules_fired(result) == []


# -- --explain text -----------------------------------------------------------


class TestExplain:
    def test_explain_r010_names_the_classes(self):
        from repro.lint.report import render_explain

        text = render_explain("R010")
        assert "InvalidConfig" in text
        assert "QuorumUnavailable" in text

    def test_explain_unknown_rule(self):
        from repro.lint.report import render_explain

        assert "unknown rule" in render_explain("R999")

    def test_every_v2_rule_has_explain(self):
        from repro.lint.engine import RULES
        from repro.lint.report import render_explain

        import repro.lint.rules_flow  # noqa: F401

        for rule_id in ("R007", "R008", "R009", "R010"):
            assert rule_id in RULES
            assert len(render_explain(rule_id)) > 80

"""The public API surface stays importable and complete."""

import pytest

import repro


class TestTopLevelSurface:
    EXPECTED = {
        "ABDEmulation",
        "AdversaryAdi",
        "CASABDEmulation",
        "Cell",
        "CollectMaxRegister",
        "CoveringTracker",
        "Emulation",
        "EmulationSpec",
        "ExperimentResult",
        "FTMaxRegister",
        "Lemma1Runner",
        "MultiRegisterDeployment",
        "RegisterLayout",
        "ReplicatedMaxRegisterEmulation",
        "ReproError",
        "ShardConfig",
        "ShardServiceConfig",
        "ShardedKVService",
        "SingleCASMaxRegister",
        "VerificationReport",
        "WSRegisterEmulation",
        "bounds",
        "check_ws_regular",
        "check_ws_safe",
        "is_linearizable",
        "is_register_history_atomic",
        "run_experiment",
        "run_experiment_grid",
        "run_loadgen",
        "run_workload",
        "verify_run",
        "write_sequential_workload",
    }

    def test_all_matches_expected(self):
        assert set(repro.__all__) == self.EXPECTED

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackage_alls_resolve(self):
        import repro.analysis
        import repro.apps
        import repro.consistency
        import repro.core
        import repro.exec
        import repro.sim
        import repro.workloads

        for module in (
            repro.analysis,
            repro.apps,
            repro.consistency,
            repro.core,
            repro.exec,
            repro.sim,
            repro.workloads,
        ):
            for name in module.__all__:
                assert getattr(module, name) is not None, (
                    f"{module.__name__}.{name} missing"
                )


class TestExportCensus:
    """Every name a ``repro.*`` package exports has a shipped caller: it
    is loaded or imported somewhere in ``src/`` (outside ``__init__.py``),
    ``examples/``, ``scripts/`` or ``benchmarks/``.  A name only tests
    reach is a deletion candidate; the exceptions are the instruments
    tests drive runs with, kept on purpose, each with its reason."""

    KEPT = {
        "FTMaxRegister": "reached by registry name",
        "ChaosEnvironment": "seeded respond-delay environment of the chaos tests",
        "chaos_faults": "drop/duplicate/reorder fault-plan preset of the lossy tests",
        "CrashPlan": "step- and predicate-triggered crashes for fault tests",
        "ClientPriorityScheduler": "drives emulations straight to their wait points",
        "RecordingScheduler": "records a schedule for the replay tests",
        "ReplayScheduler": "replays a recorded schedule in the replay tests",
        "fork_kernel": "branches a run, as the lower-bound proofs do",
        "MonotoneTimestampInvariant": "runtime invariant monitor of the soak tests",
        "QuorumResponseInvariant": "runtime invariant monitor of the soak tests",
        "WriterCoverInvariant": "runtime invariant monitor of the soak tests",
        "concurrent_workload": "concurrent writes for the wait-freedom tests",
    }

    @staticmethod
    def _shipped_uses():
        import ast
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        files = [
            path
            for path in (root / "src" / "repro").rglob("*.py")
            if path.name != "__init__.py"
        ]
        for directory in ("examples", "scripts", "benchmarks"):
            files.extend((root / directory).rglob("*.py"))
        used = set()
        for path in files:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
        return used

    @staticmethod
    def _exports():
        """``{name: [package, ...]}`` over every ``repro.*`` ``__all__``."""
        import importlib
        import pathlib

        package = pathlib.Path(repro.__file__).parent
        exports = {}
        for init in sorted(package.rglob("__init__.py")):
            parts = init.relative_to(package.parent).parent.parts
            module = importlib.import_module(".".join(parts))
            for name in module.__all__:
                exports.setdefault(name, []).append(module.__name__)
        return exports

    def test_every_export_has_a_shipped_caller(self):
        used = self._shipped_uses()
        unused = sorted(
            f"{package}.{name}"
            for name, packages in self._exports().items()
            if name not in used and name not in self.KEPT
            for package in packages
        )
        assert not unused, unused

    def test_kept_names_are_exported_and_still_unused(self):
        assert set(self.KEPT) <= set(self._exports())
        assert not self._shipped_uses() & set(self.KEPT)


class TestKnobCensus:
    """Every settable value on the KV path, by name.  A new field on one
    of these configs is a new knob: it shows up in review as an edit to
    this test, next to the callers that need two different values of it.
    """

    EXPECTED = {
        "ShardConfig": ("substrate", "n", "f", "k_writers", "capacity"),
        "ShardServiceConfig": ("shards", "seed"),
        "TransportConfig": ("kind", "seed", "plan", "addresses"),
    }

    def test_config_fields_are_exactly_the_known_knobs(self):
        import dataclasses

        from repro.apps.shard import ShardConfig, ShardServiceConfig
        from repro.net.config import TransportConfig

        census = {
            config.__name__: tuple(
                field.name for field in dataclasses.fields(config)
            )
            for config in (
                ShardConfig,
                ShardServiceConfig,
                TransportConfig,
            )
        }
        assert census == self.EXPECTED


class TestKVSurfaceCensus:
    """The public methods of the one KV API, by name.  A second way to
    reach a key (a versioned map to refresh, a describe view, another
    front) shows up in review as an edit to this test."""

    SERVICE = (
        "audit",
        "close",
        "crash_server",
        "drain_completions",
        "heal",
        "keys",
        "partition",
        "session",
        "set_completion_clock",
        "shard_of",
        "step",
        "submit",
    )
    SESSION = (
        "close",
        "delete",
        "get",
        "put",
        "scan",
        "submit_delete",
        "submit_get",
        "submit_put",
    )

    @staticmethod
    def _public_methods(cls):
        return tuple(
            sorted(
                name
                for name, value in vars(cls).items()
                if callable(value) and not name.startswith("_")
            )
        )

    def test_service_and_session_methods(self):
        from repro.apps.shard import ServiceSession, ShardedKVService

        assert self._public_methods(ShardedKVService) == self.SERVICE
        assert self._public_methods(ServiceSession) == self.SESSION


class TestEngineKnobCensus:
    """Every parameter of the experiment engine's entry points, by name.
    A new engine knob (a backend switch, a queue path, a drain timeout)
    shows up in review as an edit to this test."""

    EXPECTED = {
        "run_cells": ("cells", "jobs", "cache", "refresh", "progress"),
        "run_experiment_grid": (
            "experiment_id",
            "kwargs",
            "seed",
            "jobs",
            "cache",
            "refresh",
            "progress",
        ),
        "QueueWorker": (
            "backend",
            "worker_id",
            "ttl",
            "check_version",
            "progress",
            "clock",
        ),
    }

    def test_engine_parameters_are_exactly_the_known_knobs(self):
        import inspect

        from repro.exec import QueueWorker, run_cells, run_experiment_grid

        census = {
            entry.__name__: tuple(inspect.signature(entry).parameters)
            for entry in (run_cells, run_experiment_grid, QueueWorker)
        }
        assert census == self.EXPECTED


class TestLintSurfaceCensus:
    """``repro lint``'s options and ``lint_paths``' parameters, by name.
    One run (no worker pool), one file selection (the given paths) and
    one suppression mechanism (inline directives): a new lint knob shows
    up in review as an edit to this test."""

    OPTIONS = (
        "-h",
        "--help",
        "--json",
        "--format",
        "--explain",
        "--list-rules",
        "--verbose",
    )

    def test_lint_options_are_exactly_the_known_knobs(self):
        from repro.cli import build_parser

        (commands,) = [
            action
            for action in build_parser()._actions
            if action.dest == "command"
        ]
        lint = commands.choices["lint"]
        options = tuple(
            option
            for action in lint._actions
            for option in action.option_strings
        )
        positionals = [
            action.dest for action in lint._actions if not action.option_strings
        ]
        assert options == self.OPTIONS
        assert positionals == ["paths"]
        (fmt,) = [
            action
            for action in lint._actions
            if "--format" in action.option_strings
        ]
        # JSON on stdout is `--json -`, so `--format` has no json choice.
        assert tuple(fmt.choices) == ("text", "sarif")

    def test_lint_paths_parameters(self):
        import inspect

        from repro.lint import lint_paths

        parameters = inspect.signature(lint_paths).parameters
        assert tuple(parameters) == ("paths", "rule_ids")
        assert parameters["rule_ids"].default is None


class TestSchedulerSeamCensus:
    """The scheduler's hook into a run, by name: ``pick``, handed the
    enabled runtimes and the allowed ready ops, returns an index into
    the two.  A second vocabulary for steps (an adapter method, a step
    value type) shows up in review as an edit to this test."""

    HOOKS = ("pick",)

    def test_scheduler_hooks_are_exactly_pick(self):
        from repro.sim.scheduling import Scheduler

        hooks = tuple(
            sorted(
                name
                for name, value in vars(Scheduler).items()
                if callable(value) and not name.startswith("_")
            )
        )
        assert hooks == self.HOOKS

    def test_every_policy_overrides_only_pick(self):
        import repro.sim

        policies = [
            value
            for value in vars(repro.sim).values()
            if isinstance(value, type) and issubclass(value, repro.sim.Scheduler)
        ]
        assert len(policies) == 6  # the base and five policies
        for policy in policies:
            hooks = {
                name
                for name, value in vars(policy).items()
                if callable(value) and not name.startswith("_")
            }
            assert hooks <= set(self.HOOKS), policy


class TestVetoSeamCensus:
    """The environment's hooks into a run, by name.  The kernel asks
    ``allows`` about every ready op on every step and calls ``on_stall``
    when no client is enabled and all are vetoed; an environment that wants to
    memoize its verdicts does so itself (``AdversaryAdi`` keeps one memo
    per covering-state version).  A second cache on the kernel side, or a
    hook to key one, shows up in review as an edit to this test."""

    HOOKS = ("allows", "on_stall")

    def test_environment_hooks_are_exactly_allows_and_on_stall(self):
        from repro.sim.kernel import Environment

        hooks = tuple(
            sorted(
                name
                for name, value in vars(Environment).items()
                if callable(value) and not name.startswith("_")
            )
        )
        assert hooks == self.HOOKS

    def test_kernel_keeps_no_veto_cache(self):
        from repro.core.abd import ABDEmulation
        from repro.sim.chaos import ChaosEnvironment

        emu = ABDEmulation(n=3, f=1, environment=ChaosEnvironment(seed=1))
        emu.add_client().enqueue("write", "x")
        assert emu.system.run_to_quiescence().satisfied
        kernel = emu.kernel
        names = set(vars(kernel)) | set(dir(type(kernel)))
        assert not [name for name in names if "veto" in name]


class TestEventRecordCensus:
    """The kernel's five event records: named tuples whose fields, field
    order and defaults are pinned here.  Listeners read them by name,
    tests build them positionally, so a moved or renamed field is an API
    change that shows up as an edit to this test."""

    EXPECTED = {
        "TriggerEvent": (("time", "op"), {}),
        "RespondEvent": (("time", "op"), {}),
        "InvokeEvent": (("time", "client_id", "seq", "name", "args"), {}),
        "ReturnEvent": (("time", "client_id", "seq", "name", "result"), {}),
        "CrashEvent": (
            ("time", "server_id", "client_id"),
            {"server_id": None, "client_id": None},
        ),
    }

    @staticmethod
    def _records():
        from repro.sim import events

        return [getattr(events, name) for name in TestEventRecordCensus.EXPECTED]

    def test_fields_order_and_defaults(self):
        census = {
            record.__name__: (record._fields, record._field_defaults)
            for record in self._records()
        }
        assert census == self.EXPECTED
        assert all(issubclass(record, tuple) for record in self._records())

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_records_are_read_only(self, name):
        from repro.sim import events

        record = getattr(events, name)
        fields, defaults = self.EXPECTED[name]
        event = record(*range(len(fields) - len(defaults)))
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(event, field, -1)
        with pytest.raises(AttributeError):
            event.extra = -1
        assert tuple(event) == tuple(range(len(fields) - len(defaults))) + (
            None,
        ) * len(defaults)


class TestDeploymentCensus:
    """The deployment classes keep their constructors, and the decision
    *how base objects and clients are put on a kernel* lives in exactly
    two places: the single-register shell and the slot-fleet engine.
    """

    _ABD = ("n", "f", "initial_value", "write_back", "scheduler", "environment")
    _WS = ("k", "n", "f", "initial_value", "scheduler", "environment")
    EXPECTED = {
        "ABDEmulation": _ABD,
        "CASABDEmulation": _ABD,
        "FTMaxRegister": _ABD,
        "SingleCASMaxRegister": ("initial_value", "scheduler", "environment"),
        "CollectMaxRegister": ("k", "initial_value", "scheduler"),
        "WSRegisterEmulation": _WS,
        "ReplicatedMaxRegisterEmulation": _WS,
        "NoCoverAvoidanceEmulation": _WS,
        "SmallQuorumEmulation": _WS,
        "TwoFQuorumEmulation": ("f", "initial_value", "environment"),
        "MultiRegisterDeployment": ("m",) + _WS,
    }

    def test_constructor_parameters_are_unchanged(self):
        import inspect

        from repro.core.ablation import (
            NoCoverAvoidanceEmulation,
            SmallQuorumEmulation,
        )
        from repro.core.theorem5 import TwoFQuorumEmulation

        classes = [
            repro.ABDEmulation,
            repro.CASABDEmulation,
            repro.FTMaxRegister,
            repro.SingleCASMaxRegister,
            repro.CollectMaxRegister,
            repro.WSRegisterEmulation,
            repro.ReplicatedMaxRegisterEmulation,
            NoCoverAvoidanceEmulation,
            SmallQuorumEmulation,
            TwoFQuorumEmulation,
            repro.MultiRegisterDeployment,
        ]
        census = {
            cls.__name__: tuple(inspect.signature(cls).parameters)
            for cls in classes
        }
        assert census == self.EXPECTED

    def test_one_shell_and_one_engine_wire_kernels(self):
        from pathlib import Path

        package = Path(repro.__file__).parent
        sites = {"build_system(": [], "kernel.add_client(": []}
        for layer in ("core", "apps"):
            for path in sorted((package / layer).rglob("*.py")):
                text = path.read_text(encoding="utf-8")
                for needle, found in sites.items():
                    found += [path.name] * text.count(needle)
        for needle, found in sites.items():
            assert found == ["emulation.py", "multi.py"], (needle, found)


class TestProtocolCensus:
    """The ABD protocol, its ``n - f`` quorum round and Algorithm 2's
    write are each written once; the variants override one method."""

    @staticmethod
    def _core_sources():
        from pathlib import Path

        core = Path(repro.__file__).parent / "core"
        return {
            path.name: path.read_text(encoding="utf-8")
            for path in sorted(core.rglob("*.py"))
        }

    def test_one_quorum_round_per_primitive(self):
        # QuorumClient's message round and CASABDClient's Algorithm 1 one.
        sources = self._core_sources()
        rounds = [
            name
            for name, text in sources.items()
            for needle in ("def _quorum(", "def _round(")
            for _ in range(text.count(needle))
        ]
        assert rounds == ["cas_maxreg.py", "quorums.py"]

    def test_one_abd_client(self):
        import ast

        abd_clients = []
        for name, text in self._core_sources().items():
            for node in ast.walk(ast.parse(text)):
                if not isinstance(node, ast.ClassDef):
                    continue
                methods = {
                    item.name: item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                }
                if {"op_write", "op_read"} <= set(methods) and (
                    "max_tsval" in ast.unparse(methods["op_write"])
                ):
                    abd_clients.append(node.name)
        assert abd_clients == ["ABDClient"]

    def test_one_ablated_write(self):
        # SmallQuorumClient overrides only the line-11 quorum size.
        ablation = self._core_sources()["ablation.py"]
        assert ablation.count("def op_write(") == 1
        assert ablation.count("def _write_quorum(") == 1

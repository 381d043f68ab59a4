"""Fixture tests for the built-in pattern rules R001, R002, R004-R006.

Every rule gets (a) a fixture it fires on, (b) a fixture a suppression
directive silences, and (c) negative fixtures it must stay quiet on.
Fixture files live in pytest temp dirs; files outside the ``repro``
package count as in-scope for every rule (see
``ModuleInfo.in_package_dirs``), so the fixtures need not replicate the
package layout — except where a test exercises the path scoping itself.
"""

import textwrap

from repro.lint import lint_paths


def lint_source(tmp_path, source, rule, name="fixture.py"):
    """Lint one fixture file with a single rule."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([path], rule_ids=[rule])


def rules_fired(result):
    return [item.rule for item in result.active]


# -- R001: unseeded randomness ----------------------------------------------


class TestR001:
    def test_module_level_rng_call_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            def pick(items):
                return items[int(random.random() * len(items))]
            """,
            "R001",
        )
        assert rules_fired(result) == ["R001"]
        assert "shared" in result.active[0].message
        # The same shared RNG under an alias.
        result = lint_source(
            tmp_path,
            """
            import random as rng

            def pick(items):
                return rng.choice(items)
            """,
            "R001",
            name="aliased.py",
        )
        assert rules_fired(result) == ["R001"]

    def test_seedless_random_instance_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            rng = random.Random()
            """,
            "R001",
        )
        assert rules_fired(result) == ["R001"]

    def test_from_import_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from random import choice
            """,
            "R001",
        )
        assert rules_fired(result) == ["R001"]

    def test_seeded_instance_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            def scheduler(seed):
                rng = random.Random(seed)
                return rng.random()
            """,
            "R001",
        )
        assert result.active == []

    def test_from_import_random_class_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from random import Random

            rng = Random(7)
            """,
            "R001",
        )
        assert result.active == []

    def test_suppression_silences(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            value = random.random()  # repro-lint: disable=R001 fixture
            """,
            "R001",
        )
        assert result.active == []
        assert rules_fired_suppressed(result) == ["R001"]

    def test_suppression_on_line_above(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            # repro-lint: disable=R001 fixture
            value = random.random()
            """,
            "R001",
        )
        assert result.active == []
        assert len(result.suppressed) == 1

    def test_out_of_scope_package_dir_is_skipped(self, tmp_path):
        # In-package files outside sim/core/consistency are not covered.
        result = lint_source(
            tmp_path,
            """
            import random

            value = random.random()
            """,
            "R001",
            name="repro/analysis/fixture.py",
        )
        assert result.active == []

    def test_in_scope_package_dir_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            value = random.random()
            """,
            "R001",
            name="repro/sim/fixture.py",
        )
        assert rules_fired(result) == ["R001"]


def rules_fired_suppressed(result):
    return [item.rule for item in result.suppressed]


# -- R002: wall-clock / environment reads -----------------------------------


class TestR002:
    def test_time_time_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
            "R002",
        )
        assert rules_fired(result) == ["R002"]
        # The same clock under an alias.
        result = lint_source(
            tmp_path,
            """
            import time as clock

            def stamp():
                return clock.monotonic()
            """,
            "R002",
            name="aliased.py",
        )
        assert rules_fired(result) == ["R002"]

    def test_os_environ_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import os

            debug = os.environ.get("DEBUG")
            """,
            "R002",
        )
        assert rules_fired(result) == ["R002"]

    def test_from_import_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from time import perf_counter
            """,
            "R002",
        )
        assert rules_fired(result) == ["R002"]
        result = lint_source(
            tmp_path,
            """
            from time import perf_counter_ns, monotonic_ns
            """,
            "R002",
            name="nanoseconds.py",
        )
        assert rules_fired(result) == ["R002", "R002"]

    def test_exec_package_is_exempt(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            started = time.perf_counter()
            """,
            "R002",
            name="repro/exec/fixture.py",
        )
        assert result.active == []

    def test_cli_is_exempt(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            started = time.time()
            """,
            "R002",
            name="repro/cli.py",
        )
        assert result.active == []

    def test_asyncio_transport_is_exempt(self, tmp_path):
        # The one module that talks to a real network: its waits are
        # physical deadlines, not simulation inputs (docs/LINTING.md).
        result = lint_source(
            tmp_path,
            """
            import time

            started = time.monotonic()
            """,
            "R002",
            name="repro/net/asyncio_transport.py",
        )
        assert result.active == []

    def test_rest_of_the_transport_layer_is_not_exempt(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            started = time.monotonic()
            """,
            "R002",
            name="repro/net/lossy.py",
        )
        assert rules_fired(result) == ["R002"]

    def test_simulated_time_is_clean(self, tmp_path):
        # Kernel step-time is the simulation's clock, not the wall clock.
        result = lint_source(
            tmp_path,
            """
            def horizon(kernel):
                return kernel.time
            """,
            "R002",
        )
        assert result.active == []

    def test_suppression_silences(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import os

            seed = os.urandom(4)  # repro-lint: disable=R002 fixture
            """,
            "R002",
        )
        assert result.active == []
        assert len(result.suppressed) == 1


# -- R004: base-object access discipline ------------------------------------


class TestR004:
    def test_mutator_call_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def sabotage(emulation, server_id):
                emulation.object_map.crash_server(server_id)
            """,
            "R004",
        )
        assert rules_fired(result) == ["R004"]
        assert "bypasses the kernel" in result.active[0].message

    def test_private_internal_access_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def peek(self):
                return self.object_map._objects
            """,
            "R004",
        )
        assert rules_fired(result) == ["R004"]

    def test_attribute_mutation_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def overwrite(self, value):
                self.object_map.table = value
            """,
            "R004",
        )
        assert rules_fired(result) == ["R004"]

    def test_subscript_mutation_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def plant(self, object_id, value):
                self.object_map.entries[object_id] = value
            """,
            "R004",
        )
        assert rules_fired(result) == ["R004"]

    def test_public_reads_are_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def covered_servers(self, cov):
                servers = self.object_map.image(cov)
                return servers & set(self.object_map.server_ids)
            """,
            "R004",
        )
        assert result.active == []

    def test_trigger_respond_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def op_write(self, ctx, value):
                op = ctx.trigger(self.register, "write", value)
                yield lambda: op in self.results
                return "ack"
            """,
            "R004",
        )
        assert result.active == []

    def test_out_of_scope_package_dir_is_skipped(self, tmp_path):
        # The simulator itself legitimately builds/mutates deployments.
        result = lint_source(
            tmp_path,
            """
            def build(self, server_id):
                self.object_map.add_server(server_id)
            """,
            "R004",
            name="repro/sim/fixture.py",
        )
        assert result.active == []

    def test_suppression_silences(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def sabotage(emulation, server_id):
                # repro-lint: disable=R004 fixture
                emulation.object_map.crash_server(server_id)
            """,
            "R004",
        )
        assert result.active == []
        assert len(result.suppressed) == 1

    def test_transport_layer_is_in_scope_for_mutators(self, tmp_path):
        # repro/net relays messages; it must not apply effects itself.
        result = lint_source(
            tmp_path,
            """
            def pump(self, op):
                self.kernel.object_map.object(op.object_id).apply(op)
            """,
            "R004",
            name="repro/net/fixture.py",
        )
        assert rules_fired(result) == ["R004"]


class TestR004DeliverySeam:
    def test_arrive_from_protocol_code_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def op_write(self, ctx, value):
                op = ctx.trigger(self.register, "write", value)
                ctx.kernel.arrive(op)
            """,
            "R004",
        )
        assert rules_fired(result) == ["R004"]
        assert "delivery seam" in result.active[0].message

    def test_deliver_from_protocol_code_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def short_circuit(self, op):
                self.kernel.deliver(op)
            """,
            "R004",
        )
        assert rules_fired(result) == ["R004"]

    def test_transport_layer_may_call_the_seam(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def pump(self, op_id):
                self._kernel.arrive(op_id)
            """,
            "R004",
            name="repro/net/fixture.py",
        )
        assert result.active == []

    def test_other_receivers_named_deliver_are_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def ship(self, courier, parcel):
                courier.deliver(parcel)
            """,
            "R004",
        )
        assert result.active == []

    def test_suppression_silences(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def short_circuit(self, op):
                self.kernel.deliver(op)  # repro-lint: disable=R004 fixture
            """,
            "R004",
        )
        assert result.active == []
        assert len(result.suppressed) == 1


# -- R005: listener hygiene --------------------------------------------------


class TestR005:
    def test_unpaired_add_listener_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def leaky(kernel, meter):
                kernel.add_listener(meter)
                kernel.run(max_steps=100)
            """,
            "R005",
        )
        assert rules_fired(result) == ["R005"]

    def test_finally_pairing_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def tidy(kernel, meter):
                kernel.add_listener(meter)
                try:
                    kernel.run(max_steps=100)
                finally:
                    kernel.remove_listener(meter)
            """,
            "R005",
        )
        assert result.active == []

    def test_mismatched_argument_still_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def sloppy(kernel, meter, other):
                kernel.add_listener(meter)
                try:
                    kernel.run(max_steps=100)
                finally:
                    kernel.remove_listener(other)
            """,
            "R005",
        )
        assert rules_fired(result) == ["R005"]

    def test_enter_exit_pairing_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            class Subscription:
                def __enter__(self):
                    self.kernel.add_listener(self.meter)
                    return self

                def __exit__(self, *exc):
                    self.kernel.remove_listener(self.meter)
            """,
            "R005",
        )
        assert result.active == []

    def test_module_level_subscription_is_ignored(self, tmp_path):
        # Only subscriptions inside functions are checked; deployment
        # wiring at class/module construction time is out of scope.
        result = lint_source(
            tmp_path,
            """
            KERNEL.add_listener(METER)
            """,
            "R005",
        )
        assert result.active == []

    def test_suppression_silences(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def wired(kernel, meter):
                # repro-lint: disable=R005 permanent by design (fixture)
                kernel.add_listener(meter)
            """,
            "R005",
        )
        assert result.active == []
        assert len(result.suppressed) == 1


# -- R006: iteration-order hazards -------------------------------------------


class TestR006:
    def test_transport_layer_is_in_scope(self, tmp_path):
        # a transport draining arrivals in set order would leak hash
        # order into the delivery sequence the kernel observes.
        result = lint_source(
            tmp_path,
            """
            def drain(self):
                for op_id in set(self._arrived):
                    self._kernel.arrive(op_id)
            """,
            "R006",
            name="repro/net/fixture.py",
        )
        assert rules_fired(result) == ["R006"]

    def test_iterating_image_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def first_server(object_map, cov):
                for server_id in object_map.image(cov):
                    return server_id
            """,
            "R006",
        )
        assert rules_fired(result) == ["R006"]

    def test_set_literal_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def order():
                return [x for x in {3, 1, 2}]
            """,
            "R006",
        )
        assert rules_fired(result) == ["R006"]

    def test_set_difference_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def fresh(tracker, previous):
                for object_id in tracker.preimage(previous) - previous:
                    yield object_id
            """,
            "R006",
        )
        assert rules_fired(result) == ["R006"]

    def test_sorted_wrapper_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def stable(object_map, cov):
                for server_id in sorted(object_map.image(cov)):
                    yield server_id
            """,
            "R006",
        )
        assert result.active == []

    def test_list_iteration_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def rows(items):
                for item in list(items):
                    yield item
            """,
            "R006",
        )
        assert result.active == []

    def test_suppression_silences(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def any_server(object_map, cov):
                # repro-lint: disable=R006 order-insensitive (fixture)
                return {s for s in object_map.image(cov)}
            """,
            "R006",
        )
        assert result.active == []
        assert len(result.suppressed) == 1


# -- engine-level behaviors shared by all rules ------------------------------


class TestEngine:
    def test_syntax_error_reports_r000(self, tmp_path):
        result = lint_source(tmp_path, "def broken(:\n", "R001")
        assert rules_fired(result) == ["R000"]

    def test_multi_rule_directive(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random
            import time

            # repro-lint: disable=R001,R002 fixture
            value = random.random() + time.time()
            """,
            "R001",
        )
        assert result.active == []
        result2 = lint_source(
            tmp_path,
            """
            import random
            import time

            # repro-lint: disable=R001,R002 fixture
            value = random.random() + time.time()
            """,
            "R002",
        )
        assert result2.active == []

    def test_directive_does_not_leak_to_other_rules(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            value = random.random()  # repro-lint: disable=R002 wrong id
            """,
            "R001",
        )
        assert rules_fired(result) == ["R001"]

"""The full reconfiguration story, end to end.

A narrative integration test composing the whole stack the way a real
deployment would: a config service fencing epochs, a KV store carrying
data on one fleet, crashes mid-story, an install race, and a final
verification sweep over every piece.
"""

from types import SimpleNamespace

from repro.apps.config import ConfigService, InstallRaced
from repro.verify import verify_run

from tests.conftest import one_shard_service


class TestReconfigurationStory:
    def test_full_story(self):
        # Act 1: a cluster boots with config v1 and starts serving data.
        config = ConfigService(
            n=5, f=2, initial_config={"members": 5, "version": 1}, seed=31
        )
        store = one_shard_service(
            "register", n=5, f=2, k_writers=2, capacity=4, seed=31
        )
        fleet = store.fleets[0]
        reads = store.session(writer=None)
        # The epilogue audits the substrate, which reads every op: a
        # KV store's kernel keeps only its pending ops unless asked.
        fleet.kernel.ops.record()
        store.session().put("orders", ["o1"])
        store.session(writer=1).put("users", {"u1": "ada"})
        assert config.fetch() == (0, {"members": 5, "version": 1})

        # Act 2: an operator installs config v2.
        epoch = config.install({"members": 5, "version": 2}, process=0)
        assert epoch == 1

        # Act 3: two servers die; data and config survive (f = 2).
        for server in (0, 4):
            config.crash_server(server)
            store.crash_server(server)
        assert reads.get("orders") == ["o1"]
        assert config.fetch(process=3)[1]["version"] == 2

        # Act 4: a lagging operator loses an install race and is told so.
        original_advance = config.epochs.advance

        def racing_advance(process=0):
            claimed = original_advance(process=process)
            config.epochs.propose(claimed + 1, process=99)
            return claimed

        config.epochs.advance = racing_advance
        raced = False
        try:
            config.install({"members": 3, "version": "BAD"}, process=7)
        except InstallRaced:
            raced = True
        finally:
            config.epochs.advance = original_advance
        assert raced
        assert config.fetch(process=8)[1]["version"] == 2  # no clobber

        # Act 5: business as usual on the degraded fleet.
        store.session(writer=1).put("orders", ["o1", "o2"])
        store.session().delete("users")
        assert reads.scan() == {"orders": ["o1", "o2"]}

        # Epilogue: verify everything that ran.
        assert all(store.audit().values())
        for slot in fleet.slots[: len(store.keys())]:
            run = SimpleNamespace(history=slot.history, kernel=fleet.kernel)
            report = verify_run(run, condition="ws-regular")
            assert report.ok, report.details()
        report = verify_run(
            config.store,
            condition="atomic",
            initial_value=(0, {"members": 5, "version": 1}),
        )
        assert report.ok, report.details()
        report = verify_run(
            config.epochs.register,
            condition="max-register-atomic",
            initial_value=0,
        )
        assert report.ok, report.details()

"""Stateful property test: the KV store as a hypothesis state machine.

Hypothesis drives arbitrary interleavings of puts, gets, crashes (within
the f budget) and snapshots against a model dict; every read must match
the model and the final audit must be clean, on every substrate.  The
store is a one-shard ``ShardedKVService``.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from tests.conftest import one_shard_service

KEYS = ("alpha", "beta", "gamma")


class KVStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = None
        self.reads = None
        self.model = {}
        self.crashed = set()
        self.f = 2
        self.counter = 0

    @initialize(
        substrate=st.sampled_from(["register", "max-register", "cas"]),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def setup(self, substrate, seed):
        self.store = one_shard_service(
            substrate, n=5, f=self.f, k_writers=2, seed=seed
        )
        self.reads = self.store.session(writer=None)

    @rule(key=st.sampled_from(KEYS), writer=st.integers(min_value=0, max_value=1))
    def put(self, key, writer):
        value = f"v{self.counter}"
        self.counter += 1
        self.store.session(writer=writer).put(key, value)
        self.model[key] = value

    @rule(key=st.sampled_from(KEYS))
    def get(self, key):
        assert self.reads.get(key) == self.model.get(key)

    @precondition(lambda self: len(self.crashed) < 2)
    @rule(server=st.integers(min_value=0, max_value=4))
    def crash(self, server):
        if server not in self.crashed and len(self.crashed) < self.f:
            self.crashed.add(server)
            self.store.crash_server(server)

    @rule()
    def snapshot(self):
        assert self.reads.scan() == {
            key: self.model[key] for key in sorted(self.model)
        }

    @invariant()
    def audit_clean(self):
        if self.store is not None and self.store.keys():
            assert all(self.store.audit().values())


KVStoreMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=12, deadline=None
)
TestKVStoreMachine = KVStoreMachine.TestCase

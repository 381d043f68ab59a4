"""Tests for scheduler policies (determinism, fairness)."""

import copy
import random

import pytest

from tests.conftest import ToyProtocol

from repro.sim.client import ClientRuntime
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.scheduling import (
    ClientPriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.sim.system import build_system


def _clients(count):
    return [ClientRuntime(ClientId(i), ToyProtocol()) for i in range(count)]


def _respond(index):
    return LowLevelOp(OpId(index), ClientId(0), ObjectId(0), OpKind.READ, (), 0)


class TestRandomScheduler:
    def test_deterministic_given_seed(self):
        clients = _clients(5)
        first = [RandomScheduler(7).pick(clients, (), None) for _ in range(20)]
        second = [RandomScheduler(7).pick(clients, (), None) for _ in range(20)]
        assert first == second

    def test_different_seeds_differ(self):
        clients = _clients(10)
        a = RandomScheduler(1)
        b = RandomScheduler(2)
        picks_a = [a.pick(clients, (), None) for _ in range(30)]
        picks_b = [b.pick(clients, (), None) for _ in range(30)]
        assert picks_a != picks_b

    def test_full_run_reproducible(self):
        def run(seed):
            system = build_system(
                1, [(0, "register", None)], scheduler=RandomScheduler(seed)
            )
            client = system.add_client(ClientId(0), ToyProtocol())
            for i in range(5):
                client.enqueue("write", i)
                client.enqueue("read")
            system.run_to_quiescence()
            return [
                (op.name, op.invoke_time, op.return_time, op.result)
                for op in system.history.all_ops()
            ]

        assert run(3) == run(3)


#: bounds 1..300, and each side of every power of two up to 2**20: the
#: bit count changes there, and 2**k is where a (n - 1).bit_length()
#: draw would part from n.bit_length().
_BOUNDS = sorted(
    set(range(1, 301))
    | {2**k + d for k in range(1, 21) for d in (-1, 0, 1)}
)


class TestInlineDraw:
    """``pick`` consumes the seeded stream exactly as ``_randbelow``,
    however the count splits into client steps and responds."""

    @pytest.mark.parametrize("seed", [0, 11, 29, 2**40 + 3])
    def test_picks_the_index_randbelow_picks(self, seed):
        scheduler = RandomScheduler(seed)
        reference = random.Random(seed)
        for n in _BOUNDS:
            expected = [reference._randbelow(n) for _ in range(3)]
            picked = [scheduler.pick(range(n), (), None) for _ in range(3)]
            assert picked == expected, f"n={n}"

    @pytest.mark.parametrize("seed", [0, 11, 29, 2**40 + 3])
    def test_pick_draws_the_index_choose_draws(self, seed):
        # The kernel's step asks ``pick`` for an index into c enabled
        # runtimes followed by m ready ops; it must consume the stream
        # as a pick over c + m client steps, and ``_randbelow``, do.
        picker, chooser = RandomScheduler(seed), RandomScheduler(seed)
        reference = random.Random(seed)
        for c in range(65):
            for m in range(65):
                if not c + m:
                    continue
                index = picker.pick(range(c), range(m), None)
                assert index == chooser.pick(range(c + m), (), None), (c, m)
                assert index == reference._randbelow(c + m), (c, m)

    def test_a_deep_copy_draws_on_its_own_generator(self):
        # fork_kernel deep-copies the scheduler: the copy must not share
        # (and advance) the original's generator.
        original = RandomScheduler(5)
        fork = copy.deepcopy(original)
        steps = range(1000)
        fork_picks = [fork.pick(steps, (), None) for _ in range(10)]
        assert [original.pick(steps, (), None) for _ in range(10)] == fork_picks


class TestRoundRobinScheduler:
    def test_no_starvation(self):
        """Every continuously enabled step is picked within a bounded
        number of picks."""
        scheduler = RoundRobinScheduler()
        clients = _clients(4)
        picked = [scheduler.pick(clients, (), None) for _ in range(8)]
        for index in range(len(clients)):
            assert picked.count(index) == 2

    def test_new_actions_integrated(self):
        scheduler = RoundRobinScheduler()
        clients = _clients(2)
        scheduler.pick(clients[:1], (), None)
        # The fresh step is served before the stale one repeats forever.
        picks = [scheduler.pick(clients, (), None) for _ in range(2)]
        assert 1 in picks


class TestClientPriorityScheduler:
    def test_prefers_client_steps(self):
        scheduler = ClientPriorityScheduler()
        clients, responds = _clients(1), [_respond(0), _respond(1)]
        # Round robin alone would serve the two fresh responds next.
        picks = [scheduler.pick(clients, responds, None) for _ in range(3)]
        assert picks == [0, 0, 0]

    def test_falls_back_to_responds(self):
        scheduler = ClientPriorityScheduler()
        assert scheduler.pick([], [_respond(0)], None) == 0

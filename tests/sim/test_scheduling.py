"""Tests for scheduler policies (determinism, fairness)."""

import copy
import random

import pytest

from tests.conftest import ToyProtocol

from repro.sim.ids import ClientId
from repro.sim.kernel import Action, ActionKind
from repro.sim.scheduling import (
    ClientPriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.sim.system import build_system


def _client_action(index):
    return Action(ActionKind.CLIENT, client_id=ClientId(index))


class TestRandomScheduler:
    def test_deterministic_given_seed(self):
        actions = [_client_action(i) for i in range(5)]
        first = [RandomScheduler(7).choose(actions, None) for _ in range(20)]
        second = [RandomScheduler(7).choose(actions, None) for _ in range(20)]
        assert first == second

    def test_different_seeds_differ(self):
        actions = [_client_action(i) for i in range(10)]
        a = RandomScheduler(1)
        b = RandomScheduler(2)
        picks_a = [a.choose(actions, None) for _ in range(30)]
        picks_b = [b.choose(actions, None) for _ in range(30)]
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
    """``choose`` and ``pick`` consume the seeded stream exactly as
    ``_randbelow``."""

    @pytest.mark.parametrize("seed", [0, 11, 29, 2**40 + 3])
    def test_picks_the_index_randbelow_picks(self, seed):
        scheduler = RandomScheduler(seed)
        reference = random.Random(seed)
        for n in _BOUNDS:
            expected = [reference._randbelow(n) for _ in range(3)]
            picked = [scheduler.choose(range(n), None) for _ in range(3)]
            assert picked == expected, f"n={n}"

    @pytest.mark.parametrize("seed", [0, 11, 29, 2**40 + 3])
    def test_pick_draws_the_index_choose_draws(self, seed):
        # The kernel's step asks ``pick`` for an index into c enabled
        # runtimes followed by m ready ops; it must consume the stream
        # as ``choose`` over the c + m actions, and ``_randbelow``, do.
        picker, chooser = RandomScheduler(seed), RandomScheduler(seed)
        reference = random.Random(seed)
        for c in range(65):
            for m in range(65):
                if not c + m:
                    continue
                index = picker.pick(range(c), range(m), None)
                assert index == chooser.choose(range(c + m), None), (c, m)
                assert index == reference._randbelow(c + m), (c, m)

    def test_a_deep_copy_draws_on_its_own_generator(self):
        # fork_kernel deep-copies the scheduler: the copy must not share
        # (and advance) the original's generator.
        original = RandomScheduler(5)
        fork = copy.deepcopy(original)
        actions = list(range(1000))
        fork_picks = [fork.choose(actions, None) for _ in range(10)]
        assert [original.choose(actions, None) for _ in range(10)] == fork_picks


class TestRoundRobinScheduler:
    def test_no_starvation(self):
        """Every continuously enabled action is picked within a bounded
        number of choices."""
        scheduler = RoundRobinScheduler()
        actions = [_client_action(i) for i in range(4)]
        picked = [scheduler.choose(actions, None) for _ in range(8)]
        for action in actions:
            assert picked.count(action) == 2

    def test_new_actions_integrated(self):
        scheduler = RoundRobinScheduler()
        actions = [_client_action(0)]
        scheduler.choose(actions, None)
        actions.append(_client_action(1))
        # The fresh action is served before the stale one repeats forever.
        picks = [scheduler.choose(actions, None) for _ in range(2)]
        assert _client_action(1) in picks


class TestClientPriorityScheduler:
    def test_prefers_client_steps(self):
        scheduler = ClientPriorityScheduler()
        from repro.sim.ids import OpId

        respond = Action(ActionKind.RESPOND, op_id=OpId(0))
        client = _client_action(0)
        assert scheduler.choose([respond, client], None) == client

    def test_falls_back_to_responds(self):
        scheduler = ClientPriorityScheduler()
        from repro.sim.ids import OpId

        respond = Action(ActionKind.RESPOND, op_id=OpId(0))
        assert scheduler.choose([respond], None) == respond

"""The deterministic policies' schedules, pinned.

:class:`RoundRobinScheduler` and :class:`ClientPriorityScheduler` decide
every step of the lemma/theorem constructions that use them, and no
paper table pins :class:`ClientPriorityScheduler` at all.  This test
records each policy's schedule through :class:`RecordingScheduler` on
every registry algorithm (two writers, two readers, three rounds) and
holds the sha256 of the JSON-encoded script fixed: the digests were
captured before the policies were rewritten to queue step descriptors,
so a rewrite that moves one pick fails here.  Two runs under
:class:`ChaosEnvironment` cover the veto path: the policies see only
the responds the environment allows.

``python -m tests.sim.test_policy_pins`` prints the current digests.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.emulation import EmulationSpec
from repro.sim.chaos import ChaosEnvironment
from repro.sim.replay import RecordingScheduler
from repro.sim.scheduling import ClientPriorityScheduler, RoundRobinScheduler

from tests.properties.test_prop_transport_identical import SCENARIO_TABLE

ROUNDS = 3

POLICIES = {
    "round-robin": RoundRobinScheduler,
    "client-priority": ClientPriorityScheduler,
}

#: (algorithm, policy, chaos) -> sha256 of the recorded script.
PINNED = {
    ("abd", "client-priority", False): (
        "c69bee0ab5799939490a6677f1c746598c245c0339ed2b7ca92c589ee8b1354c"
    ),
    ("abd", "round-robin", False): (
        "6de8d1fac19f6ddb513e670c3fa5b3a96ed16e238af7954994137d193d5ad656"
    ),
    ("cas-abd", "client-priority", False): (
        "4dd92723680c3978a5f46e02801c685e077eafdd1a87de8c7957e2474b61f5d4"
    ),
    ("cas-abd", "round-robin", False): (
        "73862fb1443b07b21bbd849d6894dc4804c770ceaae4db14533d9ae01035a8b7"
    ),
    ("collect-maxreg", "client-priority", False): (
        "21e48e5ed4a09283523ff8cbe97956aa0aaa3f8ac7200ce9fca17866e0c2fd02"
    ),
    ("collect-maxreg", "round-robin", False): (
        "90f9b1855a43b0cc92ce0f5cdc320ff3fce961b50c0550e55c8a7df88f240509"
    ),
    ("ft-maxreg", "client-priority", False): (
        "401751c9f384f9d6df5c445463abd1a7709d5ce3172d3502144c5d9e1712ec71"
    ),
    ("ft-maxreg", "round-robin", False): (
        "612b1af3c1113dad6f0412940fda909864c1e5b642e3b4610f3253c96091ff73"
    ),
    ("replicated-maxreg", "client-priority", False): (
        "64bfa1e4a27f223b093da474de7ffe9e5b200e072a31f794f461d20378fb1279"
    ),
    ("replicated-maxreg", "round-robin", False): (
        "074554ed752780b27bfbccfb4d2dacb13616405cd072d06e5bdcd7616769987e"
    ),
    ("single-cas", "client-priority", False): (
        "406b684afd8cda5dcd7901e0a61302a1d9e6a3df384f9a30466ebe013659b14b"
    ),
    ("single-cas", "round-robin", False): (
        "4f07432cdc0b3aae2ef255d3f9b2633306d9b1f707eafb92d635d37e93ae0e36"
    ),
    ("ws-register", "client-priority", False): (
        "0e7d7c172302ca80fc73418891207f1ac3cf5b0a89edc500f1ebf5ff5d4ffd62"
    ),
    ("ws-register", "client-priority", True): (
        "e02046178eea7c18ade5749d4689e570903f612204eff86a6a02277320689cd5"
    ),
    ("ws-register", "round-robin", False): (
        "42dbfa6ab45159aac2b17cb8f30eeca3399f0cb5a657c654d62a634ee3c61e05"
    ),
    ("ws-register", "round-robin", True): (
        "d9636fb23f37ff54aaa8d61adadba80a9392f658495d2d0dd31216f1caba2df8"
    ),
}


def script_digest(algorithm: str, policy: str, chaos: bool) -> str:
    params, write_op, read_op, value_kind, _ = SCENARIO_TABLE[algorithm]
    emulation = EmulationSpec.make(algorithm, **params).build()
    kernel = emulation.kernel
    recorder = kernel.scheduler = RecordingScheduler(POLICIES[policy]())
    if chaos:
        environment = kernel.environment = ChaosEnvironment(
            seed=17, veto_probability=0.4, max_delay=60
        )
    writers = [emulation.add_writer(i) for i in range(2)]
    readers = [emulation.add_reader() for _ in range(2)]
    for round_index in range(ROUNDS):
        for writer_index, writer in enumerate(writers):
            value = 2 * round_index + writer_index + 1
            if value_kind == "str":
                value = f"w{writer_index}-{value}"
            writer.enqueue(write_op, value)
        for reader in readers:
            reader.enqueue(read_op)
        assert emulation.system.run_to_quiescence(200_000).satisfied
    assert recorder.script and len(recorder.script) == kernel.time
    if chaos:
        assert environment.vetoes > 0
    encoded = json.dumps(recorder.script).encode()
    return hashlib.sha256(encoded).hexdigest()


@pytest.mark.parametrize(
    "algorithm, policy, chaos",
    sorted(PINNED),
    ids=[
        f"{algorithm}-{policy}" + ("-chaos" if chaos else "")
        for algorithm, policy, chaos in sorted(PINNED)
    ],
)
def test_policy_schedule_is_pinned(algorithm, policy, chaos):
    assert script_digest(algorithm, policy, chaos) == PINNED[
        (algorithm, policy, chaos)
    ]


def test_every_registry_algorithm_is_pinned_under_both_policies():
    pinned = {(a, p) for a, p, chaos in PINNED if not chaos}
    assert pinned == {(a, p) for a in SCENARIO_TABLE for p in POLICIES}


if __name__ == "__main__":
    for key in sorted(PINNED):
        print(f"    {key!r}: {script_digest(*key)!r},")

"""Property tests: the KV store behaves like a dict under sequential ops.

The store is a one-shard ``ShardedKVService``.

Because the runner drives every operation to quiescence, the per-key
histories are sequential: ``get`` must return exactly the last ``put``
value (the sequential specification), on every substrate, under random
operation sequences, seeds and crash points (at most f crashes).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import one_shard_service

KEYS = ["a", "b", "c"]


@st.composite
def kv_scripts(draw):
    substrate = draw(st.sampled_from(["register", "max-register", "cas"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_ops = draw(st.integers(min_value=1, max_value=12))
    ops = []
    counter = 0
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["put", "get", "crash"]))
        key = draw(st.sampled_from(KEYS))
        if kind == "put":
            writer = draw(st.integers(min_value=0, max_value=1))
            ops.append(("put", key, f"value-{counter}", writer))
            counter += 1
        elif kind == "get":
            ops.append(("get", key, None, None))
        else:
            server = draw(st.integers(min_value=0, max_value=4))
            ops.append(("crash", None, server, None))
    return substrate, seed, ops


@given(kv_scripts())
@settings(max_examples=25, deadline=None)
def test_kv_matches_dict_model(script):
    substrate, seed, ops = script
    store = one_shard_service(substrate, n=5, f=2, k_writers=2, seed=seed)
    reads = store.session(writer=None)
    model = {}
    crashed = set()
    for kind, key, payload, writer in ops:
        if kind == "put":
            store.session(writer=writer).put(key, payload)
            model[key] = payload
        elif kind == "get":
            assert reads.get(key) == model.get(key)
        else:
            if len(crashed | {payload}) <= 2:  # stay within f = 2
                crashed.add(payload)
                store.crash_server(payload)
    # Post-conditions: final reads agree with the model, histories clean.
    for key in model:
        assert reads.get(key) == model[key]
    assert all(store.audit().values())

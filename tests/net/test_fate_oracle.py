"""The compiled fate stream against the pre-compilation copy.

``repro.net.faults`` resolves each server's plan into integers and draws
every fate in one inlined function; ``tests/net/faults_reference.py``
keeps the code it replaced.  Under one ``FATE_STREAM`` the two must
agree bit for bit — through :meth:`FaultPlan.fate`, and through the
per-server table a bound :class:`LossyTransport` sends from — on random
plans that reach every edge: probabilities of 0, exact multiples of
2**-32 and values just below 1, the widest delay spans and reorder
windows, neutral links, overlapping and never-healing partitions, seeds
up to 2**63, op ids up to 2**40, both legs, and times on either side of
every partition edge.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.net.faults_reference import reference_fate

from repro.net.faults import (
    REQUEST,
    RESPONSE,
    Delay,
    Drop,
    Duplicate,
    FaultPlan,
    LinkFaults,
    Partition,
    Reorder,
    draw_fate,
)
from repro.net.lossy import LossyTransport
from repro.sim.system import build_system

SERVERS = 6
TIME_LIMIT = 400

_JUST_BELOW_ONE = (
    1 - 2.0**-32,
    1 - 2.0**-33,
    math.nextafter(1.0, 0.0),
)

probabilities = st.one_of(
    st.sampled_from((0.0, 2.0**-32, 0.25, 0.5, 0.75) + _JUST_BELOW_ONE),
    st.integers(0, 2**32 - 1).map(lambda k: k * 2.0**-32),
    st.floats(0.0, 1.0, exclude_max=True),
)


@st.composite
def delays(draw):
    low = draw(st.integers(0, 1_000))
    span = draw(st.one_of(st.just(2**16 - 1), st.integers(0, 2**16 - 1)))
    return Delay(low, low + span)


links = st.one_of(
    st.just(LinkFaults()),
    st.builds(
        LinkFaults,
        drop=st.builds(Drop, probabilities),
        duplicate=st.builds(Duplicate, probabilities, st.integers(1, 100)),
        delay=delays(),
        reorder=st.builds(
            Reorder,
            probabilities,
            st.one_of(st.just(2**16), st.integers(1, 2**16)),
        ),
    ),
)


@st.composite
def partitions(draw):
    start = draw(st.integers(0, TIME_LIMIT // 2))
    heal = draw(st.one_of(st.none(), st.integers(start + 1, TIME_LIMIT)))
    servers = draw(
        st.lists(st.integers(0, SERVERS - 1), min_size=1, max_size=3)
    )
    return Partition(start, heal, tuple(servers))


plans = st.builds(
    FaultPlan,
    default=links,
    per_server=st.lists(
        st.tuples(st.integers(0, SERVERS - 1), links),
        max_size=SERVERS,
        unique_by=lambda pair: pair[0],
    ).map(tuple),
    partitions=st.lists(partitions(), max_size=4).map(tuple),
)

seeds = st.integers(-(2**63), 2**63)
op_ids = st.integers(0, 2**40)
legs = st.sampled_from((REQUEST, RESPONSE))


def edge_times(plan):
    """Every partition edge, with the ticks on either side of it."""
    edges = {0}
    for partition in plan.partitions:
        for edge in (partition.start, partition.heal):
            if edge is not None:
                edges.update((edge - 1, edge, edge + 1))
    return sorted(time for time in edges if time >= 0)


def bound_table(plan, seed):
    """The per-object table a transport bound to ``SERVERS`` single-object
    servers sends from."""
    transport = LossyTransport(plan, seed=seed)
    build_system(
        SERVERS,
        [(index, "register", None) for index in range(SERVERS)],
        transport=transport,
    )
    return transport._links


@given(
    plan=plans,
    seed=seeds,
    op_id=op_ids,
    leg=legs,
    time=st.integers(0, TIME_LIMIT + 1),
)
@settings(max_examples=300, deadline=None)
def test_plan_fate_matches_the_reference(plan, seed, op_id, leg, time):
    for server in range(SERVERS):
        for when in [time, *edge_times(plan)]:
            fate = plan.fate(seed, op_id, leg, server, when)
            assert tuple(fate) == reference_fate(
                plan, seed, op_id, leg, server, when
            ), (server, when)


@given(plan=plans, seed=seeds, data=st.data())
@settings(max_examples=150, deadline=None)
def test_transport_table_matches_the_reference(plan, seed, data):
    table = bound_table(plan, seed)
    times = edge_times(plan)
    for server in range(SERVERS):
        op_id = data.draw(op_ids)
        leg = data.draw(legs)
        entry = table[server]
        for when in times + [data.draw(st.integers(0, TIME_LIMIT + 1))]:
            expected = reference_fate(plan, seed, op_id, leg, server, when)
            if entry is None:
                # untouched server: the transport queues the message for
                # the next pump, which is what the reference decides.
                dropped, delay, duplicated, _, reordered, partitioned, _ = (
                    expected
                )
                assert not (dropped or duplicated or reordered)
                assert not partitioned and delay == 0
            else:
                assert tuple(draw_fate(entry, op_id, leg, when)) == expected


@given(p=probabilities, seed=seeds)
@settings(max_examples=300, deadline=None)
def test_thresholds_split_the_draws_where_the_probability_does(p, seed):
    # a random draw almost never lands on the boundary, so check it
    # directly: draw t - 1 passes the float test, draw t fails it.
    link = LinkFaults(
        drop=Drop(p),
        duplicate=Duplicate(p),
        delay=Delay(0, 1),  # never neutral, so always compiled
        reorder=Reorder(p),
    )
    faults = FaultPlan(default=link).compiled(0, seed)
    for threshold in (faults.drop, faults.duplicate, faults.reorder):
        assert 0 <= threshold <= 2**32
        assert threshold == 0 or threshold - 1 < p * 2**32
        assert not threshold < p * 2**32

"""Tests for typed identifiers."""

from repro.sim.ids import ClientId, ObjectId, OpId, ServerId


class TestIdentity:
    def test_equality_within_type(self):
        assert ClientId(3) == ClientId(3)
        assert ServerId(1) != ServerId(2)

    def test_no_cross_type_equality(self):
        assert ClientId(1) != ServerId(1)
        assert ObjectId(1) != OpId(1)

    def test_hashable_distinct_buckets(self):
        mapping = {ClientId(0): "c", ServerId(0): "s", ObjectId(0): "o"}
        assert mapping[ClientId(0)] == "c"
        assert mapping[ServerId(0)] == "s"
        assert len(mapping) == 3

    def test_ordering(self):
        assert ClientId(1) < ClientId(2)
        assert sorted([ServerId(2), ServerId(0), ServerId(1)]) == [
            ServerId(0),
            ServerId(1),
            ServerId(2),
        ]

    def test_str_forms(self):
        assert str(ClientId(4)) == "c4"
        assert str(ServerId(2)) == "s2"
        assert str(ObjectId(7)) == "b7"
        assert str(OpId(9)) == "op9"

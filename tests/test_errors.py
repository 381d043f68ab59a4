"""The typed error hierarchy and its CLI exit-code mapping."""

import pytest

from repro.cli import exit_code_for
from repro.errors import (
    BoundViolation,
    CellClaimLost,
    CodeVersionMismatch,
    GridFailed,
    InvalidConfig,
    NoMergeableResults,
    QueueError,
    QuorumUnavailable,
    ReproError,
    SessionClosed,
    ShardCapacityExceeded,
    StaleShardMap,
    TransportUnavailable,
    UnknownExperiment,
    WireDecodeError,
    WriterBoundExceeded,
)


class TestHierarchy:
    # (class, legacy builtin it must keep satisfying)
    CASES = [
        (WriterBoundExceeded, ValueError),
        (QuorumUnavailable, RuntimeError),
        (StaleShardMap, RuntimeError),
        (ShardCapacityExceeded, RuntimeError),
        (WireDecodeError, ValueError),
        (InvalidConfig, ValueError),
        (BoundViolation, ValueError),
        (SessionClosed, RuntimeError),
        (QueueError, RuntimeError),
        (CellClaimLost, RuntimeError),
        (CodeVersionMismatch, RuntimeError),
        (GridFailed, RuntimeError),
        (NoMergeableResults, ValueError),
        (UnknownExperiment, ValueError),
        (TransportUnavailable, RuntimeError),
    ]

    @pytest.mark.parametrize("error_class,legacy", CASES)
    def test_dual_inheritance(self, error_class, legacy):
        error = error_class("boom")
        assert isinstance(error, ReproError)
        assert isinstance(error, legacy)

    def test_one_root_catches_all(self):
        for error_class, _ in self.CASES:
            with pytest.raises(ReproError):
                raise error_class("boom")

    def test_legacy_handlers_still_work(self):
        # The shape the redesign must not break: pre-existing
        # ``except ValueError`` call sites around e.g. wire decoding.
        with pytest.raises(ValueError):
            raise WireDecodeError("truncated frame")
        with pytest.raises(RuntimeError):
            raise QuorumUnavailable("quorum gone")


class TestExitCodes:
    def test_each_class_gets_a_distinct_code(self):
        codes = [
            exit_code_for(error_class("x"))
            for error_class, _ in TestHierarchy.CASES
        ]
        assert codes == [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17]
        assert len(set(codes)) == len(codes)

    def test_queue_subclasses_keep_distinct_codes(self):
        # isinstance ordering: the claim-protocol subclasses must not
        # collapse into the generic QueueError code.
        assert exit_code_for(CellClaimLost("x")) == 12
        assert exit_code_for(CodeVersionMismatch("x")) == 13
        assert exit_code_for(QueueError("x")) == 11

    def test_queue_errors_catchable_as_family(self):
        for error_class in (CellClaimLost, CodeVersionMismatch):
            with pytest.raises(QueueError):
                raise error_class("boom")

    def test_registry_paths_raise_typed(self):
        from repro.experiments import get_experiment

        with pytest.raises(UnknownExperiment):
            get_experiment("NO-SUCH-EXPERIMENT")
        with pytest.raises(ValueError):  # legacy shape still works
            get_experiment("NO-SUCH-EXPERIMENT")

    def test_unknown_errors_fall_back_to_generic(self):
        assert exit_code_for(ReproError("x")) == 2
        assert exit_code_for(ValueError("x")) == 2

    def test_wire_decode_paths_raise_typed(self):
        from repro.net.wire import decode_binary_request, decode_request

        with pytest.raises(WireDecodeError):
            decode_request(b"not json\n")
        with pytest.raises(WireDecodeError):
            decode_binary_request(b"\x00garbage")

    def test_config_paths_raise_typed(self):
        # PR 8 migrations: the compat pattern means pre-existing
        # ``except ValueError``/``except RuntimeError`` handlers and
        # pytest.raises assertions keep passing unchanged.
        from repro.apps.kv import KVConfig, ReplicatedKVStore
        from repro.apps.shard.config import ShardConfig
        from repro.core import bounds

        with pytest.raises(InvalidConfig):
            ShardConfig(substrate="abacus")
        with pytest.raises(ValueError):  # legacy shape still works
            ShardConfig(n=1, f=3)
        with pytest.raises(InvalidConfig):
            KVConfig(k_writers=0)
        with pytest.raises(BoundViolation):
            bounds.register_upper_bound(0, 5, 2)
        with pytest.raises(ValueError):  # legacy shape still works
            bounds.min_servers(0)
        store = ReplicatedKVStore(KVConfig())
        session = store.session()
        session.close()
        with pytest.raises(SessionClosed):
            session.get("k")
        with pytest.raises(RuntimeError):  # legacy shape still works
            session.put("k", "v")

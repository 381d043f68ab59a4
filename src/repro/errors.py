"""Typed error hierarchy for the whole package.

Every failure the package signals derives from :class:`ReproError`, so
callers can catch one root and branch on type.  Each class carries its
CLI exit code as the ``exit_code`` class attribute
(:func:`repro.cli.exit_code_for` reads it); a subclass without its own
code inherits its parent's, and ``ReproError`` itself exits 2 like any
usage error.

Each concrete error *also* subclasses the builtin its call site
historically raised (``ValueError`` for caller mistakes,
``RuntimeError`` for environmental failures), so pre-existing
``except ValueError`` / ``except RuntimeError`` handlers — inside and
outside this repo — keep working unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of every typed failure raised by the package."""

    exit_code = 2


class WriterBoundExceeded(ReproError, ValueError, RuntimeError):
    """A write used a writer identity outside the provisioned bound.

    The register substrate provisions ``k`` writers per register
    (Table 1's ``kf + ceil(k/z)(f+1)`` economics are *per writer*);
    naming writer ``i >= k`` is a caller error, not a transient fault.
    A reader (no writer identity at all) invoking ``write`` is the same
    error; those sites raised ``RuntimeError`` before, hence that base.
    """

    exit_code = 3


class QuorumUnavailable(ReproError, RuntimeError):
    """An operation could not reach its quorum and did not complete.

    Raised when driving the simulation to quiescence stalls — more than
    ``f`` servers are crashed or unreachable, or the transport cannot
    deliver enough responses for the protocol to return.
    """

    exit_code = 4


class ShardCapacityExceeded(ReproError, RuntimeError):
    """A shard's pre-provisioned register slots are all assigned.

    Shards provision a fixed number of emulated registers up front
    (remote replica processes are built from a static placement
    snapshot); a new key arriving at a full shard cannot be placed.
    """

    exit_code = 6


class WireDecodeError(ReproError, ValueError):
    """A wire frame failed to decode (truncation, trailing bytes,
    unknown tags, malformed payloads).

    Raised by a segment decoder of ``repro.net.wire``
    (``decode_binary_requests`` / ``decode_binary_responses``),
    ``decoded`` holds what the frames before the bad one decoded to: the
    socket protocols still apply or deliver those before they drop the
    peer.
    """

    exit_code = 7
    #: the items a segment decoder decoded before the bad frame.
    decoded: "tuple | list" = ()


class TransportUnavailable(ReproError, RuntimeError):
    """The socket transport could not do what it was asked.

    Raised when the asyncio transport's cluster does not come up
    (listener bind or replica connection refused, start-up deadline
    passed) and when its replica control plane is misused
    (``crash_replica`` on externally hosted servers, ``restart_replica``
    of a replica that is not crashed), and by the sharded service's
    ``partition`` / ``heal`` for a shard whose transport cannot
    blackhole servers.  An operation that merely fails to reach a quorum
    is :class:`QuorumUnavailable`.
    """

    exit_code = 17


class InvalidConfig(ReproError, ValueError):
    """A caller passed parameters that are inconsistent or out of range.

    Raised by the eager ``__post_init__``/``validate`` checks of the
    frozen config dataclasses (``ShardConfig``, ``ShardServiceConfig``,
    ``TransportConfig``, …): a bad substrate name, zero writers,
    transports that do not match the shard count.  Also raised
    by every constructor or function that rejects its arguments: a
    non-positive load-generator rate, a Zipf exponent below zero, a
    non-positive scheduler weight, an unknown trace kind, a value too
    large for one wire frame, a KV operation kind other than ``put`` /
    ``get`` / ``delete``.  Caller error, detected before any
    simulation state changes.
    """

    exit_code = 8


class BoundViolation(ReproError, ValueError):
    """A parameter is outside the domain of one of the paper's bounds.

    The closed-form functions in :mod:`repro.core.bounds` implement
    Table 1 and Theorems 1-7, whose statements require ``k > 0``,
    ``f > 0`` and ``n >= 2f + 1``; calling them outside that domain is
    a caller error, not a property of the emulation.
    """

    exit_code = 9


class SessionClosed(ReproError, RuntimeError):
    """An operation was attempted on a closed session handle.

    Session handles (``ServiceSession``) are single-use
    context managers; using one after ``close()`` is a lifecycle bug in
    the caller, distinct from any transient quorum failure.
    """

    exit_code = 10


class QueueError(ReproError, RuntimeError):
    """A distributed experiment queue operation failed.

    Root of the :mod:`repro.exec.queue` failures: schema mismatches on a
    shared queue file, exporting an undrained queue, invalid lifecycle
    transitions.  The specific claim-protocol failures below subclass
    this, so ``except QueueError`` catches the whole family.
    """

    exit_code = 11


class CellClaimLost(QueueError):
    """A worker's claim on a cell disappeared before write-back.

    The claim CAS (``claimed`` + owner) failed: a stale-claim reset
    reopened the cell — or another worker already wrote it — while this
    worker was still executing.  The worker's result is discarded; the
    queue's copy is whatever the current owner writes.
    """

    exit_code = 12


class CodeVersionMismatch(QueueError):
    """A worker refused cells enqueued under different experiment code.

    Queue rows record the exec-engine code fingerprint
    (:func:`repro.exec.cache.experiment_code_version`) they were
    enqueued with; a worker whose checkout fingerprints differently
    must not execute them — its results would be silently incomparable,
    exactly the staleness the versioned cell keys prevent locally.
    """

    exit_code = 13


class GridFailed(ReproError, RuntimeError):
    """Every cell of an experiment grid failed.

    Raised by :func:`repro.exec.engine.run_experiment_grid` when no cell
    produced a result to merge; the per-cell tracebacks ride along in
    the message.  Partial failures do *not* raise — they merge the
    survivors and surface in the engine report.
    """

    exit_code = 14


class NoMergeableResults(ReproError, ValueError):
    """A result merge was attempted with no successful results.

    Raised by :func:`repro.exec.engine.merge_results` when every entry
    is ``None`` (all shards failed, or the caller filtered everything
    out) — a caller error distinct from the grid-level
    :class:`GridFailed`.
    """

    exit_code = 15


class UnknownExperiment(ReproError, ValueError):
    """An experiment id is not in the registry.

    Raised by :func:`repro.experiments.get_experiment` for ids (and
    function-name aliases) that resolve to nothing; the message lists
    the registered ids.
    """

    exit_code = 16


class ModelViolation(ReproError, ValueError, RuntimeError):
    """A step the step model (Appendix A.4) forbids was attempted.

    Raised by the simulation kernel and the base objects: a forced
    respond on an operation that is not pending or on a crashed object,
    an apply on a crashed object, an op kind the object does not
    support, a transport swapped in after operations were triggered,
    an unknown object, client or server id at the kernel's entry points
    (``trigger``, ``force_client_step``, ``crash_client``,
    ``crash_server``), and incremental scheduling state that diverged
    from its from-scratch oracle.  Raised by ``Kernel.run`` when a
    scheduler's ``pick`` returns an index outside the steps it was
    offered, and (as the subclass ``ReplayDivergence``) by a replay
    whose recorded step is not offered: one "step not offered"
    contract.  Raised by the client runtime for a step of a crashed
    client, a step with no runnable task, a ``spawn`` outside a
    high-level operation and an unknown high-level operation; by the
    sequential specs for an unknown operation; and by the covering
    tracker for ``end_phase`` with no active phase.  These sites raised
    ``ValueError`` or ``RuntimeError`` before, hence both bases (the
    unknown-id sites raised a bare ``KeyError``).
    """

    exit_code = 18


class LayoutSearchExhausted(ReproError, RuntimeError):
    """No capacitated layout fits within the search's server cap.

    Raised by :func:`repro.core.layout_opt.capacitated_layout` when no
    server count up to ``max_servers`` keeps every server at or below
    ``capacity`` registers.  With ``max_servers >= kf + f + 1`` this
    cannot happen, so it means the caller capped the search too low.
    The site raised ``RuntimeError`` before, hence that base.
    """

    exit_code = 19

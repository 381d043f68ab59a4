"""The Lemma 1 run construction, executable.

Lemma 1 asserts that for *every* f-tolerant WS-Safe obstruction-free
k-register emulation and every set ``F`` of ``f+1`` servers there exist
failure-free write-sequential runs ``r_1, ..., r_k`` — each extending the
previous with one complete high-level write by a fresh client under the
adversary ``Ad_i`` — such that after the i-th write

(a) ``|Cov(t_i)| >= i * f``  (at least ``i*f`` covered registers), and
(b) ``delta(Cov(t_i)) cap F = empty``  (none of them on ``F``),

plus the extended claims (Appendix C):

(c) ``|delta(Tr_i(t_i) \\ Cov(t_{i-1}))| > 2f``,
(d) ``|delta(Cov(t_i) \\ Cov(t_{i-1}))| >= f``,
(e) ``Cov(t_i) >= Cov(t_{i-1})``.

We cannot quantify over all algorithms, so :class:`Lemma1Runner` builds
these runs against a *given* emulation (our Algorithm 2 instance, or the
replicated-max-register construction) and verifies the claims, plus the
Lemma 2 invariants at every step.  Phase ``i``:

1. snapshot ``Cov(t_{i-1})`` / ``C(t_{i-1})`` and arm ``Ad_i``;
2. a fresh client invokes ``write(v_i)``; run a strongly fair scheduler
   over the non-vetoed actions until the write returns (Lemma 3 says it
   must — the blocked servers and old clients merely *appear* faulty);
3. keep draining non-blocked responds until the configuration stabilizes
   (the construction's extension making ``delta(Cov_i) cap F = empty``);
4. record and assert the claims.

Theorem 8 falls out as a free observation: point contention is 1
throughout (the runs are write-sequential), yet resource consumption
grows by ``f`` per write — no function of contention bounds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.adversary import AdversaryAdi
from repro.core.covering import CoveringTracker
from repro.errors import InvalidConfig
from repro.sim.events import EventListener
from repro.sim.ids import ServerId
from repro.sim.scheduling import RoundRobinScheduler

#: step bound on a phase's write and on its drain
MAX_STEPS_PER_PHASE = 500_000


@dataclass
class PhaseReport:
    """Measured quantities after phase ``i`` (time ``t_i``)."""

    index: int
    end_time: int
    covered: int
    covered_new: int
    covered_servers_in_F: int
    triggered_fresh_servers: int
    per_server_covered: "Dict[ServerId, int]"
    point_contention: int
    claim_a: bool
    claim_b: bool
    claim_c: bool
    claim_d: bool
    claim_e: bool


class _Lemma2Checker(EventListener):
    """Asserts Lemma 2's invariants after every step of an Ad_i phase."""

    def __init__(self, tracker: CoveringTracker):
        self.tracker = tracker
        self.enabled = True
        self.checks = 0

    def on_step(self, time: int) -> None:
        if self.enabled and self.tracker.phase is not None:
            self.tracker.check_lemma2()
            self.checks += 1


class Lemma1Runner:
    """Drive the Lemma 1 construction against an emulation instance.

    ``emulation_factory(scheduler)`` must build a fresh emulation exposing
    ``kernel``, ``object_map``, ``history`` and ``add_writer(index)``.
    The runner rewires the kernel's environment to ``Ad_i``.
    """

    def __init__(
        self,
        emulation_factory: "Callable[..., object]",
        k: int,
        f: int,
        F: "Optional[Set[ServerId]]" = None,
        check_lemma2: bool = True,
        scheduler=None,
    ):
        self.k = k
        self.f = f
        self.emulation = emulation_factory(
            scheduler=scheduler or RoundRobinScheduler()
        )
        if F is None:
            F = {ServerId(i) for i in range(f + 1)}
        if len(F) != f + 1:
            raise InvalidConfig(f"|F| must be f+1, got {len(F)}")
        if not F <= set(self.emulation.object_map.server_ids):
            raise InvalidConfig("F must be a subset of the servers")
        self.F = F
        self.tracker = CoveringTracker(self.emulation.object_map, f)
        # repro-lint: disable=R005 the tracker sees every phase of this single-use run
        self.emulation.kernel.add_listener(self.tracker)
        self.adversary = AdversaryAdi(self.tracker)
        self.emulation.kernel.environment = self.adversary
        self.checker: "Optional[_Lemma2Checker]" = None
        if check_lemma2:
            self.checker = _Lemma2Checker(self.tracker)
            # repro-lint: disable=R005 Lemma 2 checker audits the whole run, as above
            self.emulation.kernel.add_listener(self.checker)
        self.reports: "List[PhaseReport]" = []

    # -- one phase ----------------------------------------------------------

    def run_phase(self, index: int, value) -> PhaseReport:
        """Phase ``i``: one write by a fresh client under ``Ad_i``."""
        kernel = self.emulation.kernel
        object_map = self.emulation.object_map
        cov_prev = frozenset(self.tracker.cov())
        phase = self.tracker.start_phase(index, self.F, kernel.time)

        writer = self.emulation.add_writer(index - 1)
        writer.enqueue("write", value)

        def write_returned(_kernel) -> bool:
            return writer.idle and not writer.program

        result = kernel.run(
            max_steps=MAX_STEPS_PER_PHASE, until=write_returned
        )
        if not result.satisfied:
            raise AssertionError(
                f"phase {index}: write did not return under Ad_i"
                f" (run ended: {result.reason}) — Lemma 3 violated by the"
                " emulation or the adversary"
            )
        # Lemma 4 quantity at the write's return time t_r.
        tri_fresh = phase.tri - cov_prev
        claim_c = len(object_map.image(tri_fresh)) > 2 * self.f

        # Extension of the proof: drain all non-blocked responds so that
        # delta(Cov_i(t_i)) cap F = empty.
        drain = kernel.run(max_steps=MAX_STEPS_PER_PHASE)
        if drain.reason == "max_steps":
            raise AssertionError(f"phase {index}: drain did not stabilize")

        cov = self.tracker.cov()
        covi = cov - cov_prev
        cov_servers = object_map.image(cov)
        per_server: "Dict[ServerId, int]" = {}
        for oid in cov:
            sid = object_map.server_of(oid)
            per_server[sid] = per_server.get(sid, 0) + 1
        report = PhaseReport(
            index=index,
            end_time=kernel.time,
            covered=len(cov),
            covered_new=len(covi),
            covered_servers_in_F=len(cov_servers & self.F),
            triggered_fresh_servers=len(object_map.image(tri_fresh)),
            per_server_covered=per_server,
            point_contention=1,  # the run is write-sequential by design
            claim_a=len(cov) >= index * self.f,
            claim_b=not (cov_servers & self.F),
            claim_c=claim_c,
            claim_d=len(object_map.image(covi)) >= self.f,
            claim_e=cov_prev <= cov,
        )
        self.tracker.end_phase()
        self.reports.append(report)
        return report

    def run(self, values: "Optional[Sequence]" = None) -> "List[PhaseReport]":
        """Run all k phases; returns per-phase reports."""
        if values is None:
            values = [f"v{i}" for i in range(1, self.k + 1)]
        if len(values) != self.k:
            raise InvalidConfig(f"need {self.k} values, got {len(values)}")
        for index, value in enumerate(values, start=1):
            self.run_phase(index, value)
        return self.reports

    # -- summaries ---------------------------------------------------------------

    def covered_growth(self) -> "List[int]":
        """``|Cov(t_i)|`` per phase — the Figure 2 / Theorem 8 series."""
        return [report.covered for report in self.reports]

    def assert_all_claims(self) -> None:
        for report in self.reports:
            assert report.claim_a, f"claim (a) failed at phase {report.index}"
            assert report.claim_b, f"claim (b) failed at phase {report.index}"
            assert report.claim_c, f"claim (c) failed at phase {report.index}"
            assert report.claim_d, f"claim (d) failed at phase {report.index}"
            assert report.claim_e, f"claim (e) failed at phase {report.index}"

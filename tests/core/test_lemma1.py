"""Tests for the Lemma 1 run construction against our emulations."""

import pytest

from repro.core import bounds
from repro.core.abd import ABDEmulation
from repro.core.collect_maxreg import ReplicatedMaxRegisterEmulation
from repro.core.lemma1 import Lemma1Runner
from repro.core.ws_register import WSRegisterEmulation
from repro.sim.ids import ServerId


def _ws_factory(k, n, f):
    def factory(scheduler):
        return WSRegisterEmulation(k=k, n=n, f=f, scheduler=scheduler)

    return factory


def _replicated_factory(k, n, f):
    def factory(scheduler):
        return ReplicatedMaxRegisterEmulation(
            k=k, n=n, f=f, scheduler=scheduler
        )

    return factory


class TestAgainstAlgorithm2:
    @pytest.mark.parametrize(
        "k,n,f",
        [(2, 5, 2), (3, 7, 2), (4, 7, 2), (3, 4, 1), (6, 13, 3), (2, 9, 4)],
    )
    def test_all_claims_hold(self, k, n, f):
        runner = Lemma1Runner(_ws_factory(k, n, f), k=k, f=f)
        runner.run()
        runner.assert_all_claims()

    def test_covering_grows_by_f_per_write(self):
        k, n, f = 4, 7, 2
        runner = Lemma1Runner(_ws_factory(k, n, f), k=k, f=f)
        runner.run()
        assert runner.covered_growth() == [f * i for i in range(1, k + 1)]

    def test_coverage_avoids_F(self):
        k, n, f = 3, 7, 2
        F = {ServerId(4), ServerId(5), ServerId(6)}
        runner = Lemma1Runner(_ws_factory(k, n, f), k=k, f=f, F=F)
        reports = runner.run()
        assert all(r.covered_servers_in_F == 0 for r in reports)

    def test_lemma2_invariants_checked(self):
        k, n, f = 2, 5, 2
        runner = Lemma1Runner(_ws_factory(k, n, f), k=k, f=f)
        runner.run()
        assert runner.checker is not None
        assert runner.checker.checks > 0

    def test_point_contention_stays_one(self):
        """Theorem 8's premise: the bad runs have point contention 1."""
        k, n, f = 3, 7, 2
        runner = Lemma1Runner(_ws_factory(k, n, f), k=k, f=f)
        reports = runner.run()
        assert all(r.point_contention == 1 for r in reports)

    def test_final_covering_matches_kf(self):
        """After k writes, exactly kf registers are covered — the lower
        bound's accounting is tight against Algorithm 2."""
        k, n, f = 5, 6, 2  # the Figure 1 parameters
        runner = Lemma1Runner(_ws_factory(k, n, f), k=k, f=f)
        runner.run()
        assert runner.covered_growth()[-1] == k * f

    def test_writes_touch_more_than_2f_servers(self):
        """Lemma 4: each write triggers on > 2f fresh servers."""
        k, n, f = 3, 7, 2
        runner = Lemma1Runner(_ws_factory(k, n, f), k=k, f=f)
        reports = runner.run()
        assert all(r.triggered_fresh_servers > 2 * f for r in reports)

    def test_minimum_servers_pin_k_registers_per_server(self):
        """At n = 2f+1 the construction covers k registers on every
        server it covers at all (the Theorem 6 regime)."""
        k, f = 3, 2
        runner = Lemma1Runner(_ws_factory(k, 2 * f + 1, f), k=k, f=f)
        reports = runner.run()
        runner.assert_all_claims()
        final = reports[-1].per_server_covered
        assert final and all(count >= k for count in final.values())


class TestAgainstMaxRegisterSubstrate:
    def test_claim_a_fails_once_i_f_exceeds_n(self):
        """Ad_i cannot force covering growth on ABD's max-registers: the
        covered count stays at most n, so claim (a) (>= i*f) fails."""
        k, f = 6, 2
        n = 2 * f + 1

        def factory(scheduler):
            return ABDEmulation(n=n, f=f, scheduler=scheduler)

        # Lemma 2's invariants presuppose fresh objects to cover, which
        # the n max-registers run out of: the inline checker is off.
        runner = Lemma1Runner(factory, k=k, f=f, check_lemma2=False)
        reports = runner.run()
        assert any(not r.claim_a for r in reports)
        assert all(r.claim_a for r in reports if r.index * f <= n)


class TestAgainstReplicatedMaxRegister:
    def test_claims_hold_at_minimum_servers(self):
        k, f = 3, 2
        n = 2 * f + 1
        runner = Lemma1Runner(_replicated_factory(k, n, f), k=k, f=f)
        runner.run()
        runner.assert_all_claims()

    def test_theorem6_every_non_F_server_covered_k_times(self):
        """Theorem 6: at n = 2f+1, each server outside F accumulates k
        covered registers (hence every server must store >= k)."""
        k, f = 4, 1
        n = 2 * f + 1
        F = {ServerId(1), ServerId(2)}
        runner = Lemma1Runner(_replicated_factory(k, n, f), k=k, f=f, F=F)
        reports = runner.run()
        final = reports[-1].per_server_covered
        for server_index in range(n):
            sid = ServerId(server_index)
            if sid in F:
                assert final.get(sid, 0) == 0
            else:
                assert final.get(sid, 0) >= k


class TestRunnerValidation:
    def test_bad_F_size_rejected(self):
        with pytest.raises(ValueError):
            Lemma1Runner(
                _ws_factory(2, 5, 2), k=2, f=2, F={ServerId(0)}
            )

    def test_F_must_be_subset_of_servers(self):
        with pytest.raises(ValueError):
            Lemma1Runner(
                _ws_factory(2, 5, 2),
                k=2,
                f=2,
                F={ServerId(7), ServerId(8), ServerId(9)},
            )

    def test_value_count_validated(self):
        runner = Lemma1Runner(_ws_factory(2, 5, 2), k=2, f=2)
        with pytest.raises(ValueError):
            runner.run(values=["only-one"])

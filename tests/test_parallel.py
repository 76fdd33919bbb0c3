import multiprocessing
import os
import sys
import threading

import pytest

from igw import ExtendedCount, IGWParams, OffspringLaw, death_prob_interval, mc_death_prob, parse_law_spec
import igw.exact_dist as exact_dist
import igw.parallel as parallel


class TestUsableCpus:
    def test_affinity_mask_first(self, monkeypatch):
        # a process pinned to one CPU of two may use one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert parallel.usable_cpus() == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, usable in ((2, 2), (64, 64), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert parallel.usable_cpus() == usable, count

    def test_this_process(self):
        want = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        assert parallel.usable_cpus() == want


class TestFork:
    def test_inline_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        monkeypatch.setattr(parallel, "_helper", None)
        join = parallel.fork(threading.current_thread)
        assert join() is threading.current_thread() and parallel._helper is None

    def test_each_join_gets_its_own_result(self, monkeypatch):
        # four callers fork at once, with thread switches forced often, and
        # join out of order: a result handed to the wrong join shows
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        got = {}

        def caller(c):
            joins = [parallel.fork(pow, k, c) for k in range(200)]
            got[c] = [join() for join in reversed(joins)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(c,)) for c in range(2, 6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {c: [k**c for k in reversed(range(200))] for c in range(2, 6)}
        with pytest.raises(ZeroDivisionError):
            parallel.fork(divmod, 1, 0)()
        assert parallel.fork(threading.current_thread)().name == "igw-helper"


def _compose_in_child(want: bytes) -> None:
    exact_dist._table.cache_clear()
    got = exact_dist.total_progeny_dist(parse_law_spec("binary:0.6"), 40)
    if got.atoms.tobytes() != want:
        raise SystemExit(1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")
def test_forked_child_starts_its_own_helper(monkeypatch):
    # the child inherits the record of this process's helper but not its
    # thread: a fork handed to that record would never be joined
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    assert parallel.fork(os.getpid)() == os.getpid() and parallel._helper[0] == os.getpid()
    want = exact_dist.total_progeny_dist(parse_law_spec("binary:0.6"), 40).atoms.tobytes()
    child = multiprocessing.get_context("fork").Process(target=_compose_in_child, args=(want,))
    child.start()
    child.join(timeout=30)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0


def test_intervals_and_monte_carlo_start_no_thread(monkeypatch):
    # kernel rows at the default caps never split, and Monte Carlo composes
    # no law, so neither starts the helper even where two CPUs are usable
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "_helper", None)
    before = threading.active_count()
    params = IGWParams(OffspringLaw.binary(0.55), 0.83)
    assert death_prob_interval(1, params).width >= 0.0
    assert mc_death_prob(2, params, 2000, 64, ExtendedCount.exact(10**6), master_seed=3).estimate.replicas == 2000
    assert threading.active_count() == before and parallel._helper is None

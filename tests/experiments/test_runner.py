"""The parallel runner must change wall time only, never results.

Covers the typed Job/run_jobs fan-out machinery (ordering, the
plan_execution serial-degradation rules, REPRO_WORKERS validation, the
logged pool-failure fallback) and the acceptance criterion for the whole
optimisation effort: a short RUBiS pair renders bit-identical paper
artefacts whether it runs serial or parallel.
"""

import logging
import os

import pytest

from repro.apps.rubis import RubisConfig
from repro.experiments import render_figure2, render_figure4, render_table2, run_rubis_pair
from repro.parallel import (
    _IN_WORKER_ENV,
    PARALLEL_ENV,
    WORKERS_ENV,
    Job,
    default_workers,
    plan_execution,
    run_jobs,
)
from repro.sim import ms, seconds


def square(x):
    return x * x


def whoami(tag):
    return (tag, os.getpid(), _IN_WORKER_ENV in os.environ)


class TestSweep:
    def test_results_in_submission_order(self):
        results = run_jobs([Job(square, args=(i,)) for i in range(8)])
        assert results == [i * i for i in range(8)]

    def test_kwargs_and_labels(self):
        jobs = [Job(square, kwargs={"x": 3}, label="a"), Job(square, args=(4,))]
        assert run_jobs(jobs) == [9, 16]
        assert run_jobs(job for job in jobs) == [9, 16]
        assert repr(jobs[0]) == "Job(a)"

    def test_sweep_of_points(self):
        points = [{"x": 2}, {"x": 5}]
        assert run_jobs([Job(square, kwargs=point) for point in points]) == [4, 25]
        assert run_jobs(Job(square, kwargs=point) for point in points) == [4, 25]

    def test_serial_when_single_job(self):
        assert run_jobs([Job(square, args=(7,))]) == [49]

    def test_max_workers_one_forces_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        parent = os.getpid()
        results = run_jobs([Job(whoami, args=(i,)) for i in range(3)], max_workers=1)
        assert all(pid == parent and not worker for _, pid, worker in results)

    def test_parallel_env_zero_forces_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        monkeypatch.setenv(PARALLEL_ENV, "0")
        assert not plan_execution(2).parallel
        parent = os.getpid()
        results = run_jobs([Job(whoami, args=(i,)) for i in range(3)])
        assert all(pid == parent for _, pid, _ in results)

    def test_nested_fanout_goes_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        monkeypatch.setenv(_IN_WORKER_ENV, "1")
        assert not plan_execution(2).parallel
        assert not plan_execution(4)
        assert plan_execution(4).reason == "nested inside a pool worker"

    def test_forced_pool_runs_in_workers(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        if not plan_execution(2).parallel:
            pytest.skip("parallelism unavailable in this environment")
        results = run_jobs([Job(whoami, args=(i,)) for i in range(2)])
        tags = [tag for tag, _, _ in results]
        assert tags == [0, 1]
        # Either arms genuinely landed in marked worker processes, or the
        # pool failed and the serial fallback ran them here — both give
        # correct results; only the former marks the worker env.
        parent = os.getpid()
        for _, pid, in_worker in results:
            assert in_worker == (pid != parent)

    def test_unpicklable_job_falls_back_and_logs_once(self, monkeypatch, caplog):
        monkeypatch.setenv(WORKERS_ENV, "2")
        import repro.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "_logged_fallbacks", set())
        jobs = [Job(lambda: 10), Job(lambda: 20)]  # lambdas: unpicklable
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            assert run_jobs(jobs) == [10, 20]
            first = [r for r in caplog.records if "serially" in r.message]
            assert run_jobs(jobs) == [10, 20]
            again = [r for r in caplog.records if "serially" in r.message]
        # The fallback is no longer silent, but each cause logs only once.
        assert len(first) == 1
        assert len(again) == 1


class TestWorkerBudget:
    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert default_workers() == 3
        monkeypatch.delenv(WORKERS_ENV)
        assert default_workers() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", ["garbage", "0", "-2", "1.5", " "])
    def test_invalid_workers_env_rejected_at_parse_time(self, monkeypatch, bad):
        monkeypatch.setenv(WORKERS_ENV, bad)
        with pytest.raises(ValueError, match=WORKERS_ENV):
            default_workers()

    def test_empty_workers_env_means_unset(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "")
        assert default_workers() == (os.cpu_count() or 1)


class TestExecutionPlan:
    def test_single_job_is_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        plan = plan_execution(1)
        assert (plan.parallel, plan.workers) == (False, 1)
        assert plan.reason == "fewer than two jobs"

    def test_parallel_plan_caps_workers_at_jobs(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        monkeypatch.delenv(PARALLEL_ENV, raising=False)
        monkeypatch.delenv(_IN_WORKER_ENV, raising=False)
        plan = plan_execution(3)
        assert plan.parallel and plan.workers == 3

    def test_parallel_env_reason(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        monkeypatch.setenv(PARALLEL_ENV, "0")
        assert plan_execution(4).reason == f"{PARALLEL_ENV}=0"

    def test_capped_budget_reason(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert plan_execution(4, max_workers=1).reason == "worker budget capped at 1"


@pytest.fixture(scope="module")
def tiny_config():
    return RubisConfig(
        num_sessions=12,
        requests_per_session=5,
        think_time_mean=ms(150),
        warmup=seconds(1),
    )


def _render_all(pair):
    return render_figure2(pair) + render_figure4(pair) + render_table2(pair)


class TestPairBitReproducibility:
    """The acceptance test: artefacts identical across every execution mode."""

    def test_serial_and_parallel_paths_agree(self, tiny_config, monkeypatch):
        kwargs = dict(duration=seconds(6), seed=7, config=tiny_config)
        with monkeypatch.context() as serial:
            serial.setenv(PARALLEL_ENV, "0")
            reference = _render_all(run_rubis_pair(**kwargs))
        parallel = _render_all(run_rubis_pair(**kwargs))
        assert parallel == reference, "parallel execution changed results"

"""The experiment table and the ``trace`` CLI path.

Covers the table's contract (names, lookup, which experiments ``all``
prints) and smokes ``python -m repro trace`` end to end: a tiny traced
run must write Chrome-trace JSON that passes schema validation.
"""

import json

import pytest

from repro.__main__ import main
from repro.apps.rubis import RubisConfig
from repro.experiments import (
    EXPERIMENTS,
    get,
    render_control_loops,
    run_traced_rubis,
)
from repro.obs import validate_chrome_trace
from repro.sim import ms, seconds
from repro.testbed import TestbedConfig


class TestRegistry:
    def test_cli_experiments_registered(self):
        assert {"rubis", "mplayer-qos", "buffer-trigger", "power-cap",
                "trace"} <= {exp.name for exp in EXPERIMENTS}

    def test_unknown_name_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="rubis"):
            get("no-such-experiment")

    def test_trace_opts_out_of_all(self):
        assert get("trace").in_all is False
        # `all` prints RESULTS.txt: the paper's experiments and nothing
        # else. Diagnostics, fault injection, the extensions and the
        # scale sweeps stay out; GOLDEN.txt pins them.
        assert {exp.name for exp in EXPERIMENTS if exp.in_all} == {
            "rubis", "mplayer-qos", "buffer-trigger",
        }


TINY = RubisConfig(
    num_sessions=10,
    requests_per_session=4,
    think_time_mean=ms(300),
    warmup=seconds(2),
    testbed=TestbedConfig(seed=2),
)


class TestTraceCommand:
    def test_cli_trace_writes_valid_chrome_json(self, tmp_path, capsys,
                                                monkeypatch):
        destination = tmp_path / "trace.json"
        # Shrink the captured run so the smoke stays fast.
        monkeypatch.setattr(
            "repro.experiments.trace.run_traced_rubis",
            lambda duration, seed, destination: run_traced_rubis(
                duration=duration, seed=seed, destination=destination,
                config=TINY,
            ),
        )
        assert main(["trace", "--out", str(destination),
                     "--duration", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Control-loop latency breakdown" in out
        assert "span-linked" in out
        document = json.loads(destination.read_text())
        validate_chrome_trace(document)
        assert document["otherData"]["experiment"] == "rubis"
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_render_mentions_every_stage(self, tmp_path):
        result = run_traced_rubis(
            duration=seconds(4), seed=2,
            destination=str(tmp_path / "trace.json"), config=TINY,
        )
        rendered = render_control_loops(result)
        for stage in ("classify-send", "ring", "wire", "handle", "apply"):
            assert stage in rendered
        assert f"{result.events_written} Chrome events" in rendered


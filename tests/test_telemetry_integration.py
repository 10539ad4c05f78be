"""End-to-end telemetry: instrumented runs, the CLI, kill-and-resume.

The acceptance-criterion drills:

* an instrumented MRHS run produces the paper's chunk → phase → kernel
  span tree and a roofline join covering m ∈ {1, 4, 8};
* ``simulate --die-after`` + ``resume`` into the same telemetry
  directory yields one coherent trace and monotonically continuing
  counters (restored from the checkpoint, not reset).
"""

import json

import pytest

import repro.telemetry as _telemetry
from repro.cli import main
from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.stokesian.dynamics import SDParameters
from repro.stokesian.packing import random_configuration
from repro.telemetry import TelemetryHub, read_trace
from repro.telemetry.hub import METRICS_FILENAME, TRACE_FILENAME


@pytest.fixture(autouse=True)
def _no_global_hub_leak():
    yield
    _telemetry.uninstall()


def _run_chunk(hub, m, seed=0, n=24, phi=0.2):
    system = random_configuration(n, phi, rng=seed)
    driver = MrhsStokesianDynamics(
        system, SDParameters(), MrhsParameters(m=m), rng=seed + 1,
        telemetry=hub,
    )
    driver.run_chunk(m)
    return driver


class TestInstrumentedRun:
    def test_span_tree_matches_paper_phases(self, tmp_path):
        hub = TelemetryHub(tmp_path / "run")
        _run_chunk(hub, m=4)
        hub.close()
        events = read_trace(tmp_path / "run" / TRACE_FILENAME)
        by_id = {e.span_id: e for e in events}
        names = {e.name for e in events}
        # Chunk-level phases (Algorithm 2) and step-level phases
        # (Algorithm 1) both present.
        assert {"chunk", "Construct R0", "Cheb vectors", "Calc guesses"} <= names
        assert {"step", "Construct R", "1st solve", "2nd solve"} <= names
        (chunk,) = [e for e in events if e.name == "chunk"]
        assert chunk.attrs["m"] == 4
        steps = [e for e in events if e.name == "step"]
        assert len(steps) == 4
        assert all(e.parent_id == chunk.span_id for e in steps)
        solves = [e for e in events if e.name == "1st solve"]
        assert all(by_id[e.parent_id].name == "step" for e in solves)
        # Kernel events carry the structure the roofline join needs.
        kernels = [e for e in events if e.name in ("gspmv", "spmv")]
        assert kernels
        assert all(
            {"nb", "nnzb", "b", "m"} <= set(e.attrs) for e in kernels
        )

    def test_roofline_covers_m_1_4_8_from_real_run(self, tmp_path):
        from repro.telemetry.report import RooflineReport, resolve_machine

        hub = TelemetryHub(tmp_path / "run")
        _run_chunk(hub, m=4, seed=0)
        _run_chunk(hub, m=8, seed=5)
        hub.close()
        report = RooflineReport.from_run(
            tmp_path / "run", resolve_machine("wsm")
        )
        # Single-vector CG solves give m=1; the block solves give the
        # chunk widths.
        assert {1, 4, 8} <= set(report.ms)
        for row in report.rows:
            assert row.calls > 0
            assert row.measured_mean > 0
            assert row.predicted > 0

    def test_metrics_json_written_on_close(self, tmp_path):
        hub = TelemetryHub(tmp_path / "run")
        _run_chunk(hub, m=4)
        hub.close()
        doc = json.loads(
            (tmp_path / "run" / METRICS_FILENAME).read_text(encoding="utf-8")
        )
        assert doc["counters"]["steps.completed"] == 4.0
        assert doc["counters"]["chunks.completed"] == 1.0
        assert any(
            k.startswith("gspmv.seconds") for k in doc["counters"]
        )


class TestCliTelemetry:
    def test_simulate_trace_report_roundtrip(self, tmp_path, capsys):
        run = tmp_path / "run"
        rc = main([
            "simulate", "--n", "24", "--phi", "0.2", "--m", "4",
            "--chunks", "1", "--telemetry-dir", str(run),
        ])
        assert rc == 0
        assert _telemetry.active_hub is None  # CLI uninstalled its hub
        capsys.readouterr()

        assert main(["trace", str(run)]) == 0
        out = capsys.readouterr().out
        assert "chunk" in out and "step" in out
        assert "phase" in out  # totals table

        assert main(["report", str(run), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {1, 4} <= {r["m"] for r in doc["roofline"]["rows"]}
        assert doc["metrics"]["counters"]["steps.completed"] == 4.0


class TestKillAndResume:
    def test_one_coherent_trace_with_monotonic_counters(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        run = tmp_path / "run"
        rc = main([
            "simulate", "--n", "24", "--phi", "0.2", "--m", "4",
            "--chunks", "2", "--seed", "3",
            "--checkpoint-every", "2", "--checkpoint-dir", str(ck),
            "--telemetry-dir", str(run), "--die-after", "5",
        ])
        assert rc == 3  # simulated kill
        killed_events = read_trace(run / TRACE_FILENAME)
        assert any(e.attrs.get("killed") for e in killed_events)
        doc = json.loads(
            (run / METRICS_FILENAME).read_text(encoding="utf-8")
        )
        completed_at_kill = doc["counters"]["steps.completed"]
        assert completed_at_kill == 5.0
        capsys.readouterr()

        rc = main([
            "resume", str(ck), "--steps", "8", "--telemetry-dir", str(run),
        ])
        assert rc == 0
        events = read_trace(run / TRACE_FILENAME)
        # One coherent trace: the resumed segment appended to the
        # killed one, every line parsing, and strictly more spans.
        assert len(events) > len(killed_events)
        assert events[: len(killed_events)] == killed_events

        doc = json.loads(
            (run / METRICS_FILENAME).read_text(encoding="utf-8")
        )
        # Counters restored from the step-4 checkpoint and advanced to
        # the global step target — monotonic continuation, not a reset.
        assert doc["counters"]["steps.completed"] == 8.0
        assert doc["counters"]["chunks.completed"] == 2.0
        gspmv_calls = [
            v for k, v in doc["counters"].items()
            if k.startswith("gspmv.calls{")
        ]
        assert gspmv_calls and sum(gspmv_calls) > 0

    def test_resumed_trace_has_unique_ids_and_nested_steps(self, tmp_path, capsys):
        """Both processes append to one trace: no span id is used twice,
        each stamps its own run id, and the resumed pending chunk gets a
        ``resumed`` chunk span that its remaining steps nest under."""
        from benchmarks.check_trace import trace_problems

        ck, run = str(tmp_path / "ck"), tmp_path / "run"
        assert main([
            "simulate", "--n", "40", "--m", "4", "--chunks", "2",
            "--die-after", "5", "--checkpoint-every", "1",
            "--checkpoint-dir", ck, "--telemetry-dir", str(run),
        ]) == 3
        killed = len(read_trace(run / TRACE_FILENAME))
        assert main(["resume", ck, "--steps", "8", "--telemetry-dir", str(run)]) == 0
        capsys.readouterr()
        spans = read_trace(run / TRACE_FILENAME)
        assert trace_problems(spans) == []
        first = {s.attrs["run_id"] for s in spans[:killed]}
        second = {s.attrs["run_id"] for s in spans[killed:]}
        assert len(first) == len(second) == 1 and first != second
        (resumed,) = [s for s in spans if s.attrs.get("resumed")]
        assert resumed.name == "chunk" and resumed.attrs["chunk"] == 1
        late = [s for s in spans if s.name == "step" and s.attrs["step"] >= 5]
        assert [s.attrs["step"] for s in late] == [5, 6, 7]
        assert all(s.parent_id == resumed.span_id for s in late)

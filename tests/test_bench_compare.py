"""The perf-regression sentinel (``benchmarks/compare.py``).

The sentinel's contract: a committed baseline compared against itself
is always clean; a genuine slowdown injected into the fresh report is
caught; cross-machine timing jitter under the loose default thresholds
is not.  Direction comes from the key name (``*_s`` lower-is-better,
``speedup`` higher-is-better, ``*_pct`` by absolute points), so these
tests pin the classification table too — a key the sentinel silently
stops watching is itself a regression.
"""

import copy
import json
from pathlib import Path

import pytest

from benchmarks.compare import (
    classify,
    compare_documents,
    flatten_metrics,
    main as compare_main,
)

REPO = Path(__file__).resolve().parents[1]
BASELINES = [
    REPO / "benchmarks" / "out" / "BENCH_kernels.json",
    REPO / "benchmarks" / "out" / "BENCH_service.json",
    REPO / "benchmarks" / "out" / "BENCH_observability.json",
]


def _doc(metrics, passed=True, name="synthetic"):
    return {"name": name, "passed": passed, "metrics": metrics}


def _scale_timings(doc, factor):
    """Scale every lower-is-better timing leaf of ``doc['metrics']``."""
    scaled = copy.deepcopy(doc)

    def walk(node, prefix):
        if isinstance(node, dict):
            for k, v in node.items():
                key = f"{prefix}.{k}" if prefix else str(k)
                if isinstance(v, dict):
                    walk(v, key)
                elif isinstance(v, float) and not isinstance(v, bool):
                    if classify(key) == ("timing", +1):
                        node[k] = v * factor

    walk(scaled["metrics"], "")
    return scaled


class TestClassification:
    def test_direction_table(self):
        assert classify("timings_s.256.blocked") == ("timing", +1)
        assert classify("step_time_s") == ("timing", +1)
        assert classify("checkpoint_seconds") == ("timing", +1)
        assert classify("observability_overhead_pct") == ("pct", +1)
        assert classify("speedup.cgen") == ("free", -1)
        assert classify("stream_bw_gbs") == ("free", -1)
        assert classify("deviation_max") == ("free", +1)
        assert classify("events_dropped") == ("free", +1)
        assert classify("n_particles") is None  # unclassified: ignored

    def test_flatten_keeps_numeric_and_bool_leaves(self):
        doc = _doc(
            {"a": {"b_s": 1.5, "note": "text"}, "ok": True, "n": 3}
        )
        flat = flatten_metrics(doc)
        assert flat == {"a.b_s": 1.5, "ok": True, "n": 3}


class TestCommittedBaselines:
    @pytest.mark.parametrize(
        "path", BASELINES, ids=[p.stem for p in BASELINES]
    )
    def test_baseline_vs_itself_is_clean(self, path):
        assert path.exists(), f"committed baseline missing: {path}"
        doc = json.loads(path.read_text())
        assert compare_documents(doc, doc) == []

    def test_injected_kernel_slowdown_fails_tight_gate(self):
        """The acceptance drill: a 20% timing slowdown against the
        committed kernel baseline must trip the same-machine gate."""
        base = json.loads(BASELINES[0].read_text())
        slowed = _scale_timings(base, 1.2)
        problems = compare_documents(
            base, slowed, timing_threshold=0.15
        )
        assert problems, "20% slowdown escaped the sentinel"
        assert all("->" in p for p in problems)

    def test_cross_machine_jitter_passes_default_gate(self):
        """The same 20% move is inside the loose cross-machine default
        (0.50) — committed baselines come from other hardware."""
        base = json.loads(BASELINES[0].read_text())
        assert compare_documents(base, _scale_timings(base, 1.2)) == []


class TestDirections:
    def test_speedup_drop_fails(self):
        base = _doc({"speedup": {"m8": 3.0}})
        bad = _doc({"speedup": {"m8": 2.0}})
        ok = _doc({"speedup": {"m8": 2.8}})
        assert compare_documents(base, bad)
        assert compare_documents(base, ok) == []

    def test_pct_keys_compare_by_absolute_points(self):
        base = _doc({"overhead_pct": 1.9})
        assert compare_documents(base, _doc({"overhead_pct": 2.3})) == []
        problems = compare_documents(base, _doc({"overhead_pct": 6.0}))
        assert problems and "points" in problems[0]

    def test_boolean_must_not_flip_true_to_false(self):
        base = _doc({"converged": True, "was_broken": False})
        bad = _doc({"converged": False, "was_broken": False})
        fixed = _doc({"converged": True, "was_broken": True})
        assert any("flipped" in p for p in compare_documents(base, bad))
        assert compare_documents(base, fixed) == []

    def test_fresh_passed_false_always_fails(self):
        doc = _doc({"step_time_s": 1.0})
        problems = compare_documents(doc, _doc({"step_time_s": 1.0}, passed=False))
        assert problems == ["fresh report carries passed=false"]

    def test_timing_jitter_under_absolute_floor_ignored(self):
        base = _doc({"tiny_time_s": 5e-5})
        # +80% relative but only 4e-5 s absolute: below the floor.
        assert compare_documents(base, _doc({"tiny_time_s": 9e-5})) == []
        # The same ratio above the floor fails.
        assert compare_documents(
            _doc({"big_time_s": 5e-3}), _doc({"big_time_s": 9e-3})
        )

    def test_zero_baseline_skipped(self):
        base = _doc({"retries": 0})
        assert compare_documents(base, _doc({"retries": 5})) == []

    def test_regression_in_new_key_only_is_ignored(self):
        # Unshared keys cannot regress: the sentinel diffs, not audits.
        base = _doc({"step_time_s": 1.0})
        fresh = _doc({"step_time_s": 1.0, "new_time_s": 99.0})
        assert compare_documents(base, fresh) == []


class TestMainExitCodes:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        doc = _doc({"step_time_s": 1.0, "speedup": 2.0})
        rc = compare_main(
            [
                "--baseline", self._write(tmp_path / "b.json", doc),
                "--fresh", self._write(tmp_path / "f.json", doc),
            ]
        )
        assert rc == 0
        assert "no regressions (2 shared keys)" in capsys.readouterr().out

    def test_regression_exits_one_and_lists_on_stderr(self, tmp_path, capsys):
        base = _doc({"speedup": 3.0})
        fresh = _doc({"speedup": 1.0})
        rc = compare_main(
            [
                "--baseline", self._write(tmp_path / "b.json", base),
                "--fresh", self._write(tmp_path / "f.json", fresh),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "PERF REGRESSION" in err and "speedup" in err

    def test_unusable_input_exits_two(self, tmp_path, capsys):
        good = self._write(tmp_path / "b.json", _doc({}))
        bad = tmp_path / "notareport.json"
        bad.write_text(json.dumps({"no": "metrics"}))
        rc = compare_main(["--baseline", good, "--fresh", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_host_probes_are_printed_not_gated(self, tmp_path, capsys):
        """``machine.*`` keys are the host's own quick probes: a halved
        flop rate is shown but fails nothing, while a kernel ratio
        beside it is still gated at the 15% default."""
        base = _doc(
            {
                "machine": {"flop_rate": 1.9e9, "stream_bw": 3.0e10},
                "speedup_vs_scipy": {"8": 7.5},
            }
        )
        slow_host = _doc(
            {
                "machine": {"flop_rate": 1.0e9, "stream_bw": 2.0e10},
                "speedup_vs_scipy": {"8": 7.4},
            }
        )
        assert compare_documents(base, slow_host) == []
        rc = compare_main(
            [
                "--baseline", self._write(tmp_path / "b.json", base),
                "--fresh", self._write(tmp_path / "f.json", slow_host),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "machine.flop_rate: 1.9e+09 -> 1e+09 (host probe, not gated)" in out
        assert "machine.stream_bw: 3e+10 -> 2e+10 (host probe, not gated)" in out
        slow_kernel = copy.deepcopy(slow_host)
        slow_kernel["metrics"]["speedup_vs_scipy"]["8"] = 6.0
        problems = compare_documents(base, slow_kernel)
        assert len(problems) == 1 and problems[0].startswith("speedup_vs_scipy.8")

    def test_threshold_flags_reach_the_gate(self, tmp_path):
        base = _doc({"step_time_s": 1.0})
        fresh = _doc({"step_time_s": 1.2})
        b = self._write(tmp_path / "b.json", base)
        f = self._write(tmp_path / "f.json", fresh)
        assert compare_main(["--baseline", b, "--fresh", f]) == 0
        assert (
            compare_main(
                ["--baseline", b, "--fresh", f, "--timing-threshold", "0.15"]
            )
            == 1
        )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))

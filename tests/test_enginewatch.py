"""The engine watchdog: ladder, verification, quarantine, hardening.

Unit coverage of :mod:`repro.sparse.enginewatch` plus the surgical
integration points: the registry's watched dispatch, the hardened cgen
compile/load pipeline, the autotune verdict-cache hygiene, the
perfmodel quarantine filter, and the report table.  End-to-end fault
campaigns (bit-identical trajectories through injected kernel faults)
live in ``test_engine_campaigns.py``.
"""

import json
import warnings

import numpy as np
import pytest

import repro.telemetry as _telemetry
from repro.health.invariants import Severity
from repro.health.monitor import HealthMonitor
from repro.perfmodel import EngineProfile
from repro.perfmodel.engines import trusted_profiles
from repro.resilience.faults import ENGINE_FAULT_SITES, FaultSpec, armed
from repro.sparse import available_engines, bcrs_to_scipy
from repro.sparse.autotune import (
    CACHE_FILENAME,
    SCHEMA_VERSION,
    AutoSelector,
    _entry_checksum,
    host_fingerprint,
)
from repro.sparse.enginewatch import (
    DEFAULT_VERIFY_CADENCE,
    FALLBACK_LADDER,
    REFERENCE_ENGINE,
    CompileError,
    EngineWatch,
    KernelLoadError,
    LadderExhausted,
    get_engine_watch,
    reference_rows,
    shape_class,
)
from repro.sparse.kernels import KernelRegistry, kernels_cgen
from repro.telemetry import TelemetryHub
from repro.telemetry.report import render_engine_table
from tests.conftest import random_bcrs

AVAILABLE = available_engines()


@pytest.fixture
def A():
    return random_bcrs(20, 5.0, seed=3)


@pytest.fixture
def X(A):
    return np.random.default_rng(4).standard_normal((A.n_cols, 4))


def reference(A, X):
    return bcrs_to_scipy(A) @ X


# ----------------------------------------------------------------------
# ladder and quarantine
# ----------------------------------------------------------------------
class TestLadder:
    def test_ladder_order_and_reference(self):
        assert FALLBACK_LADDER == ("cgen", "scipy", "blocked")
        # The reference engine is the floor.
        assert FALLBACK_LADDER[-1] == REFERENCE_ENGINE

    def test_next_rung_skips_unavailable(self):
        watch = EngineWatch()
        everything = {"blocked", "tiled", "scipy", "cgen"}
        assert watch.next_rung("cgen", everything) == "scipy"
        assert watch.next_rung("scipy", everything) == "blocked"
        assert watch.next_rung("cgen", {"tiled", "blocked"}) == "blocked"
        # tiled is selectable but off the ladder: it demotes to scipy,
        # never up to cgen.
        assert watch.next_rung("tiled", everything) == "scipy"

    def test_next_rung_skips_quarantined_for_shape(self):
        watch = EngineWatch()
        watch.quarantine("scipy", "s1")
        assert watch.next_rung(
            "cgen", {"scipy", "tiled", "blocked"}, "s1"
        ) == "blocked"
        # Other shape classes still trust scipy.
        assert watch.next_rung(
            "cgen", {"scipy", "tiled", "blocked"}, "s2"
        ) == "scipy"

    def test_exhausted_ladder_records_fatal_and_raises(self):
        watch = EngineWatch()
        with pytest.raises(LadderExhausted):
            watch.next_rung("blocked", set(AVAILABLE))
        assert watch.counts.get("ladder_exhausted") == 1
        assert watch.events[-1].kind == "ladder_exhausted"

    def test_reference_engine_cannot_be_quarantined(self):
        watch = EngineWatch()
        with pytest.raises(ValueError, match="reference"):
            watch.quarantine(REFERENCE_ENGINE, "s")

    def test_quarantine_records_once_and_round_trips(self):
        watch = EngineWatch()
        watch.quarantine("cgen", "s1", "caught lying")
        watch.quarantine("cgen", "s1", "again")
        assert watch.counts["quarantine"] == 1
        assert watch.is_quarantined("cgen", "s1")
        assert watch.quarantined_engines("s1") == {"cgen"}
        assert watch.clear_quarantine("cgen", "s1") == 1
        assert not watch.has_quarantines

    def test_state_round_trip_unions_quarantines(self):
        watch = EngineWatch()
        watch.configure(cadence=8)
        watch.quarantine("cgen", "s1")
        state = watch.to_state()
        other = EngineWatch()
        other.quarantine("tiled", "s2")
        other.load_state(state)
        assert other.is_quarantined("cgen", "s1")
        assert other.is_quarantined("tiled", "s2")
        # An unconfigured process adopts the checkpointed cadence ...
        assert other.cadence == 8
        # ... but an explicitly configured one keeps its own.
        third = EngineWatch().configure(cadence=2)
        third.load_state(state)
        assert third.cadence == 2


class TestVerificationBookkeeping:
    def test_should_verify_first_and_every_nth(self):
        watch = EngineWatch().configure(cadence=4)
        hits = [watch.should_verify("cgen", "s") for _ in range(9)]
        assert hits == [
            True, False, False, True, False, False, False, True, False
        ]

    def test_disabled_and_reference_never_verify(self):
        watch = EngineWatch()
        assert not watch.should_verify("cgen", "s")
        watch.configure(cadence=1)
        assert not watch.should_verify(REFERENCE_ENGINE, "s")

    def test_compare_excludes_nonfinite_reference(self):
        watch = EngineWatch()
        ref = np.array([1.0, np.nan, 3.0])
        got = np.array([1.0, 99.0, 3.0])
        assert watch.compare(got, ref, 1e-12)

    def test_compare_fails_on_nan_output(self):
        watch = EngineWatch()
        ref = np.array([1.0, 2.0])
        got = np.array([1.0, np.nan])
        assert not watch.compare(got, ref, 1e-12)

    def test_sample_rows_are_valid_and_rotate(self):
        watch = EngineWatch()
        r1 = watch.sample_block_rows(100, 1)
        r2 = watch.sample_block_rows(100, 2)
        for rows in (r1, r2):
            assert rows.size > 0
            assert rows.min() >= 0 and rows.max() < 100
            assert len(np.unique(rows)) == len(rows)
        assert not np.array_equal(r1, r2)

    def test_reference_rows_matches_scipy(self, A, X):
        rows = np.array([0, 3, 7])
        got = reference_rows(A, X, rows)
        full = reference(A, X).reshape(A.nb_rows, A.block_size, X.shape[1])
        np.testing.assert_allclose(got, full[rows], rtol=1e-12)

    def test_shape_class_format(self, A):
        shape = shape_class(A, 4)
        assert shape.startswith(f"b{A.block_size}:m4:nb")


# ----------------------------------------------------------------------
# watched dispatch in the registry
# ----------------------------------------------------------------------
class TestWatchedDispatch:
    def test_injected_raise_demotes_and_still_answers(self, A, X):
        reg = KernelRegistry()
        dispatched = []
        raw_dispatch = reg._dispatch

        def spy(A_, X_, target, engine):
            dispatched.append(engine)
            return raw_dispatch(A_, X_, target, engine)

        reg._dispatch = spy
        spec = FaultSpec(
            site="engine.multiply", kind="raise",
            at={"engine": "tiled"}, times=None,
        )
        with armed(spec):
            Y = reg.multiply(A, X, engine="tiled")
        np.testing.assert_allclose(Y, reference(A, X), rtol=1e-11)
        assert reg.watch.counts["engine_failure"] >= 1
        # tiled is off the ladder; its failure lands on scipy.
        assert dispatched == ["tiled", "scipy"]
        # A demotion is not a quarantine: tiled stays trusted.
        assert not reg.watch.has_quarantines

    @pytest.mark.parametrize("kind", ["corrupt", "scale", "nan"])
    def test_wrong_result_is_caught_quarantined_reexecuted(self, A, X, kind):
        reg = KernelRegistry()
        reg.watch.configure(cadence=1, full_every=1)
        spec = FaultSpec(
            site="engine.multiply", kind=kind,
            at={"engine": "tiled"}, times=None,
        )
        with armed(spec):
            Y = reg.multiply(A, X, engine="tiled")
        np.testing.assert_allclose(Y, reference(A, X), rtol=1e-11)
        shape = shape_class(A, X.shape[1])
        assert reg.watch.is_quarantined("tiled", shape)
        assert reg.watch.counts["verify_fail"] == 1
        assert reg.watch.verify_failures >= 1
        # Later products route around the quarantined engine silently.
        with armed(spec):
            Y2 = reg.multiply(A, X, engine="tiled")
        np.testing.assert_allclose(Y2, reference(A, X), rtol=1e-11)
        assert reg.watch.counts["verify_fail"] == 1

    def test_healthy_engines_pass_verification(self, A, X):
        reg = KernelRegistry()
        reg.watch.configure(cadence=1, full_every=1)
        for engine in AVAILABLE:
            Y = reg.multiply(A, X, engine=engine)
            np.testing.assert_allclose(Y, reference(A, X), rtol=1e-11)
        assert reg.watch.verify_failures == 0
        assert not reg.watch.has_quarantines
        assert reg.watch.verifications >= len(AVAILABLE) - 1

    def test_sampled_verification_catches_corruption(self, A, X):
        # Large cadence-1 run with sampling (full_every high): the
        # rotating row sample must still catch a corrupted product on
        # some call even when any single sample could miss it.
        reg = KernelRegistry()
        reg.watch.configure(cadence=1, full_every=10**6, sample_rows=8)
        spec = FaultSpec(
            site="engine.multiply", kind="scale",
            at={"engine": "tiled"}, times=None, factor=7.0,
        )
        with armed(spec):
            Y = reg.multiply(A, X, engine="tiled")
        # scale corrupts every element, so even a sample sees it.
        np.testing.assert_allclose(Y, reference(A, X), rtol=1e-11)
        assert reg.watch.verify_failures >= 1

    def test_resolve_routes_around_quarantine(self, A):
        reg = KernelRegistry()
        shape = shape_class(A, 4)
        reg.watch.quarantine("tiled", shape)
        resolved = reg.resolve_engine(A, 4, "tiled")
        assert resolved != "tiled"
        assert resolved in AVAILABLE

    def test_quarantined_scipy_falls_back_to_reference(self, A):
        reg = KernelRegistry()
        shape = shape_class(A, 4)
        reg.watch.quarantine("scipy", shape)
        assert reg.resolve_engine(A, 4, "scipy") == REFERENCE_ENGINE

    def test_events_reach_telemetry_counters(self, A, X, tmp_path):
        reg = KernelRegistry()
        reg.watch.configure(cadence=1, full_every=1)
        hub = TelemetryHub(tmp_path)
        _telemetry.install(hub)
        try:
            spec = FaultSpec(
                site="engine.multiply", kind="corrupt",
                at={"engine": "tiled"}, times=1,
            )
            with armed(spec):
                reg.multiply(A, X, engine="tiled")
        finally:
            hub.close()
            _telemetry.uninstall()
        metrics = json.loads(
            (tmp_path / "metrics.json").read_text(encoding="utf-8")
        )
        counters = metrics["counters"]
        assert any(
            k.startswith("engine.events{") and "kind=quarantine" in k
            for k in counters
        )
        assert any(
            k.startswith("engine.verify.calls") for k in counters
        )
        table = render_engine_table(metrics)
        assert table is not None and "quarantine" in table

    def test_monitor_receives_warn_verdicts(self, A, X):
        reg = KernelRegistry()
        reg.watch.configure(cadence=1, full_every=1)
        monitor = HealthMonitor(checks=[])
        reg.watch.attach_monitor(monitor)
        spec = FaultSpec(
            site="engine.multiply", kind="nan",
            at={"engine": "tiled"}, times=1,
        )
        with armed(spec):
            reg.multiply(A, X, engine="tiled")
        checks = {r.check for r in monitor.report.results}
        assert "engine-quarantine" in checks
        assert monitor.report.worst() is Severity.WARN


# ----------------------------------------------------------------------
# the hardened cgen pipeline
# ----------------------------------------------------------------------
needs_cc = pytest.mark.skipif(
    not kernels_cgen.available(), reason="no C toolchain"
)


@pytest.fixture
def cgen_sandbox(tmp_path, monkeypatch):
    """Isolated kernel cache + fresh pipeline state, restored after."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    kernels_cgen._reset()
    yield tmp_path / "cache"
    kernels_cgen._reset()


class TestCgenPipeline:
    def test_missing_compiler_degrades_with_reason(self, A, X, monkeypatch):
        monkeypatch.setattr(
            kernels_cgen, "_CC_CANDIDATES", ("/nonexistent-cc",)
        )
        kernels_cgen._reset()
        try:
            assert not kernels_cgen.available()
            assert "compiler" in kernels_cgen.unavailable_reason()
            reg = KernelRegistry()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                Y = reg.multiply(A, X, engine="cgen")
            np.testing.assert_allclose(Y, reference(A, X), rtol=1e-11)
            assert any("cgen" in str(w.message) for w in caught)
            assert reg.watch.counts.get("fallback") == 1
            assert reg.resolve_engine(A, X.shape[1], "cgen") == "scipy"
        finally:
            kernels_cgen._reset()

    @needs_cc
    def test_injected_compile_failure_raises_compile_error(
        self, cgen_sandbox
    ):
        spec = FaultSpec(site="engine.compile", kind="raise", times=None)
        with armed(spec):
            with pytest.raises(CompileError, match="injected"):
                kernels_cgen.get_kernel(3, 2)

    @needs_cc
    def test_compile_failure_demotes_in_registry(self, A, X, cgen_sandbox):
        reg = KernelRegistry()
        assert kernels_cgen.available()  # probe before arming the fault
        spec = FaultSpec(site="engine.compile", kind="raise", times=None)
        with armed(spec):
            Y = reg.multiply(A, X, engine="cgen")
        np.testing.assert_allclose(Y, reference(A, X), rtol=1e-11)
        assert reg.watch.counts["engine_failure"] >= 1

    @needs_cc
    def test_corrupted_object_is_recovered(self, cgen_sandbox):
        watch = EngineWatch()
        kernels_cgen.get_kernel(3, 2, watch=watch)
        so_files = list(cgen_sandbox.rglob("gspmv_b3_m2_*.so"))
        assert len(so_files) == 1
        # Corrupt the cached object behind the pipeline's back.  A new
        # inode, not in-place truncation: the object is still mapped
        # from the load above, and shrinking a mapped file leaves a
        # SIGBUS bomb for glibc's exit-time destructor walk.
        data = so_files[0].read_bytes()
        so_files[0].unlink()
        so_files[0].write_bytes(data[: len(data) // 2])
        kernels_cgen._kernels.clear()
        fn = kernels_cgen.get_kernel(3, 2, watch=watch)
        assert fn is not None
        assert watch.counts.get("cache_recover", 0) >= 1
        # The rebuilt entry passes its checksum again.
        assert kernels_cgen._checksum_ok(so_files[0])

    @needs_cc
    def test_injected_load_corruption_recovers(self, cgen_sandbox):
        watch = EngineWatch()
        kernels_cgen.get_kernel(3, 2, watch=watch)
        kernels_cgen._kernels.clear()
        spec = FaultSpec(site="engine.load", kind="raise", times=1)
        with armed(spec):
            fn = kernels_cgen.get_kernel(3, 2, watch=watch)
        assert fn is not None
        assert watch.counts.get("cache_recover", 0) >= 1

    @needs_cc
    def test_foreign_entry_without_sidecar_is_rejected(self, cgen_sandbox):
        kernels_cgen.get_kernel(3, 2)
        so_files = list(cgen_sandbox.rglob("gspmv_b3_m2_*.so"))
        kernels_cgen._sidecar(so_files[0]).unlink()
        with pytest.raises(KernelLoadError, match="checksum"):
            kernels_cgen._load_checked(so_files[0], 3, 2)


# ----------------------------------------------------------------------
# autotune verdict-cache hygiene
# ----------------------------------------------------------------------
class TestAutotuneHardening:
    def _tuned_selector(self, A, tmp_path, reg=None):
        reg = reg or KernelRegistry()
        sel = AutoSelector(reg, cache_dir=tmp_path, repeats=1)
        sel.select(A, 4)
        return reg, sel

    def test_disk_format_is_versioned_and_checksummed(self, A, tmp_path):
        self._tuned_selector(A, tmp_path)
        data = json.loads(
            (tmp_path / CACHE_FILENAME).read_text(encoding="utf-8")
        )
        assert data["schema"] == SCHEMA_VERSION
        for record in data["entries"].values():
            assert record["checksum"] == _entry_checksum(record)
            assert record["fingerprint"] == host_fingerprint()

    def test_corrupt_json_is_rejected_and_retuned(self, A, tmp_path):
        path = tmp_path / CACHE_FILENAME
        path.write_text("{ torn", encoding="utf-8")
        reg = KernelRegistry()
        sel = AutoSelector(reg, cache_dir=tmp_path, repeats=1)
        engine = sel.select(A, 4)
        assert engine in AVAILABLE
        assert reg.watch.counts.get("autotune_corrupt", 0) >= 1
        # Rebuilt file carries the current schema.
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["schema"] == SCHEMA_VERSION

    def test_v1_schema_is_rejected(self, A, tmp_path):
        (tmp_path / CACHE_FILENAME).write_text(
            json.dumps({"somekey": {"engine": "tiled"}}), encoding="utf-8"
        )
        reg = KernelRegistry()
        sel = AutoSelector(reg, cache_dir=tmp_path, repeats=1)
        assert sel.select(A, 4) in AVAILABLE
        assert reg.watch.counts.get("autotune_corrupt", 0) >= 1

    def test_v2_verdict_naming_removed_engine_is_retuned(
        self, A, X, tmp_path
    ):
        """A valid, checksummed v2 file whose winner is the removed
        ``dedup`` engine is discarded, and ``auto`` still resolves."""
        reg = KernelRegistry()
        sel = AutoSelector(reg, cache_dir=tmp_path, repeats=1)
        reg._selector = sel
        key = sel.shape_key(A, X.shape[1])
        record = {
            "engine": "dedup",
            "timings": {"dedup": 1e-6, "scipy": 1e-3},
            "key": key,
            "fingerprint": host_fingerprint(),
        }
        record["checksum"] = _entry_checksum(record)
        path = tmp_path / CACHE_FILENAME
        path.write_text(
            json.dumps({"schema": 2, "entries": {key: record}}),
            encoding="utf-8",
        )
        assert SCHEMA_VERSION > 2
        Y = reg.multiply(A, X, engine="auto")
        np.testing.assert_allclose(Y, reference(A, X), rtol=1e-11)
        assert reg.resolve_engine(A, X.shape[1], "auto") in AVAILABLE
        assert reg.watch.counts.get("autotune_corrupt", 0) >= 1
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["schema"] == SCHEMA_VERSION
        assert data["entries"][key]["engine"] in AVAILABLE

    def test_checksum_mismatch_entry_is_skipped(self, A, tmp_path):
        reg, sel = self._tuned_selector(A, tmp_path)
        path = tmp_path / CACHE_FILENAME
        data = json.loads(path.read_text(encoding="utf-8"))
        key = next(iter(data["entries"]))
        data["entries"][key]["timings"] = {}  # tamper, stale checksum
        path.write_text(json.dumps(data), encoding="utf-8")
        reg2 = KernelRegistry()
        sel2 = AutoSelector(reg2, cache_dir=tmp_path, repeats=1)
        sel2.select(A, 4)
        assert reg2.watch.counts.get("autotune_corrupt", 0) >= 1

    def test_foreign_fingerprint_entry_is_stale(self, A, tmp_path):
        reg, sel = self._tuned_selector(A, tmp_path)
        path = tmp_path / CACHE_FILENAME
        data = json.loads(path.read_text(encoding="utf-8"))
        for record in data["entries"].values():
            record["fingerprint"] = {
                "cpu": "otherhost", "blas": "x", "python": "0",
            }
            record["checksum"] = _entry_checksum(record)
        path.write_text(json.dumps(data), encoding="utf-8")
        reg2 = KernelRegistry()
        sel2 = AutoSelector(reg2, cache_dir=tmp_path, repeats=1)
        assert sel2.select(A, 4) in AVAILABLE
        assert reg2.watch.counts.get("autotune_stale", 0) >= 1

    def test_torn_read_fault_site(self, A, tmp_path):
        self._tuned_selector(A, tmp_path)
        reg = KernelRegistry()
        sel = AutoSelector(reg, cache_dir=tmp_path, repeats=1)
        spec = FaultSpec(site="engine.autotune_cache", kind="raise", times=1)
        with armed(spec):
            assert sel.select(A, 4) in AVAILABLE
        assert reg.watch.counts.get("autotune_corrupt", 0) >= 1

    def test_select_routes_around_quarantined_winner(self, A, tmp_path):
        reg, sel = self._tuned_selector(A, tmp_path)
        record = sel.record(A, 4)
        winner = record["engine"]
        if winner == REFERENCE_ENGINE:
            pytest.skip("reference engine won the tuning; cannot quarantine")
        shape = shape_class(A, 4)
        reg.watch.quarantine(winner, shape)
        alt = sel.select(A, 4)
        assert alt != winner
        assert alt in AVAILABLE or alt == REFERENCE_ENGINE

    def test_tune_skips_quarantined_engines(self, A, tmp_path):
        reg = KernelRegistry()
        reg.watch.quarantine("tiled", shape_class(A, 4))
        sel = AutoSelector(reg, cache_dir=tmp_path, repeats=1)
        record = sel.record(A, 4)
        assert "tiled" not in record["timings"]
        assert reg.watch.counts.get("autotune_skip", 0) >= 1


# ----------------------------------------------------------------------
# perfmodel quarantine filter and fault-site catalogue
# ----------------------------------------------------------------------
def test_trusted_profiles_drops_quarantined():
    profiles = {
        "cgen": EngineProfile(engine="cgen"),
        "tiled": EngineProfile(engine="tiled"),
    }
    kept = trusted_profiles(profiles, {"cgen"})
    assert set(kept) == {"tiled"}
    kept = trusted_profiles(profiles.values(), set())
    assert set(kept) == {"cgen", "tiled"}


def test_engine_fault_sites_catalogued():
    assert set(ENGINE_FAULT_SITES) == {
        "engine.compile", "engine.load", "engine.multiply",
        "engine.autotune_cache",
    }


def test_render_engine_table_empty_is_none():
    assert render_engine_table(None) is None
    assert render_engine_table({"counters": {}}) is None


def test_render_engine_table_markdown():
    metrics = {
        "counters": {
            "engine.events{engine=cgen,kind=quarantine}": 1.0,
            "engine.verify.calls{engine=cgen}": 5.0,
            "engine.verify.failures{engine=cgen}": 1.0,
            "engine.verify.seconds": 0.25,
        }
    }
    text = render_engine_table(metrics, markdown=True)
    assert "| `cgen` | quarantine | 1 |" in text
    assert "shadow checks: 5" in text


def test_default_cadence_applies_via_cli_flag(A, tmp_path):
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["simulate", "--steps", "1", "--verify-kernels"]
    )
    assert args.verify_kernels == -1
    args = build_parser().parse_args(
        ["simulate", "--steps", "1", "--verify-kernels", "8"]
    )
    assert args.verify_kernels == 8
    assert DEFAULT_VERIFY_CADENCE > 0


def test_get_engine_watch_is_default_registrys():
    from repro.sparse.kernels import get_default_registry

    assert get_engine_watch() is get_default_registry().watch

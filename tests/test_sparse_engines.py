"""Backend registry: engine equivalence, cache correctness, resolution.

The property suite asserts every available engine agrees with scipy
ground truth across the structures that have historically broken
kernels (empty rows, trailing empty rows, pooled blocks, 1-D X); the
regression tests pin the three cache/aliasing/dtype bugs fixed by the
backend-registry PR; the resolution tests cover engine naming and the
fallback ladder; the profile tests cover the engine-aware perfmodel.
"""

import json
import warnings

import numpy as np
import pytest

import repro.telemetry as _telemetry
from repro.perfmodel import (
    EngineProfile,
    MrhsCostModel,
    SolverCounts,
    WESTMERE,
    calibrate_profile,
)
from repro.perfmodel.roofline import GspmvTimeModel, MatrixShape
from repro.sparse import (
    ENGINE_NAMES,
    available_engines,
    get_default_registry,
    set_default_engine,
)
from repro.sparse.bcrs import BCRSMatrix
from repro.sparse.convert import bcrs_to_scipy
from repro.sparse.gspmv import gspmv, gspmv_into
from repro.resilience.faults import FaultSpec, armed
from repro.sparse import kernels
from repro.sparse.kernels import KernelRegistry, kernels_cgen
from repro.telemetry import TelemetryHub
from tests.conftest import random_bcrs

AVAILABLE = available_engines()


def pooled_bcrs(nb=24, n_unique=4, seed=0):
    """A banded matrix whose blocks all come from a small pool (exact
    repeated blocks, as in regular packings)."""
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((n_unique, 3, 3))
    rows, cols, blocks = [], [], []
    for i in range(nb):
        for j in (i - 1, i, i + 1):
            if 0 <= j < nb:
                rows.append(i)
                cols.append(j)
                blocks.append(pool[(2 * i + j) % n_unique])
    return BCRSMatrix.from_block_coo(nb, nb, rows, cols, np.array(blocks))


def case_matrices():
    return {
        "random": random_bcrs(20, 5.0, seed=1),
        "empty_rows": BCRSMatrix.from_block_coo(
            4, 4, [0, 3], [1, 2], np.stack([np.eye(3), 2 * np.eye(3)])
        ),
        "trailing_empty": BCRSMatrix.from_block_coo(
            5, 5, [0], [0], np.eye(3)[None]
        ),
        "empty": BCRSMatrix.from_block_coo(3, 3, [], [], np.zeros((0, 3, 3))),
        "pooled": pooled_bcrs(),
    }


class TestEngineEquivalence:
    """All engines agree with ``bcrs_to_scipy(A) @ X``."""

    @pytest.mark.parametrize("engine", AVAILABLE)
    @pytest.mark.parametrize("m", [1, 2, 8, 16])
    @pytest.mark.parametrize("case", sorted(case_matrices()))
    def test_matches_scipy_ground_truth(self, engine, m, case):
        A = case_matrices()[case]
        X = np.random.default_rng(m).standard_normal((A.n_cols, m))
        expected = bcrs_to_scipy(A) @ X
        got = get_default_registry().multiply(A, X, engine=engine)
        np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("engine", AVAILABLE)
    def test_1d_x(self, engine):
        A = random_bcrs(15, 4.0, seed=2)
        x = np.random.default_rng(0).standard_normal(A.n_cols)
        y = get_default_registry().multiply(A, x, engine=engine)
        assert y.ndim == 1
        np.testing.assert_allclose(y, bcrs_to_scipy(A) @ x, rtol=1e-11)

    @pytest.mark.skipif(
        "cgen" not in AVAILABLE, reason="no C toolchain in environment"
    )
    @pytest.mark.parametrize("b,m", [(2, 1), (3, 3), (3, 5), (4, 16)])
    def test_cgen_nonstandard_sizes(self, b, m):
        """b != 3 and m not divisible by the register chunk."""
        A = random_bcrs(12, 4.0, seed=3, block_size=b)
        X = np.random.default_rng(1).standard_normal((A.n_cols, m))
        got = get_default_registry().multiply(A, X, engine="cgen")
        np.testing.assert_allclose(got, bcrs_to_scipy(A) @ X, rtol=1e-11)


class TestScipyViewStaleness:
    """Regression: the cached BSR view must see in-place block updates
    (scipy sometimes copies ``data`` during construction)."""

    def test_inplace_mutation_between_multiplies(self, small_bcrs):
        reg = KernelRegistry()
        X = np.random.default_rng(0).standard_normal((small_bcrs.n_cols, 3))
        before = reg.multiply(small_bcrs, X, engine="scipy")
        small_bcrs.blocks[:] *= 2.0
        after = reg.multiply(small_bcrs, X, engine="scipy")
        np.testing.assert_allclose(after, 2.0 * before, rtol=1e-12)
        np.testing.assert_allclose(
            after, bcrs_to_scipy(small_bcrs) @ X, rtol=1e-12
        )

    def test_view_always_shares_blocks(self, small_bcrs):
        view = small_bcrs.scipy_view()
        assert np.shares_memory(view.data, small_bcrs.blocks)

    def test_blocks_replacement_rebuilds_view(self, small_bcrs):
        v1 = small_bcrs.scipy_view()
        object.__setattr__(small_bcrs, "blocks", small_bcrs.blocks.copy())
        v2 = small_bcrs.scipy_view()
        assert v2 is not v1
        assert np.shares_memory(v2.data, small_bcrs.blocks)


class TestOutAliasing:
    """Regression: ``out`` aliasing ``X`` must not corrupt the product."""

    @pytest.mark.parametrize("engine", AVAILABLE)
    def test_out_is_x(self, engine):
        A = random_bcrs(18, 5.0, seed=4)  # block-square: shapes line up
        X = np.random.default_rng(2).standard_normal((A.n_cols, 4))
        expected = bcrs_to_scipy(A) @ X
        Y = get_default_registry().multiply(A, X, out=X, engine=engine)
        assert Y is X
        np.testing.assert_allclose(X, expected, rtol=1e-11)

    @pytest.mark.parametrize("engine", AVAILABLE)
    def test_out_overlapping_view(self, engine):
        """A partial overlap (out is a view into the same buffer)."""
        A = random_bcrs(10, 3.0, seed=5)
        buf = np.zeros((A.n_cols + A.n_rows, 2))
        X = buf[: A.n_cols]
        X[:] = np.random.default_rng(3).standard_normal((A.n_cols, 2))
        out = buf[A.n_cols :]  # disjoint rows, same base buffer
        expected = bcrs_to_scipy(A) @ X
        Y = get_default_registry().multiply(A, X, out=out, engine=engine)
        assert Y is out
        np.testing.assert_allclose(out, expected, rtol=1e-11)

    def test_gspmv_into_aliased(self, small_bcrs):
        X = np.random.default_rng(4).standard_normal((small_bcrs.n_cols, 4))
        expected = bcrs_to_scipy(small_bcrs) @ X
        Y = gspmv_into(small_bcrs, X, X)
        assert Y is X
        np.testing.assert_allclose(X, expected, rtol=1e-11)


class TestOutValidation:
    """Regression: silent float32 down-cast / non-contiguous writes."""

    def test_float32_out_raises(self, small_bcrs):
        X = np.ones((small_bcrs.n_cols, 2))
        out = np.empty((small_bcrs.n_rows, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            get_default_registry().multiply(small_bcrs, X, out=out)

    def test_non_contiguous_out_raises(self, small_bcrs):
        X = np.ones((small_bcrs.n_cols, 2))
        out = np.empty((small_bcrs.n_rows, 4))[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            get_default_registry().multiply(small_bcrs, X, out=out)

    def test_wrong_shape_out_raises(self, small_bcrs):
        X = np.ones((small_bcrs.n_cols, 2))
        with pytest.raises(ValueError, match="shape"):
            get_default_registry().multiply(
                small_bcrs, X, out=np.empty((3, 2))
            )


class TestEngineResolution:
    def test_none_resolves_to_default(self, small_bcrs):
        reg = KernelRegistry(default_engine="blocked")
        assert reg.resolve_engine(small_bcrs, 4, None) == "blocked"

    def test_unknown_engine_rejected(self, small_bcrs):
        reg = KernelRegistry()
        X = np.ones((small_bcrs.n_cols, 2))
        for name in ("cuda", "auto"):
            # The message names the valid engines.
            with pytest.raises(ValueError, match="'blocked', 'tiled'"):
                reg.resolve_engine(small_bcrs, 4, name)
            with pytest.raises(ValueError, match="'scipy', 'cgen'"):
                gspmv(small_bcrs, X, engine=name)
            with pytest.raises(ValueError, match="'scipy', 'cgen'"):
                set_default_engine(name)

    def test_set_default_engine_roundtrip(self, small_bcrs):
        prev = set_default_engine("tiled")
        try:
            X = np.ones((small_bcrs.n_cols, 2))
            np.testing.assert_allclose(
                gspmv(small_bcrs, X), bcrs_to_scipy(small_bcrs) @ X,
                rtol=1e-11,
            )
        finally:
            set_default_engine(prev)

    def test_set_default_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="engine"):
            set_default_engine("cuda")

    def test_unavailable_cgen_falls_back_with_warning(
        self, small_bcrs, monkeypatch
    ):
        monkeypatch.setattr(kernels_cgen, "available", lambda: False)
        monkeypatch.setattr(
            kernels_cgen, "unavailable_reason", lambda: "no compiler"
        )
        reg = KernelRegistry()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert reg.resolve_engine(small_bcrs, 4, "cgen") == "scipy"
        assert any("cgen" in str(w.message) for w in caught)
        # warned once, not per call
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reg.resolve_engine(small_bcrs, 4, "cgen")
        assert not caught


class TestTelemetryEngineLabel:
    def test_span_and_counters_carry_resolved_engine(
        self, small_bcrs, tmp_path
    ):
        from repro.telemetry.tracer import read_trace

        hub = TelemetryHub(tmp_path)
        _telemetry.install(hub)
        try:
            X = np.ones((small_bcrs.n_cols, 4))
            gspmv(small_bcrs, X, engine="blocked")
        finally:
            hub.close()
            _telemetry.uninstall()
        events = [
            e for e in read_trace(tmp_path / "trace.jsonl")
            if e.name == "gspmv"
        ]
        assert events and all(
            e.attrs["backend"] == "blocked" for e in events
        )
        metrics = json.loads(
            (tmp_path / "metrics.json").read_text(encoding="utf-8")
        )
        assert any(
            "engine=blocked" in key and key.startswith("gspmv.calls")
            for key in metrics["counters"]
        )

    def test_demoted_product_is_recorded_under_landing_rung(
        self, small_bcrs, tmp_path, monkeypatch
    ):
        """A product demoted inside the call is counted under the rung
        that produced it, not the engine that failed."""
        from repro.telemetry.tracer import read_trace

        monkeypatch.setattr(kernels, "_DEFAULT", KernelRegistry())
        spec = FaultSpec(
            site="engine.multiply", kind="raise",
            at={"engine": "tiled"}, times=1,
        )
        hub = TelemetryHub(tmp_path)
        _telemetry.install(hub)
        try:
            with armed(spec):
                gspmv(
                    small_bcrs, np.ones((small_bcrs.n_cols, 4)),
                    engine="tiled",
                )
        finally:
            hub.close()
            _telemetry.uninstall()
        events = [
            e for e in read_trace(tmp_path / "trace.jsonl")
            if e.name == "gspmv"
        ]
        assert [e.attrs["backend"] for e in events] == ["scipy"]
        counters = json.loads(
            (tmp_path / "metrics.json").read_text(encoding="utf-8")
        )["counters"]
        calls = [k for k in counters if k.startswith("gspmv.calls")]
        assert calls == ["gspmv.calls{engine=scipy,m=4}"]
        assert counters[calls[0]] == 1


class TestOneProductPath:
    """``A @ X`` validates, resolves, dispatches and records once."""

    @pytest.mark.parametrize("m", [1, 4])
    def test_one_of_each_per_product(
        self, small_bcrs, tmp_path, monkeypatch, m
    ):
        monkeypatch.setattr(kernels, "_DEFAULT", KernelRegistry())
        calls = {"resolve": 0, "dispatch": 0, "record": []}
        resolve = KernelRegistry.resolve_engine
        dispatch = KernelRegistry._dispatch
        record = TelemetryHub.record_gspmv

        def spy_resolve(self, *a, **k):
            calls["resolve"] += 1
            return resolve(self, *a, **k)

        def spy_dispatch(self, *a, **k):
            calls["dispatch"] += 1
            return dispatch(self, *a, **k)

        def spy_record(self, kind, *a, **k):
            calls["record"].append(kind)
            return record(self, kind, *a, **k)

        monkeypatch.setattr(KernelRegistry, "resolve_engine", spy_resolve)
        monkeypatch.setattr(KernelRegistry, "_dispatch", spy_dispatch)
        monkeypatch.setattr(TelemetryHub, "record_gspmv", spy_record)
        X = np.ones(small_bcrs.n_cols) if m == 1 else np.ones(
            (small_bcrs.n_cols, m)
        )
        hub = TelemetryHub(tmp_path)
        _telemetry.install(hub)
        try:
            for products in (1, 2, 3):
                Y = small_bcrs @ X
                assert calls["resolve"] == products
                assert calls["dispatch"] == products
                assert len(calls["record"]) == products
        finally:
            hub.close()
            _telemetry.uninstall()
        assert set(calls["record"]) == {"spmv" if m == 1 else "gspmv"}
        np.testing.assert_allclose(
            Y, bcrs_to_scipy(small_bcrs) @ X, rtol=1e-12
        )

    def test_matmul_reaches_the_engine_in_three_frames(
        self, small_bcrs, monkeypatch
    ):
        import os
        import traceback

        import repro

        reg = KernelRegistry(default_engine="blocked")
        monkeypatch.setattr(kernels, "_DEFAULT", reg)
        root = os.path.dirname(repro.__file__)
        seen = []
        blocked = KernelRegistry._multiply_blocked

        def engine(self, *a, **k):
            seen.append([
                f.name for f in traceback.extract_stack()[:-1]
                if f.filename.startswith(root)
            ])
            return blocked(self, *a, **k)

        monkeypatch.setattr(KernelRegistry, "_multiply_blocked", engine)
        small_bcrs @ np.ones((small_bcrs.n_cols, 4))
        assert seen == [["__matmul__", "multiply", "_dispatch"]]

    def test_unnamed_site_is_never_fired(self, small_bcrs, monkeypatch):
        """An armed plan that names no ``engine.multiply`` spec costs
        the product no ``fire`` call; one that does still demotes."""
        from repro.resilience.faults import FaultInjector
        from repro.service.manager import ServiceInjector

        reg = KernelRegistry()
        monkeypatch.setattr(kernels, "_DEFAULT", reg)
        fired = []
        fire = FaultInjector.fire

        def spy_fire(self, site, **context):
            fired.append(site)
            return fire(self, site, **context)

        monkeypatch.setattr(FaultInjector, "fire", spy_fire)
        X = np.ones((small_bcrs.n_cols, 4))
        crash = ServiceInjector(FaultSpec(site="service.worker_crash"))
        assert crash.sites == {"service.worker_crash"}
        with armed(crash):
            small_bcrs @ X
            small_bcrs @ X[:, 0]
        assert "engine.multiply" not in fired

        # Aim at the engine the product runs on by default (``cgen``,
        # or ``scipy`` where there is no C toolchain).
        spec = FaultSpec(
            site="engine.multiply", kind="raise",
            at={"engine": reg.resolve_engine(small_bcrs, 4)}, times=1,
        )
        with armed(ServiceInjector(spec)) as injector:
            Y = small_bcrs @ X
        # The default engine, then the next rung of the ladder.
        assert fired.count("engine.multiply") == 2
        assert len(injector.events_at("engine.multiply")) == 1
        assert kernels._DEFAULT.watch.counts["engine_failure"] == 1
        np.testing.assert_allclose(
            Y, bcrs_to_scipy(small_bcrs) @ X, rtol=1e-12
        )


class TestCgenTier:
    @pytest.mark.skipif(
        "cgen" not in AVAILABLE, reason="no C toolchain in environment"
    )
    def test_source_generation_chunks_m(self):
        src = kernels_cgen.generate_source(3, 16)
        assert "VC = 8" in src
        src = kernels_cgen.generate_source(3, 5)  # 5 % 8 != 0 -> shrink
        assert "VC = 5" in src or "VC = 1" in src

    def test_cli_engine_choices_match_registry(self):
        from repro.cli import ENGINE_CHOICES

        assert ENGINE_CHOICES == ENGINE_NAMES


needs_cgen = pytest.mark.skipif(
    "cgen" not in AVAILABLE, reason="no C toolchain in environment"
)


@needs_cgen
class TestKernelBinding:
    """A matrix binds its array addresses for the compiled kernel once,
    and rebinds them whenever one of its three arrays is rebound."""

    def test_built_once_across_many_products(self, small_bcrs, monkeypatch):
        from repro.sparse import bcrs

        builds = []
        bind = bcrs._bind_addresses
        monkeypatch.setattr(
            bcrs, "_bind_addresses", lambda A: builds.append(1) or bind(A)
        )
        reg = KernelRegistry()
        X = np.ones((small_bcrs.n_cols, 4))
        for _ in range(5):
            reg.multiply(small_bcrs, X)
            reg.multiply(small_bcrs, X[:, 0])
        assert builds == [1]
        assert small_bcrs.kernel_binding() == (
            small_bcrs.nb_rows,
            small_bcrs.row_ptr.ctypes.data,
            small_bcrs.col_ind.ctypes.data,
            small_bcrs.blocks.ctypes.data,
        )

    @pytest.mark.parametrize("field", ["blocks", "row_ptr", "col_ind"])
    def test_rebinding_an_array_rebuilds_it(self, field):
        # Two block rows of two blocks each; every rebinding below moves
        # the product, so a kernel still reading the old array would
        # miscompare.
        A = BCRSMatrix(
            row_ptr=np.array([0, 2, 4]),
            col_ind=np.array([0, 1, 0, 1]),
            blocks=np.arange(36.0).reshape(4, 3, 3),
            nb_cols=2,
        )
        reg = KernelRegistry()
        X = np.random.default_rng(0).standard_normal((A.n_cols, 3))
        reg.multiply(A, X)
        old = A.kernel_binding()
        new = {
            "blocks": 2.0 * A.blocks,
            "row_ptr": np.array([0, 1, 4], dtype=np.int32),
            "col_ind": np.array([1, 0, 0, 1], dtype=np.int32),
        }[field]
        before = bcrs_to_scipy(A) @ X
        object.__setattr__(A, field, new)
        expected = bcrs_to_scipy(A) @ X
        assert not np.allclose(expected, before)
        Y = reg.multiply(A, X)
        assert A.kernel_binding() != old
        np.testing.assert_allclose(Y, expected, rtol=1e-13)

    def test_a_rebound_array_of_another_layout_is_refused(self, small_bcrs):
        object.__setattr__(
            small_bcrs, "col_ind", small_bcrs.col_ind.astype(np.int64)
        )
        with pytest.raises(ValueError, match="kernel binding"):
            KernelRegistry().multiply(small_bcrs, np.ones(small_bcrs.n_cols))

    def test_default_products_are_labelled_cgen(
        self, small_bcrs, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(kernels, "_DEFAULT", KernelRegistry())
        engines = []
        record = TelemetryHub.record_gspmv

        def spy_record(self, kind, *a):
            engines.append(a[-1])
            return record(self, kind, *a)

        monkeypatch.setattr(TelemetryHub, "record_gspmv", spy_record)
        hub = TelemetryHub(tmp_path)
        _telemetry.install(hub)
        try:
            small_bcrs @ np.ones(small_bcrs.n_cols)
            small_bcrs @ np.ones((small_bcrs.n_cols, 4))
        finally:
            hub.close()
            _telemetry.uninstall()
        assert engines == ["cgen", "cgen"]


class TestEngineProfiles:
    SHAPE = MatrixShape(nb=2000, blocks_per_row=20.0)

    def test_calibration_recovers_known_scales(self):
        truth = EngineProfile("x", bw_scale=0.5, flop_scale=4.0)
        samples = {
            m: truth.time(self.SHAPE, m, WESTMERE) for m in (1, 4, 16, 64)
        }
        fitted = calibrate_profile("x", self.SHAPE, WESTMERE, samples)
        for m in samples:
            assert fitted.time(self.SHAPE, m, WESTMERE) == pytest.approx(
                samples[m], rel=0.05
            )

    def test_profiled_model_scales_prediction(self, small_bcrs):
        half = EngineProfile("slow", bw_scale=0.5, flop_scale=0.5)
        base = GspmvTimeModel(small_bcrs, WESTMERE)
        slow = GspmvTimeModel(small_bcrs, WESTMERE, profile=half)
        assert slow.time(8) == pytest.approx(2.0 * base.time(8))

    def test_mrhs_model_regimes_stay_exact_with_profile(self, spd_bcrs):
        counts = SolverCounts(n_noguess=40, n_first=20, n_second=10)
        prof = EngineProfile("cgen", bw_scale=0.6, flop_scale=3.0)
        model = MrhsCostModel(
            spd_bcrs, WESTMERE, counts, engine_profile=prof
        )
        ms = model.crossover_m() or 8
        for m in (max(1, ms - 2), ms + 4):
            expected = (
                model.bandwidth_regime_time(m)
                if model.model.is_bandwidth_bound(m)
                else model.compute_regime_time(m)
            )
            assert model.average_step_time(m) == pytest.approx(expected)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            EngineProfile("x", bw_scale=0.0)

"""One convergence record per solve.

Every solver writes its residuals, iterations and convergence once, into
the :class:`SolveDiagnostics` its :class:`ConvergenceMonitor` builds;
``iterations``, ``converged``, ``residual_norms`` and
``final_residual(s)`` on the result types are views of that record.

* :class:`ReferenceMonitor` keeps the monitor's ``observe`` /
  ``amend_last`` arithmetic as it was before the monitor precomputed its
  stop-threshold scale; a Hypothesis walk over random norm rows (zeros,
  inf and NaN included), active subsets (empty included), zero stop
  thresholds, restarts and amends asserts identical ``history``,
  per-step ``stalled`` and ``finalize()`` output.
* The solver paths that amend or abort (CG residual-drift restart and
  indefinite operator, block-CG deflation and stagnation, refinement
  divergence) are pinned to the ``residual_norms``, ``iterations`` and
  ``converged`` they produced when each solver still kept its own
  residual list, and are run bit-for-bit against the reference monitor.
* ``cg.true_residual`` observes the verified norm of a converged solve.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.telemetry as telemetry
from repro.solvers import (
    BlockCGResult,
    CGResult,
    ConvergenceMonitor,
    block_conjugate_gradient,
    conjugate_gradient,
    iterative_refinement,
)
from repro.solvers.refine import RefinementResult
from repro.telemetry import TelemetryHub
from repro.telemetry.metrics import RESIDUAL_BUCKETS


class ReferenceMonitor(ConvergenceMonitor):
    """``observe``/``amend_last`` with the arithmetic they had when the
    stop-threshold scale and the column index were rebuilt per call."""

    def observe(self, norms, active=None):
        row = np.atleast_1d(np.asarray(norms, dtype=np.float64)).copy()
        if row.shape[0] != self.n_columns:
            raise ValueError(
                f"expected {self.n_columns} residual norms, got {row.shape[0]}"
            )
        self.history.append(row)
        idx = np.arange(self.n_columns) if active is None else np.asarray(active)
        if idx.size == 0:
            return
        with np.errstate(divide="ignore"):
            metric = float(np.max(row[idx] / np.where(self.stop[idx] > 0,
                                                      self.stop[idx], 1.0)))
        if self._best_metric is None or metric < (
            self.stagnation_improvement * self._best_metric
        ):
            self._best_metric = metric
            self._stall = 0
        else:
            self._stall += 1

    def amend_last(self, norms):
        if not self.history:
            raise RuntimeError("no observation to amend")
        row = np.atleast_1d(np.asarray(norms, dtype=np.float64)).copy()
        if row.shape[0] != self.n_columns:
            raise ValueError(
                f"expected {self.n_columns} residual norms, got {row.shape[0]}"
            )
        self.history[-1] = row


def _rows_bytes(rows):
    return [np.asarray(r).tobytes() for r in rows]


def _same_diagnostics(a, b):
    assert _rows_bytes(a.residual_history) == _rows_bytes(b.residual_history)
    assert (a.solver, a.iterations, a.converged, a.n_columns) == (
        b.solver, b.iterations, b.converged, b.n_columns
    )
    assert a.breakdown_events == b.breakdown_events
    assert a.restart_events == b.restart_events
    assert (a.stagnated, a.matvecs) == (b.stagnated, b.matvecs)
    if a.true_residual_norms is None:
        assert b.true_residual_norms is None
    else:
        assert a.true_residual_norms.tobytes() == b.true_residual_norms.tobytes()


# ---------------------------------------------------------------------------
# Oracle walk: observe / amend_last / restarts against the reference.

_NORM = st.one_of(
    st.just(0.0),
    st.just(np.inf),
    st.just(np.nan),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(allow_nan=True, allow_infinity=True),
)
_STOP = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3),
                  st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def monitor_walks(draw):
    n = draw(st.integers(1, 4))
    stop = draw(st.lists(_STOP, min_size=n, max_size=n))
    window = draw(st.integers(1, 4))
    improvement = draw(st.floats(min_value=0.05, max_value=0.95))
    row = st.lists(_NORM, min_size=n, max_size=n)
    active = st.one_of(
        st.none(),
        st.lists(st.integers(0, n - 1), unique=True, max_size=n).map(
            lambda ix: np.array(ix, dtype=np.intp)
        ),
    )
    op = st.one_of(
        st.tuples(st.just("observe"), row, active),
        st.tuples(st.just("amend"), row),
        st.tuples(st.just("restart")),
        st.tuples(st.just("wrong_width"), st.integers(0, n + 2).filter(
            lambda k: k != n
        )),
    )
    ops = draw(st.lists(op, max_size=30))
    return stop, window, improvement, ops


def _apply(monitor, op):
    kind = op[0]
    if kind == "observe":
        monitor.observe(op[1], active=op[2])
    elif kind == "amend":
        monitor.amend_last(op[1])
    elif kind == "restart":
        monitor.record_restart("stagnation")
    else:
        monitor.observe(np.ones(op[1]))


def _outcome(monitor, op, divide):
    # A zero divisor would raise here: the precomputed scale has none.
    with np.errstate(divide=divide, over="ignore", invalid="ignore"):
        try:
            _apply(monitor, op)
        except (ValueError, RuntimeError) as exc:
            return type(exc)
    return None


class TestObserveOracle:
    @settings(max_examples=300, deadline=None)
    @given(monitor_walks())
    def test_walk_matches_reference(self, walk):
        stop, window, improvement, ops = walk
        kwargs = dict(
            stagnation_window=window, stagnation_improvement=improvement
        )
        new = ConvergenceMonitor("walk", stop, **kwargs)
        ref = ReferenceMonitor("walk", stop, **kwargs)
        for op in ops:
            assert _outcome(new, op, "raise") is _outcome(ref, op, "ignore")
            assert _rows_bytes(new.history) == _rows_bytes(ref.history)
            assert new.stalled == ref.stalled
            assert new.iteration == ref.iteration
        for converged in (False, True):
            _same_diagnostics(
                new.finalize(converged=converged),
                ref.finalize(converged=converged),
            )

    def test_empty_active_and_zero_columns(self):
        for monitor in (ConvergenceMonitor("x", [1.0, 2.0]),
                        ReferenceMonitor("x", [1.0, 2.0])):
            monitor.observe([3.0, 4.0], active=np.array([], dtype=np.intp))
            monitor.observe([3.0, 4.0], active=[])
            assert not monitor.stalled and monitor.iteration == 1
        for monitor in (ConvergenceMonitor("x", []), ReferenceMonitor("x", [])):
            monitor.observe([])
            assert monitor.history[0].shape == (0,)

    def test_row_is_copied_once(self):
        src = np.array([1.0, 2.0])
        monitor = ConvergenceMonitor("x", [1.0, 1.0])
        monitor.observe(src)
        src[0] = 9.0
        monitor.amend_last(src)
        src[1] = 9.0
        assert monitor.history[-1].tolist() == [9.0, 2.0]


# ---------------------------------------------------------------------------
# Solver paths pinned to their pre-change records.


def _spd(n, seed, log_cond):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * np.logspace(0, log_cond, n)) @ Q.T
    return 0.5 * (A + A.T)


class _Drifting:
    """``M @ v`` whose first three Krylov products are off by 1e-4, so
    the recurred residual drifts away from the true one."""

    def __init__(self, M):
        self.M = M
        self.calls = 0

    def __matmul__(self, v):
        out = self.M @ v
        self.calls += 1
        return out * (1 + 1e-4) if 2 <= self.calls <= 4 else out


def _cg_drift():
    b = np.random.default_rng(7).standard_normal(12)
    return conjugate_gradient(_Drifting(_spd(12, 3, 1.0)), b, tol=1e-10)


_INDEFINITE = np.diag([3.0, 1.0, -2.0, 5.0, 0.5])


def _cg_indefinite():
    return conjugate_gradient(_INDEFINITE, np.ones(5))


def _block_deflation():
    A = _spd(30, 1, 2.0)
    B = np.random.default_rng(51).standard_normal((30, 3))
    X0 = np.zeros((30, 3))
    X0[:, 0] = np.linalg.solve(A, B[:, 0]) + 1e-5 * (
        np.random.default_rng(3).standard_normal(30)
    )
    return block_conjugate_gradient(A, B, X0=X0, tol=1e-6)


def _block_stagnation():
    A = _spd(16, 1, 1.0)
    B = np.random.default_rng(61).standard_normal((16, 2))
    mask = (np.arange(16) % 2 == 0).astype(float)[:, None]
    return block_conjugate_gradient(
        A, B, tol=1e-8, max_iter=200, preconditioner=lambda R: R * mask
    )


def _refine_divergence():
    return iterative_refinement(2.0 * np.eye(4), np.ones(4), lambda r: 1.5 * r)


_STAG_ROWS = [
    [3.644711459344, 5.107274382632],
    [2.901746648144, 5.155626978846],
    [2.529400609291, 5.230400284518],
    [2.493195930243, 5.210865763877],
] + [[2.462513186947, 5.213593513064]] * 18

_DEFL_ROWS = [
    [0.002170128685313, 6.836848553879, 5.202302218378],
    [0.000489996659749, 7.795214605503, 5.807267549269],
    [0.0002829668706421, 5.072787864352, 3.561943659626],
    [0.0001643652440848, 3.780606111703, 3.411493866344],
    [9.20893201725e-05, 3.151077648562, 2.489511904098],
    [0.0001088818289323, 3.105242956595, 2.076354301091],
    [4.512534360972e-05, 1.662218857242, 1.300143707788],
    [1.420928440818e-05, 0.3620863606469, 0.3433717350265],
    [6.427972547189e-06, 0.1589241747384, 0.1853991171553],
    [1.508750445811e-06, 0.05103971105665, 0.05008511133644],
    [1.508750445811e-06, 0.01717307014945, 0.02377121455386],
    [1.508750445811e-06, 0.008611163454573, 0.01477754082765],
    [1.508750445811e-06, 0.01168385745843, 0.0148989937766],
    [1.508750445811e-06, 0.0033587197837, 0.004910493533276],
    [1.508750445811e-06, 0.003892541046753, 0.005221397212871],
    [1.508750445811e-06, 0.002697139254966, 0.004615018894947],
    [1.508750445811e-06, 0.002155351104456, 0.003435516752523],
    [1.508750445811e-06, 0.002301998837899, 0.00217445408179],
    [1.508750445811e-06, 0.001201484809835, 0.002419986306898],
    [1.508750445811e-06, 0.0009926597766127, 0.002081508613709],
    [1.508750445811e-06, 0.000424450293843, 0.001163506992109],
    [1.508750445811e-06, 0.0002133123028698, 0.0004968705835888],
    [1.508750445811e-06, 0.0001338527443829, 0.0002494189100997],
    [1.508750445811e-06, 3.080480137619e-05, 8.073007127917e-05],
    [1.508750445811e-06, 1.219090592485e-08, 2.879753933726e-09],
]

# name: (solve, iterations, converged, restart reasons, breakdown kinds,
#        residual_norms); values recorded from the solvers' own residual
#        lists, 12 significant digits.
PINS = {
    "cg_drift": (
        _cg_drift, 24, True, ["residual_drift"], [],
        [2.223062818652, 1.883069751047, 0.7405759332895, 0.6419118806822,
         0.1827093382848, 0.06527667980994, 0.03363317994269,
         0.01808023676346, 0.007161124800518, 0.001328644641286,
         0.0003683428096441, 7.198667838697e-05, 0.0002313652632957,
         0.0001956534220754, 6.46374585562e-05, 5.630165356804e-05,
         1.708010645124e-05, 6.020805218318e-06, 2.699834029522e-06,
         1.633813550983e-06, 5.051931672804e-07, 1.423445621663e-07,
         4.007748844471e-08, 7.621247988379e-09, 1.192411014005e-17],
    ),
    "cg_indefinite": (
        _cg_indefinite, 1, False, [], ["indefinite_operator"],
        [2.2360679775, 3.527668414753],
    ),
    "block_deflation": (
        _block_deflation, 24, True, ["deflation"], [], _DEFL_ROWS,
    ),
    "block_stagnation": (
        _block_stagnation, 21, False, ["stagnation"], ["stagnation"],
        _STAG_ROWS,
    ),
    "refine_divergence": (
        _refine_divergence, 2, False, [], ["divergence"], [2.0, 4.0, 8.0],
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
class TestSolverPins:
    def test_matches_pre_change_record(self, name):
        solve, iterations, converged, restarts, breakdowns, norms = PINS[name]
        res = solve()
        assert res.iterations == iterations
        assert res.converged is converged
        diag = res.diagnostics
        assert [e.reason for e in diag.restart_events] == restarts
        assert [e.kind for e in diag.breakdown_events] == breakdowns
        assert len(res.residual_norms) == iterations + 1
        # 12 recorded digits; the noise-level tail gets an absolute floor.
        np.testing.assert_allclose(
            np.array(res.residual_norms, dtype=float), np.array(norms),
            rtol=1e-9, atol=1e-12,
        )

    def test_bit_identical_to_reference_monitor(self, name, monkeypatch):
        solve = PINS[name][0]
        new = solve()
        for module in ("cg", "block_cg", "refine"):
            monkeypatch.setattr(
                f"repro.solvers.{module}.ConvergenceMonitor", ReferenceMonitor
            )
        ref = solve()
        solution = "X" if isinstance(new, BlockCGResult) else "x"
        assert getattr(new, solution).tobytes() == getattr(ref, solution).tobytes()
        _same_diagnostics(new.diagnostics, ref.diagnostics)

    def test_fields_are_views_of_the_record(self, name):
        res = PINS[name][0]()
        diag = res.diagnostics
        assert res.iterations == diag.iterations
        assert res.converged == diag.converged
        assert _rows_bytes(res.residual_norms) == _rows_bytes(
            diag.residual_history
        )
        with pytest.raises(AttributeError):
            res.iterations = 0


class TestResultShape:
    def test_results_keep_only_solution_record_and_gspmv_count(self):
        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        assert names(CGResult) == ["x", "diagnostics"]
        assert names(RefinementResult) == ["x", "diagnostics"]
        assert names(BlockCGResult) == ["X", "diagnostics", "gspmv_calls"]

    def test_replace_diagnostics(self):
        res = _cg_drift()
        relabeled = dataclasses.replace(
            res,
            diagnostics=dataclasses.replace(res.diagnostics, converged=False),
        )
        assert res.converged and not relabeled.converged
        assert relabeled.residual_norms == res.residual_norms

    def test_final_residual_views(self):
        cg = _cg_drift()
        assert cg.final_residual == cg.residual_norms[-1]
        block = _block_deflation()
        assert block.final_residuals is block.diagnostics.residual_history[-1]


class TestTrueResidualHistogram:
    def test_cg_observes_verified_norm(self):
        hub = TelemetryHub()
        telemetry.install(hub)
        try:
            res = _cg_drift()
        finally:
            telemetry.uninstall()
        hist = hub.metrics.histogram("cg.true_residual", buckets=RESIDUAL_BUCKETS)
        verified = float(res.diagnostics.true_residual_norms[0])
        assert res.converged and verified != res.final_residual
        assert hist.count == 1
        assert hist.sum == verified

    def test_cg_indefinite_observes_true_norm(self):
        """A solve stopped by breakdown recomputes ``b - A x`` once; the
        histogram gets that norm, not the recurred 3.53."""
        hub = TelemetryHub()
        telemetry.install(hub)
        try:
            res = _cg_indefinite()
        finally:
            telemetry.uninstall()
        true = float(np.linalg.norm(np.ones(5) - _INDEFINITE @ res.x))
        assert not res.converged
        assert float(res.diagnostics.true_residual_norms[0]) == true
        np.testing.assert_allclose(true, 3.527668414753, rtol=1e-9)
        hist = hub.metrics.histogram("cg.true_residual", buckets=RESIDUAL_BUCKETS)
        assert hist.count == 1
        assert hist.sum == true

    def test_cg_iteration_cap_reports_true_norm(self):
        A = _spd(12, 3, 1.0)
        b = np.random.default_rng(7).standard_normal(12)
        res = conjugate_gradient(A, b, tol=1e-12, max_iter=3)
        assert not res.converged and res.iterations == 3
        np.testing.assert_array_equal(
            res.diagnostics.true_residual_norms, [np.linalg.norm(b - A @ res.x)]
        )

"""Ablation — Chebyshev polynomial order vs Brownian-force accuracy.

The paper fixes the maximum order at 30 "for computing the Brownian
forces to a given accuracy".  This bench sweeps the degree and reports
(a) the scalar sqrt approximation error on an SD matrix's interval —
far-field drag floor to Lanczos top end — and (b) the matrix-level error
||S(R)z - sqrtm(R)z||, showing the geometric decay that justifies the
paper's choice, and the linear cost in matrix products.

A second table compares the drivers' two possible intervals at degree
30: both ends from Lanczos (the smallest-eigenvalue estimate divided by
both widenings), and the analytic far-field drag floor muF*6*pi*mu*a_min
for the lower end.  The top end is the same Lanczos estimate in both.
"""

import numpy as np

from benchmarks._cases import emit, sd_system
from repro.stokesian.brownian import BrownianForceGenerator
from repro.stokesian.chebyshev import ChebyshevSqrt, lanczos_spectrum_bounds
from repro.stokesian.dynamics import SDParameters
from repro.stokesian.resistance import build_resistance_matrix, far_field_drag
from repro.util.tables import format_table

DEGREES = [5, 10, 20, 30, 40]
N_PARTICLES = 80
# (n, phi) of the interval comparison; dense eigh bounds the size.
INTERVAL_CASES = [(80, 0.4), (300, 0.5), (500, 0.3)]


def _dense_sqrt_reference(R, seed=1):
    w, V = np.linalg.eigh(R.to_dense())
    z = np.random.default_rng(seed).standard_normal(R.n_rows)
    return w, z, (V * np.sqrt(w)) @ (V.T @ z)


def _errors(lo, hi, R, z, ref, degree):
    approx = ChebyshevSqrt.fit(lo, hi, degree=degree)
    vec = approx.apply(R, z)
    return (
        approx.max_relative_error(),
        float(np.linalg.norm(vec - ref) / np.linalg.norm(ref)),
    )


def evaluate():
    system = sd_system(N_PARTICLES, 0.4, seed=30)
    R = build_resistance_matrix(system)
    floor = float(far_field_drag(system).min())
    lo, hi = lanczos_spectrum_bounds(R, rng=0, lower=floor)
    _, z, ref = _dense_sqrt_reference(R)
    rows = [(d, *_errors(lo, hi, R, z, ref, d)) for d in DEGREES]
    return rows, R


def compare_intervals(degree=30):
    """Per case and interval: ``(n, phi, label, lo/lambda_min, kappa,
    scalar error, vector error, lo <= lambda_min)``."""
    s = SDParameters().bounds_safety
    rows = []
    for n, phi in INTERVAL_CASES:
        system = sd_system(n, phi, seed=30)
        R = build_resistance_matrix(system)
        w, z, ref = _dense_sqrt_reference(R)
        both_lo, top = lanczos_spectrum_bounds(R, rng=0)
        floor = float(far_field_drag(system).min())
        for label, lo in (("Lanczos both ends", both_lo / s), ("drag floor", floor)):
            hi = top * s
            scalar, vec = _errors(lo, hi, R, z, ref, degree)
            rows.append(
                (n, phi, label, lo / w[0], hi / lo, scalar, vec,
                 lo <= w[0] * (1 + 1e-12) and hi >= w[-1])
            )
    return rows


def test_ablation_chebyshev(benchmark):
    rows, R = evaluate()
    report = format_table(
        ["degree", "max scalar rel. error", "||S(R)z - sqrtm(R)z|| rel."],
        [[d, f"{se:.2e}", f"{ve:.2e}"] for d, se, ve in rows],
        title="Ablation: Chebyshev degree vs sqrt accuracy "
        f"(SD matrix, n={N_PARTICLES}, phi=0.4, drag-floor interval)",
    )
    scalar_errors = [se for _, se, _ in rows]
    vector_errors = [ve for _, _, ve in rows]
    # Geometric decay with degree, in both measures.
    assert all(b < a for a, b in zip(scalar_errors, scalar_errors[1:]))
    assert vector_errors[-1] < 0.1 * vector_errors[0]
    # The paper's degree 30 is comfortably converged for SD spectra.
    assert dict((d, ve) for d, _, ve in rows)[30] < 1e-2

    intervals = compare_intervals()
    report += "\n\n" + format_table(
        ["n", "phi", "lower end", "lo / lambda_min", "kappa",
         "scalar err @30", "||S(R)z - sqrtm(R)z|| @30"],
        [[n, f"{phi:.1f}", label, f"{ratio:.3f}", f"{kappa:.1f}",
          f"{se:.2e}", f"{ve:.2e}"]
         for n, phi, label, ratio, kappa, se, ve, _ in intervals],
        title="Driver interval at degree 30: Lanczos at both ends vs the "
        f"far-field drag floor (top end Lanczos x 1.05 x "
        f"{SDParameters().bounds_safety})",
    )
    # Both intervals must contain the dense spectrum, and degree 30 must
    # be converged on every row, the paper's densest packing included.
    assert all(encloses for *_, encloses in intervals)
    assert all(ve < 1e-2 for *_, ve, _ in intervals)

    gen = BrownianForceGenerator(R, degree=30, rng=0)
    z = np.random.default_rng(2).standard_normal(R.n_rows)
    benchmark(lambda: gen.generate(z))
    emit("ablation_chebyshev", report)

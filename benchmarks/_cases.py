"""Shared workload builders for the benchmark harness.

Every bench target regenerates one table or figure of the paper.  The
paper's systems have 300,000 particles and matrices with up to 18M
blocks; this harness builds *scaled* versions of the same workloads
(documented in DESIGN.md / EXPERIMENTS.md) and, where the observable is
a property of the hardware rather than the algorithm, evaluates the
calibrated machine model at the paper's full scale.

Builders are cached so the many bench modules sharing a workload build
it once per pytest session.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from repro.sparse.bcrs import BCRSMatrix
from repro.stokesian.dynamics import SDParameters
from repro.stokesian.packing import random_configuration
from repro.stokesian.particles import ParticleSystem
from repro.stokesian.resistance import build_resistance_matrix

OUT_DIR = Path(__file__).parent / "out"

#: Paper Table I, for side-by-side printing.
PAPER_TABLE1 = {
    "mat1": dict(n=900_000, nb=300_000, nnz=15_300_000, nnzb=1_700_000, bpr=5.6),
    "mat2": dict(n=1_185_000, nb=395_000, nnz=81_000_000, nnzb=9_000_000, bpr=24.9),
    "mat3": dict(n=1_185_000, nb=395_000, nnz=162_000_000, nnzb=18_000_000, bpr=45.3),
}

#: Cutoff factors (x mean radius) tuned to land near the paper's
#: nnzb/nb values at our scale.
MAT_CUTOFF_FACTORS = {"mat1": 0.9, "mat2": 2.6, "mat3": 3.6}


def emit(name: str, text: str) -> None:
    """Print a report and persist it under benchmarks/out/."""
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


@functools.lru_cache(maxsize=None)
def sd_system(n: int, phi: float, seed: int = 0) -> ParticleSystem:
    """A packed E. coli-distribution particle system."""
    return random_configuration(n, phi, rng=seed)


@functools.lru_cache(maxsize=None)
def sd_matrix(
    n: int, phi: float, cutoff_factor: float = 1.0, seed: int = 0
) -> BCRSMatrix:
    """A resistance matrix from the SD simulator (the paper's source of
    test matrices: "We changed the cutoff radius in the SD simulator to
    construct matrices with different values nnzb/nb")."""
    system = sd_system(n, phi, seed)
    cutoff = cutoff_factor * float(np.mean(system.radii))
    return build_resistance_matrix(system, cutoff_gap=cutoff)


@functools.lru_cache(maxsize=None)
def scaled_paper_matrix(name: str, n: int = 3000) -> BCRSMatrix:
    """A scaled analog of mat1/mat2/mat3 (Table I)."""
    if name not in MAT_CUTOFF_FACTORS:
        raise ValueError(f"unknown matrix {name!r}")
    phi = 0.3 if name == "mat1" else 0.4
    return sd_matrix(n, phi, MAT_CUTOFF_FACTORS[name])


def scaled_paper_case(name: str, n: int = 3000):
    """The (system, matrix) pair of a Table I analog — partitioners need
    the particle coordinates as well as the matrix."""
    phi = 0.3 if name == "mat1" else 0.4
    return sd_system(n, phi), scaled_paper_matrix(name, n)


@functools.lru_cache(maxsize=None)
def synthetic_matrix(nb: int, blocks_per_row: float, seed: int = 0) -> BCRSMatrix:
    """A large banded random block matrix mimicking SD locality.

    Used for wall-clock kernel timing where the matrix must exceed the
    last-level cache; the band structure (columns near the row, like a
    spatially sorted SD matrix) gives realistic X-vector reuse.
    """
    rng = np.random.default_rng(seed)
    per_row = max(1, int(round(blocks_per_row)) - 1)
    rows = np.repeat(np.arange(nb), per_row)
    # Banded offsets ~ +-2% of the matrix dimension, like an RCM-ordered
    # short-range interaction matrix.
    half_band = max(2, nb // 50)
    offsets = rng.integers(-half_band, half_band + 1, size=len(rows))
    cols = np.clip(rows + offsets, 0, nb - 1)
    blocks = rng.standard_normal((len(rows), 3, 3))
    diag = np.broadcast_to(np.eye(3) * 10.0, (nb, 3, 3)).copy()
    all_rows = np.concatenate([rows, np.arange(nb)])
    all_cols = np.concatenate([cols, np.arange(nb)])
    all_blocks = np.concatenate([blocks, diag])
    return BCRSMatrix.from_block_coo(nb, nb, all_rows, all_cols, all_blocks)


def default_params(**overrides) -> SDParameters:
    """The harness's standard SD parameters.

    Unpreconditioned, as the paper's CG is, so the tables keep the
    paper's iteration counts; ``precondition=True`` overrides it."""
    return SDParameters(**{"precondition": False, **overrides})

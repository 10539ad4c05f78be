"""Assembly of the sparse resistance matrix ``R = muF*I + Rlub``.

The paper avoids the dense far-field component ``(M_infinity)^{-1}`` by
using the sparse approximation proposed by Torres & Gilbert (1996),

    R = muF * I + Rlub,

"applicable when the particle interactions are dominated by lubrication
forces", with the far-field effective viscosity ``muF`` "chosen
depending on the volume fraction of the particles", and "a slight
modification of this technique to account for different particle
radii": each particle's diagonal drag scales with its own radius,

    diag block i = muF(phi) * 6 pi mu a_i * I.

``Rlub`` is the sum of pairwise PSD lubrication tensors in the
relative-motion projection (see :mod:`repro.stokesian.lubrication`), so
``R`` is symmetric positive definite by construction — the property CG
and the Chebyshev square root both rely on.

The interaction cutoff ``cutoff_gap`` is the knob the paper turns to
produce matrices with different ``nnzb/nb`` (Table I's mat1/mat2/mat3).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.bcrs import BCRSMatrix
from repro.stokesian.lubrication import pair_resistance_blocks
from repro.stokesian.neighbors import NeighborList, neighbor_pairs
from repro.stokesian.particles import ParticleSystem

__all__ = ["far_field_viscosity", "far_field_drag", "build_resistance_matrix"]


def far_field_viscosity(volume_fraction: float) -> float:
    """Relative far-field effective viscosity ``muF(phi)``.

    Einstein-Batchelor second-order suspension viscosity,
    ``muF = 1 + 2.5 phi + 5.2 phi^2``: the drag every particle feels
    from the suspension as a whole grows with crowding.  (Torres &
    Gilbert treat ``muF`` as a tunable volume-fraction-dependent
    parameter; any positive monotone choice preserves SPD.)
    """
    if not 0 <= volume_fraction < 1:
        raise ValueError("volume_fraction must be in [0, 1)")
    phi = float(volume_fraction)
    return 1.0 + 2.5 * phi + 5.2 * phi**2


def far_field_drag(
    system: ParticleSystem,
    *,
    viscosity: float = 1.0,
    mu_far_field: float | None = None,
) -> np.ndarray:
    """Per-particle far-field drag ``muF * 6 pi mu a_i`` (radius-aware).

    These are the diagonal blocks of ``R`` before ``Rlub`` is added.
    ``Rlub`` is PSD, so ``drag.min()`` is a proven lower bound on
    ``lambda_min(R)`` — the Chebyshev interval's lower end, with no
    eigenvalue solve.  ``mu_far_field`` defaults to
    :func:`far_field_viscosity` at the system's volume fraction.
    """
    if mu_far_field is None:
        mu_far_field = far_field_viscosity(system.volume_fraction)
    if mu_far_field <= 0:
        raise ValueError("mu_far_field must be positive")
    return mu_far_field * 6.0 * np.pi * viscosity * system.radii


def build_resistance_matrix(
    system: ParticleSystem,
    *,
    viscosity: float = 1.0,
    cutoff_gap: float | None = None,
    neighbor_list: NeighborList | None = None,
    mu_far_field: float | None = None,
) -> BCRSMatrix:
    """Assemble ``R = muF*I + Rlub`` as a 3x3-block BCRS matrix.

    Parameters
    ----------
    system:
        The particle configuration.
    viscosity:
        Solvent viscosity ``mu``.
    cutoff_gap:
        Surface-gap interaction cutoff; defaults to the mean particle
        radius.  Larger cutoffs produce denser matrices (higher
        ``nnzb/nb``) — the Table I knob.
    neighbor_list:
        Pre-computed pair list (must have been built with ``max_gap >=
        cutoff_gap``); recomputed when omitted.
    mu_far_field:
        Override for ``muF`` (defaults to
        :func:`far_field_viscosity` at the system's volume fraction).
    """
    if cutoff_gap is None:
        cutoff_gap = float(np.mean(system.radii))
    if cutoff_gap <= 0:
        raise ValueError("cutoff_gap must be positive")
    drag = far_field_drag(system, viscosity=viscosity, mu_far_field=mu_far_field)
    nl = neighbor_list
    if nl is None:
        nl = neighbor_pairs(system, max_gap=cutoff_gap)

    n = system.n
    blocks = pair_resistance_blocks(
        system.radii[nl.i],
        system.radii[nl.j],
        nl.r_vec,
        viscosity=viscosity,
        cutoff_gap=cutoff_gap,
    )
    # Drop pairs whose shifted tensors vanished (gap at/beyond cutoff).
    live = np.flatnonzero(np.abs(blocks).max(axis=(1, 2)) > 0.0)
    i, j, blocks = nl.i[live], nl.j[live], blocks[live]

    # Relative-motion projection: [[+A, -A], [-A, +A]] per pair.
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    vals = np.concatenate([blocks, blocks, -blocks, -blocks])

    # Far-field drag on the diagonal blocks.
    diag = np.einsum("k,ij->kij", drag, np.eye(3))
    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, diag])

    return BCRSMatrix.from_block_coo(n, n, rows, cols, vals)

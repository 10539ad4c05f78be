"""Periodic neighbor search.

The lubrication matrix couples only particle pairs whose surface gap is
below a cutoff, so assembly needs all pairs with center distance under
``radius_i + radius_j + max_gap``.  :func:`neighbor_pairs` finds them
with scipy's periodic k-d tree (``cKDTree`` with ``boxsize``), which
measures minimum-image distances and is exact at any box size and any
cutoff.  The paper constructs the same neighbor lists (from cell
binning, which it also reuses for its coordinate-based matrix
partitioning).

Pairs come out with ``i < j`` in lexicographic ``(i, j)`` order, so
anything assembled from them does not depend on the tree's traversal.
Particles with non-finite coordinates pair with nothing: a NaN state
reaches the health layer instead of failing inside the search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from repro.stokesian.particles import ParticleSystem

__all__ = ["neighbor_pairs", "NeighborList"]

# Relative slack on the tree's radius: its distances may round
# differently from the minimum-image norms below, which decide.
_QUERY_SLACK = 1e-9


@dataclass(frozen=True)
class NeighborList:
    """Pairs ``(i, j)`` with ``i < j``, their minimum-image vectors and
    center distances."""

    i: np.ndarray
    j: np.ndarray
    r_vec: np.ndarray
    """``(npairs, 3)`` minimum-image vector from i to j."""
    dist: np.ndarray

    @property
    def n_pairs(self) -> int:
        return int(len(self.i))


def neighbor_pairs(
    system: ParticleSystem, *, max_gap: float | None = None, cutoff: float | None = None
) -> NeighborList:
    """Find interacting pairs of a particle system.

    Exactly one of ``max_gap`` (surface-to-surface) or ``cutoff``
    (center-to-center) must be given.  With ``max_gap``, the search uses
    a conservative center cutoff of ``2*max_radius + max_gap`` and then
    filters pairs by their individual surface gaps — so unequal radii
    are handled exactly.
    """
    if (max_gap is None) == (cutoff is None):
        raise ValueError("specify exactly one of max_gap or cutoff")
    if cutoff is None:
        if max_gap < 0:
            raise ValueError("max_gap must be non-negative")
        cutoff = 2.0 * float(system.radii.max()) + float(max_gap)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    pos = system.positions
    finite = np.flatnonzero(np.isfinite(pos).all(axis=1))
    tree = cKDTree(pos[finite], boxsize=system.box)
    found = tree.query_pairs(cutoff * (1.0 + _QUERY_SLACK), output_type="ndarray")
    # `finite` is increasing, so mapping back keeps i < j.
    i, j = finite[found[:, 0]], finite[found[:, 1]]
    r = system.minimum_image(pos[j] - pos[i])
    dist = np.linalg.norm(r, axis=1)
    keep = dist <= cutoff
    if max_gap is not None:
        keep &= dist - (system.radii[i] + system.radii[j]) <= max_gap
    sel = np.flatnonzero(keep)
    sel = sel[np.lexsort((j[sel], i[sel]))]
    return NeighborList(i=i[sel], j=j[sel], r_vec=r[sel], dist=dist[sel])

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

Neighbour reuse.  Particles barely move from one configuration to the
next, so :class:`VerletList` searches once with a skin of
:data:`SKIN` mean radii on top of the gap and then only filters that
candidate set, through the same filter :func:`neighbor_pairs` uses,
until some particle has moved ``skin/2`` from where the set was
searched.  Its pair lists therefore equal a fresh search byte for byte,
so the list is a cache: it changes how often the tree is queried,
never a trajectory, and is not part of any checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from repro.stokesian.particles import ParticleSystem

__all__ = ["neighbor_pairs", "NeighborList", "VerletList", "SKIN"]

# Relative slack on the tree's radius: its distances may round
# differently from the minimum-image norms below, which decide.
_QUERY_SLACK = 1e-9

SKIN = 0.1
"""Skin of :class:`VerletList`'s candidate search, in mean radii."""


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
    sel, r, dist = _within(system, i, j, cutoff, max_gap)
    sel = sel[np.lexsort((j[sel], i[sel]))]
    return NeighborList(i=i[sel], j=j[sel], r_vec=r[sel], dist=dist[sel])


def _within(
    system: ParticleSystem,
    i: np.ndarray,
    j: np.ndarray,
    cutoff: float,
    max_gap: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(kept, r, dist)`` of candidate pairs: the indices of those within
    ``cutoff`` (and ``max_gap``), and every candidate's minimum-image
    vector and distance.  The one filter of both searches, so a skin
    list keeps exactly the pairs, and the bits, of a fresh search."""
    r = system.minimum_image(system.positions[j] - system.positions[i])
    dist = np.linalg.norm(r, axis=1)
    keep = dist <= cutoff
    if max_gap is not None:
        keep &= dist - (system.radii[i] + system.radii[j]) <= max_gap
    return np.flatnonzero(keep), r, dist


class VerletList:
    """The pairs of a moving system within ``max_gap``, from a candidate
    set searched with a skin (see the module docstring).

    :meth:`pairs` equals ``neighbor_pairs(system, max_gap=max_gap)`` in
    all four arrays.  The candidates are re-searched when some particle
    has moved ``skin/2`` or more since they were (or its displacement is
    not finite), or when ``n``, the radii, the box or ``max_gap`` differ.
    """

    def __init__(self) -> None:
        # Copies of the configuration the candidates were searched at.
        self._ref: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._max_gap = 0.0
        self._half_skin = 0.0
        self._candidates: NeighborList | None = None

    def _stale(self, system: ParticleSystem, max_gap: float) -> bool:
        if self._ref is None:
            return True
        positions, radii, box = self._ref
        if (
            max_gap != self._max_gap
            or not np.array_equal(radii, system.radii)
            or not np.array_equal(box, system.box)
        ):
            return True
        moved = system.minimum_image(system.positions - positions)
        largest = float(np.max(np.einsum("ij,ij->i", moved, moved), initial=0.0))
        # A non-finite displacement fails the comparison and rebuilds.
        return not largest * (1.0 + _QUERY_SLACK) < self._half_skin**2

    def pairs(self, system: ParticleSystem, max_gap: float) -> NeighborList:
        """Pairs with surface gap ``<= max_gap``, in canonical order."""
        max_gap = float(max_gap)
        if max_gap < 0:
            raise ValueError("max_gap must be non-negative")
        if self._stale(system, max_gap):
            skin = SKIN * float(np.mean(system.radii))
            self._candidates = neighbor_pairs(system, max_gap=max_gap + skin)
            self._ref = (system.positions.copy(), system.radii.copy(), system.box.copy())
            self._max_gap, self._half_skin = max_gap, 0.5 * skin
        i, j = self._candidates.i, self._candidates.j
        cutoff = 2.0 * float(system.radii.max()) + max_gap
        sel, r, dist = _within(system, i, j, cutoff, max_gap)
        return NeighborList(i=i[sel], j=j[sel], r_vec=r[sel], dist=dist[sel])

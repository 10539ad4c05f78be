"""Configuration generation at prescribed volume occupancy.

The paper simulates systems at 10%, 30% and 50% volume occupancy ("the
volume occupancy of molecules in the E. coli cytoplasm may be as high
as 40 percent").  Random sequential addition cannot reach 50% for
spheres, so :func:`random_configuration` uses the standard two-phase
recipe:

1. place particles uniformly at random (overlaps allowed);
2. :func:`relax_overlaps` — iteratively push each overlapping pair
   apart along its center line (a deterministic soft-sphere relaxation,
   equivalent to the Lubachevsky–Stillinger spirit at fixed radii)
   until no overlap exceeds the tolerance.

The result is a disordered, non-overlapping configuration at exactly
the requested volume fraction (the box is sized from the radii).
"""

from __future__ import annotations

import numpy as np

from repro.stokesian.neighbors import VerletList
from repro.stokesian.particles import ParticleSystem, sample_ecoli_radii
from repro.util.rng import RngLike, as_rng

__all__ = ["box_edge_for_fraction", "random_configuration", "relax_overlaps"]

# Placements :func:`random_configuration` tries.  Large spheres in a
# small box can jam one placement (n=9, phi=0.5 with three of the
# largest radii does); a fresh uniform one from the same generator then
# relaxes.  Each is drawn only after the one before failed.
_PLACEMENTS = 4


def box_edge_for_fraction(radii: np.ndarray, volume_fraction: float) -> float:
    """Cubic box edge that puts the given spheres at ``volume_fraction``."""
    if not 0 < volume_fraction < 0.74:
        raise ValueError("volume_fraction must be in (0, 0.74)")
    total = (4.0 / 3.0) * np.pi * float(np.sum(np.asarray(radii) ** 3))
    return float((total / volume_fraction) ** (1.0 / 3.0))


def default_clearance(volume_fraction: float) -> float:
    """Typical surface-gap fraction at a given crowding level.

    In a hard-sphere fluid the mean surface separation scales like
    ``a * ((phi_rcp / phi)^(1/3) - 1)`` with ``phi_rcp ~= 0.64`` (random
    close packing).  This default uses the square of that factor (gaps
    of *nearby* pairs shrink faster than the mean), clamped to
    ``[2e-4, 0.1]``.  The resulting resistance-matrix conditioning
    reproduces the paper's behaviour: "systems with high volume
    occupancies tend to have pairs of particles which are extremely
    close to each other, resulting in ill-conditioning".
    """
    if not 0 < volume_fraction < 0.64:
        raise ValueError("volume_fraction must be in (0, 0.64)")
    factor = (0.64 / volume_fraction) ** (1.0 / 3.0) - 1.0
    return float(min(0.1, max(2e-4, 0.08 * factor**2)))


def relax_overlaps(
    system: ParticleSystem,
    *,
    max_sweeps: int = 5000,
    tolerance: float = 1e-7,
    push_factor: float = 1.05,
) -> ParticleSystem:
    """Remove sphere overlaps by pairwise separation pushes.

    Each sweep finds all overlapping pairs and moves both partners apart
    along the center line by half the overlap (times ``push_factor`` for
    strict clearance), accumulating moves before applying them (Jacobi
    style) so the result is order-independent and deterministic.

    Raises ``RuntimeError`` if the target cannot be reached in
    ``max_sweeps`` (volume fraction too high for this simple scheme).
    """
    if push_factor <= 1.0:
        raise ValueError("push_factor must exceed 1")
    sys_ = system
    # The skin list re-searches only once the particles have moved far
    # enough to meet a pair it does not hold, and its overlap list
    # always equals a fresh search.
    verlet = VerletList()
    for _ in range(max_sweeps):
        nl = verlet.pairs(sys_, 0.0)
        overlap = (sys_.radii[nl.i] + sys_.radii[nl.j]) - nl.dist
        bad = overlap > tolerance
        if not np.any(bad):
            return sys_
        i, j = nl.i[bad], nl.j[bad]
        d_bad, r_bad, ov = nl.dist[bad], nl.r_vec[bad], overlap[bad]
        # Degenerate coincident centers: push along a fixed direction.
        unit = np.where(
            d_bad[:, None] > 1e-12,
            r_bad / np.maximum(d_bad, 1e-12)[:, None],
            [1.0, 0.0, 0.0],
        )
        push = 0.5 * push_factor * ov[:, None] * unit
        delta = np.zeros_like(sys_.positions)
        np.add.at(delta, i, -push)
        np.add.at(delta, j, push)
        sys_ = sys_.displaced(delta)
    raise RuntimeError(
        f"could not remove overlaps in {max_sweeps} sweeps "
        f"(volume fraction {system.volume_fraction:.2f} may be too high)"
    )


def random_configuration(
    n: int,
    volume_fraction: float,
    *,
    radii: np.ndarray | None = None,
    rng: RngLike = None,
    max_sweeps: int = 5000,
    clearance: float | None = None,
) -> ParticleSystem:
    """Build a non-overlapping random configuration.

    Parameters
    ----------
    n:
        Number of particles.
    volume_fraction:
        Target occupancy (the paper tests 0.1, 0.3, 0.5).
    radii:
        Per-particle radii; drawn from the Table IV E. coli distribution
        when omitted.
    rng:
        Seed or generator for placement (and radii if drawn).
    max_sweeps:
        Relaxation sweep budget of each placement.
    clearance:
        Overlaps are relaxed with radii inflated by ``1 + clearance``,
        so the returned configuration has every surface gap at least
        ``clearance * (a_i + a_j)`` — particles are close (the
        lubrication regime) but not touching.  When ``None`` (default)
        the clearance follows the hard-sphere mean-gap scaling
        :func:`default_clearance`: crowded systems get much smaller
        gaps, which is exactly what makes the paper's 50%-occupancy
        resistance matrices ill-conditioned (~160 CG iterations) while
        10% systems stay easy (~16).
    """
    gen = as_rng(rng)
    if radii is None:
        radii = sample_ecoli_radii(n, gen)
    radii = np.asarray(radii, dtype=np.float64)
    if radii.shape != (n,):
        raise ValueError(f"radii must have shape ({n},)")
    edge = box_edge_for_fraction(radii, volume_fraction)
    box = np.array([edge, edge, edge])
    if np.any(2 * radii.max() > box):
        raise ValueError(
            "volume fraction too low for this n: the box cannot hold the "
            "largest sphere; increase n or volume_fraction"
        )
    if clearance is None:
        clearance = default_clearance(volume_fraction)
    if not 0 <= clearance < 0.2:
        raise ValueError("clearance must be in [0, 0.2)")
    for attempt in range(_PLACEMENTS):
        if attempt == 0 and volume_fraction >= 0.35:
            # Initial placement biased toward a jittered lattice at high
            # density (pure uniform placement at phi=0.5 relaxes slowly).
            per_side = int(np.ceil(n ** (1.0 / 3.0)))
            grid = (np.arange(per_side) + 0.5) / per_side * edge
            lattice = np.stack(
                np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1
            ).reshape(-1, 3)[:n]
            jitter = gen.uniform(-0.25, 0.25, size=(n, 3)) * edge / per_side
            positions = lattice + jitter
        else:
            positions = gen.uniform(0.0, edge, size=(n, 3))
        inflated = ParticleSystem(
            positions=positions, radii=radii * (1.0 + clearance), box=box
        )
        try:
            relaxed = relax_overlaps(inflated, max_sweeps=max_sweeps)
            return ParticleSystem(positions=relaxed.positions, radii=radii, box=box)
        except RuntimeError:
            if attempt == _PLACEMENTS - 1:
                raise

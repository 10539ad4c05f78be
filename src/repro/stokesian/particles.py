"""Particle systems: periodic box, polydisperse spheres, Table IV radii.

The paper's test system is "a collection of 300,000 spheres of various
radii in a simulation box with periodic boundary conditions.  The
spheres represent proteins in a distribution of sizes that matches the
distribution of sizes of proteins in the cytoplasm of E. coli"
(Table IV, from Ando & Skolnick 2010).  :data:`ECOLI_RADII_ANGSTROM`
and :data:`ECOLI_RADII_FRACTIONS` reproduce that table exactly;
:func:`sample_ecoli_radii` draws from it.

Lengths are in arbitrary units (the paper's are Angstroms); the library
is unit-agnostic as long as radii, box, viscosity and kT are consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.util.rng import RngLike, as_rng
from repro.util.validation import check_finite

__all__ = [
    "ECOLI_RADII_ANGSTROM",
    "ECOLI_RADII_FRACTIONS",
    "sample_ecoli_radii",
    "ParticleSystem",
]

# Table IV of the paper: distribution of particle radii (Angstroms) for
# the E. coli cytoplasm model.
ECOLI_RADII_ANGSTROM = np.array(
    [
        115.24, 85.23, 66.49, 49.16, 45.43, 43.06, 42.48, 39.16,
        36.76, 35.94, 31.71, 27.77, 25.75, 24.01, 21.42,
    ]
)
ECOLI_RADII_FRACTIONS = np.array(
    [
        2.43, 3.16, 6.55, 0.97, 0.49, 3.64, 2.91, 2.67,
        8.01, 8.01, 10.92, 25.97, 8.25, 9.95, 6.07,
    ]
) / 100.0


def sample_ecoli_radii(n: int, rng: RngLike = None) -> np.ndarray:
    """Draw ``n`` radii from the Table IV E. coli protein distribution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = as_rng(rng)
    probs = ECOLI_RADII_FRACTIONS / ECOLI_RADII_FRACTIONS.sum()
    return gen.choice(ECOLI_RADII_ANGSTROM, size=n, p=probs)


@dataclass(frozen=True, eq=False)
class ParticleSystem:
    """``n`` spheres in a periodic rectangular box.

    Attributes
    ----------
    positions:
        ``(n, 3)`` array; always stored wrapped into ``[0, box)``.
    radii:
        ``(n,)`` array of sphere radii.
    box:
        ``(3,)`` box edge lengths.
    """

    positions: np.ndarray
    radii: np.ndarray
    box: np.ndarray

    def __post_init__(self) -> None:
        positions = np.array(self.positions, dtype=np.float64)
        radii = np.array(self.radii, dtype=np.float64)
        box = np.array(self.box, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError("positions must have shape (n, 3)")
        if radii.shape != (positions.shape[0],):
            raise ValueError("radii must have shape (n,)")
        if box.shape != (3,) or np.any(box <= 0):
            raise ValueError("box must be 3 positive edge lengths")
        if np.any(radii <= 0):
            raise ValueError("all radii must be positive")
        # Geometry must be finite; positions are deliberately left
        # permissive — bare drivers propagate a NaN state loudly rather
        # than masking it (the health layer is what flags it).
        check_finite("radii", radii)
        check_finite("box", box)
        if np.any(2 * radii.max() > box):
            raise ValueError("box must be larger than the largest sphere diameter")
        positions = np.mod(positions, box)
        # np.mod rounds a tiny negative coordinate up to exactly `box`.
        positions[positions >= box] = 0.0
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "box", box)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of particles."""
        return int(self.positions.shape[0])

    @property
    def dof(self) -> int:
        """Translational degrees of freedom (``3 n``)."""
        return 3 * self.n

    @property
    def volume(self) -> float:
        return float(np.prod(self.box))

    @property
    def volume_fraction(self) -> float:
        """Fraction of the box volume occupied by spheres."""
        return float((4.0 / 3.0) * np.pi * np.sum(self.radii**3) / self.volume)

    # ------------------------------------------------------------------
    def minimum_image(self, displacement: np.ndarray) -> np.ndarray:
        """Wrap displacement vectors to their minimum periodic image."""
        d = np.asarray(displacement, dtype=np.float64)
        return d - self.box * np.round(d / self.box)

    def pair_vector(self, i: int, j: int) -> np.ndarray:
        """Minimum-image vector from particle ``i`` to particle ``j``."""
        return self.minimum_image(self.positions[j] - self.positions[i])

    def surface_gap(self, i: int, j: int) -> float:
        """Surface-to-surface separation of particles ``i`` and ``j``
        (negative when overlapping)."""
        dist = float(np.linalg.norm(self.pair_vector(i, j)))
        return dist - float(self.radii[i] + self.radii[j])

    def displaced(self, delta: np.ndarray) -> "ParticleSystem":
        """Return a new system with positions moved by ``delta``.

        ``delta`` may be ``(n, 3)`` or flat ``(3n,)`` (solver layout).
        Positions are re-wrapped into the box.
        """
        delta = np.asarray(delta, dtype=np.float64)
        if delta.shape == (self.dof,):
            delta = delta.reshape(self.n, 3)
        if delta.shape != (self.n, 3):
            raise ValueError(f"delta must have shape ({self.n}, 3) or ({self.dof},)")
        return ParticleSystem(
            positions=self.positions + delta, radii=self.radii, box=self.box
        )

    def with_positions(self, positions: np.ndarray) -> "ParticleSystem":
        return ParticleSystem(positions=positions, radii=self.radii, box=self.box)

    def max_overlap(self, pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> float:
        """Deepest pair overlap (0 when none).

        ``pairs`` may supply candidate index arrays; without it every
        pair is checked (small systems only).
        """
        if pairs is None:
            i, j = np.triu_indices(self.n, k=1)
        else:
            i, j = pairs
        if len(i) == 0:
            return 0.0
        d = self.minimum_image(self.positions[j] - self.positions[i])
        dist = np.linalg.norm(d, axis=1)
        overlap = (self.radii[i] + self.radii[j]) - dist
        return float(max(0.0, overlap.max()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParticleSystem(n={self.n}, phi={self.volume_fraction:.3f}, "
            f"box={self.box.tolist()})"
        )

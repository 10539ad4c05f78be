"""Stokesian dynamics (SD) substrate.

Everything the paper's application layer needs, built from scratch:

* :mod:`repro.stokesian.particles` — periodic simulation box,
  polydisperse spheres, and the E. coli cytoplasm radii distribution of
  Table IV;
* :mod:`repro.stokesian.packing` — random configurations at prescribed
  volume occupancy (10–50% in the paper) via random placement plus
  overlap relaxation;
* :mod:`repro.stokesian.neighbors` — periodic k-d tree neighbor search;
* :mod:`repro.stokesian.lubrication` — two-sphere lubrication
  resistance functions for unequal spheres (squeeze and shear modes,
  after Jeffrey & Onishi 1984 / Kim & Karrila 1991);
* :mod:`repro.stokesian.resistance` — assembly of the sparse resistance
  matrix ``R = muF*I + Rlub`` in BCRS form (the Torres & Gilbert
  far-field-effective-viscosity approximation the paper uses);
* :mod:`repro.stokesian.mobility` — Oseen and Rotne–Prager–Yamakawa
  mobility tensors (the dense ``M_infinity`` component, used by the
  Brownian dynamics baseline);
* :mod:`repro.stokesian.chebyshev` — shifted Chebyshev approximation of
  the matrix square root (Fixman 1986);
* :mod:`repro.stokesian.brownian` — Brownian forces ``f^B = S(R) z``
  with the proper covariance;
* :mod:`repro.stokesian.integrators` — explicit midpoint (the paper's
  second-order scheme), its overlap-avoiding variant, and first-order
  Euler for drift comparisons;
* :mod:`repro.stokesian.dynamics` — the Algorithm 1 ("original")
  simulation driver;
* :mod:`repro.stokesian.brownian_dynamics` — the Brownian dynamics
  (Ermak–McCammon) baseline method SD is contrasted against.
"""

from repro.stokesian.particles import (
    ParticleSystem,
    ECOLI_RADII_ANGSTROM,
    ECOLI_RADII_FRACTIONS,
    sample_ecoli_radii,
)
from repro.stokesian.packing import random_configuration, relax_overlaps
from repro.stokesian.neighbors import neighbor_pairs
from repro.stokesian.lubrication import (
    squeeze_resistance,
    shear_resistance,
    pair_resistance_block,
)
from repro.stokesian.resistance import (
    build_resistance_matrix,
    far_field_viscosity,
)
from repro.stokesian.mobility import rpy_mobility_matrix, oseen_mobility_matrix
from repro.stokesian.ewald import ewald_rpy_mobility_matrix, EwaldParameters
from repro.stokesian.chebyshev import ChebyshevSqrt, lanczos_spectrum_bounds
from repro.stokesian.brownian import BrownianForceGenerator
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.brownian_dynamics import BrownianDynamics
from repro.stokesian.cholesky_dynamics import CholeskyStokesianDynamics
from repro.stokesian.bonded import HarmonicBonds, chain_bonds
from repro.stokesian.analysis import (
    TrajectoryAnalyzer,
    contact_pairs,
    radial_distribution,
)

__all__ = [
    "ParticleSystem",
    "ECOLI_RADII_ANGSTROM",
    "ECOLI_RADII_FRACTIONS",
    "sample_ecoli_radii",
    "random_configuration",
    "relax_overlaps",
    "neighbor_pairs",
    "squeeze_resistance",
    "shear_resistance",
    "pair_resistance_block",
    "build_resistance_matrix",
    "far_field_viscosity",
    "rpy_mobility_matrix",
    "oseen_mobility_matrix",
    "ewald_rpy_mobility_matrix",
    "EwaldParameters",
    "ChebyshevSqrt",
    "lanczos_spectrum_bounds",
    "BrownianForceGenerator",
    "SDParameters",
    "StokesianDynamics",
    "BrownianDynamics",
    "CholeskyStokesianDynamics",
    "HarmonicBonds",
    "chain_bonds",
    "TrajectoryAnalyzer",
    "contact_pairs",
    "radial_distribution",
]

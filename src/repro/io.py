"""Persistence: save/load matrices, particle systems, and run records.

NPZ-based, dependency-free serialization so workloads (e.g. the Table I
matrices, packed configurations that took minutes to relax) can be
built once and reused across benchmark sessions or shared between
machines.

All writers (:func:`atomic_savez`, :func:`atomic_write_text`) go
through :func:`repro.durable.publish`, so a crash mid-write never
leaves a truncated file under the destination name — the guarantee the
resilience layer's checkpoints depend on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.durable import fsync_dir, publish
from repro.sparse.bcrs import BCRSMatrix
from repro.stokesian.particles import ParticleSystem

__all__ = [
    "atomic_savez",
    "atomic_write_text",
    "fsync_dir",
    "save_bcrs",
    "load_bcrs",
    "save_system",
    "load_system",
]

PathLike = Union[str, Path]


def atomic_savez(
    path: PathLike,
    *,
    compress: bool = True,
    fsync: bool = True,
    **arrays: np.ndarray,
) -> Path:
    """``np.savez(_compressed)`` through :func:`repro.durable.publish`:
    on any failure the destination is left untouched.

    ``compress=False`` and ``fsync=False`` trade durability-vs-speed:
    checkpoints use both because their cost budget is a few percent of
    one time step, their threat model is process death (where the page
    cache survives), and torn disk state is caught by the checkpoint
    checksum plus the keep-K retention fallback.  Long-lived artifacts
    (matrices, packed configurations) keep the durable defaults.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    savez = np.savez_compressed if compress else np.savez
    return publish(
        path,
        lambda fh: savez(fh, **arrays),
        writer="atomic_savez",
        fsync=fsync,
    )


def atomic_write_text(
    path: PathLike, text: str, *, fsync: bool = True
) -> Path:
    """Write ``text`` with the same write-to-temp + ``os.replace``
    guarantee as :func:`atomic_savez` (used for job-spec drop files)."""
    return publish(
        path, lambda fh: fh.write(text.encode("utf-8")),
        writer="atomic_write_text", fsync=fsync,
    )


def save_bcrs(path: PathLike, A: BCRSMatrix) -> None:
    """Serialize a BCRS matrix to ``.npz`` (atomically)."""
    atomic_savez(
        path,
        kind="bcrs",
        row_ptr=A.row_ptr,
        col_ind=A.col_ind,
        blocks=A.blocks,
        nb_cols=np.int64(A.nb_cols),
    )


def load_bcrs(path: PathLike) -> BCRSMatrix:
    """Load a BCRS matrix saved by :func:`save_bcrs`."""
    with np.load(path) as data:
        if str(data.get("kind", "")) != "bcrs":
            raise ValueError(f"{path} does not contain a BCRS matrix")
        return BCRSMatrix(
            row_ptr=data["row_ptr"],
            col_ind=data["col_ind"],
            blocks=data["blocks"],
            nb_cols=int(data["nb_cols"]),
        )


def save_system(path: PathLike, system: ParticleSystem) -> None:
    """Serialize a particle system to ``.npz`` (atomically)."""
    atomic_savez(
        path,
        kind="particle_system",
        positions=system.positions,
        radii=system.radii,
        box=system.box,
    )


def load_system(path: PathLike) -> ParticleSystem:
    """Load a particle system saved by :func:`save_system`."""
    with np.load(path) as data:
        if str(data.get("kind", "")) != "particle_system":
            raise ValueError(f"{path} does not contain a particle system")
        return ParticleSystem(
            positions=data["positions"],
            radii=data["radii"],
            box=data["box"],
        )

"""Engine-aware extensions of the Section IV.B time model.

The paper's model predicts ``T(m) = max(Tbw, Tcomp)`` from machine
peaks — the *best possible* kernel.  Real engines reach different
fractions of those peaks (the NumPy reference kernel streams extra
temporaries; the generated C kernel runs at the STREAM limit), so
comparing one model against every engine either flags good engines or
excuses bad ones.

:class:`EngineProfile` captures an engine's efficiency as two scale
factors on the raw model, and :func:`calibrate_profile` fits the single
time scale from measurements at one (or a few) ``m`` — after which the
model must *predict* other ``m`` within the roofline report threshold
for the profile to be considered valid (``bench_kernels`` records
exactly this check, closing the "flag but never converge" gap of PR 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Union

from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.roofline import MatrixShape, time_bandwidth

__all__ = ["EngineProfile", "calibrate_profile", "trusted_profiles"]


def trusted_profiles(
    profiles: Union[Mapping[str, "EngineProfile"], Iterable["EngineProfile"]],
    quarantined: Iterable[str],
) -> Dict[str, "EngineProfile"]:
    """Drop profiles of engines the watchdog has quarantined.

    Performance-model comparisons (roofline validation, engine ranking)
    must not reason about an engine whose *answers* are distrusted —
    a fast wrong kernel would win every ranking.  ``quarantined`` is a
    set of engine names, typically
    ``get_engine_watch().quarantined_engines(shape)``.
    """
    banned = set(quarantined)
    if isinstance(profiles, Mapping):
        items = profiles.items()
    else:
        items = ((p.engine, p) for p in profiles)
    return {name: p for name, p in items if p.engine not in banned}


@dataclass(frozen=True)
class EngineProfile:
    """Efficiency scales turning the peak model into an engine model.

    Attributes
    ----------
    engine:
        Engine name this profile describes (registry vocabulary).
    bw_scale:
        Fraction of ``machine.stream_bw`` the engine sustains (< 1 for
        kernels with extra temporaries or strided access).
    flop_scale:
        Fraction of ``machine.flop_rate`` the engine sustains.
    """

    engine: str
    bw_scale: float = 1.0
    flop_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.bw_scale <= 0 or self.flop_scale <= 0:
            raise ValueError("bw_scale and flop_scale must be positive")

    # ------------------------------------------------------------------
    def time_bandwidth(
        self, shape: MatrixShape, m: int, machine: MachineSpec,
        k: float = 0.0,
    ) -> float:
        """``Tbw(m)`` at the engine's effective bandwidth."""
        return time_bandwidth(shape, m, machine, k) / self.bw_scale

    def time_compute(
        self, shape: MatrixShape, m: int, machine: MachineSpec
    ) -> float:
        """``Tcomp(m)`` at the engine's effective flop rate."""
        return shape.fa * m * shape.nnzb / (
            machine.flop_rate * self.flop_scale
        )

    def time(
        self, shape: MatrixShape, m: int, machine: MachineSpec,
        k: float = 0.0,
    ) -> float:
        """``T(m) = max(Tbw, Tcomp)`` under this profile."""
        return max(
            self.time_bandwidth(shape, m, machine, k),
            self.time_compute(shape, m, machine),
        )


def calibrate_profile(
    engine: str,
    shape: MatrixShape,
    machine: MachineSpec,
    samples: Mapping[int, float],
    *,
    k: float = 0.0,
) -> EngineProfile:
    """Fit an :class:`EngineProfile` from measured seconds per call.

    ``samples`` maps ``m -> measured seconds``.  The two scales are
    fitted from the two ends of the roofline — exactly where each bound
    is observable:

    * ``bw_scale`` from the *smallest* sampled ``m``, where GSPMV is
      bandwidth-dominated (always true at m=1 in practice), as the
      ratio of the raw bandwidth bound to the measured time;
    * ``flop_scale`` from the *largest* sampled ``m``, where the
      per-vector work dominates, as the ratio of the raw compute bound
      to the measured time.

    The profile therefore reproduces the two calibration endpoints (up
    to the max() kink) and must *predict* every interior ``m`` — which
    is what the roofline validation then checks.  With a single sample
    one common efficiency is applied to both scales.

    Fitted scales may exceed 1: ``machine.kernel_gflops`` is calibrated
    with the reference NumPy kernel, which compiled engines outrun.
    """
    if not samples:
        raise ValueError("samples must contain at least one (m, seconds)")
    for m, measured in samples.items():
        if measured <= 0:
            raise ValueError(f"measured time for m={m} must be positive")
    base = EngineProfile(engine=engine)
    m_lo, m_hi = min(samples), max(samples)
    if m_lo == m_hi:
        scale = samples[m_lo] / base.time(shape, m_lo, machine, k)
        efficiency = 1.0 / scale
        return EngineProfile(
            engine=engine, bw_scale=efficiency, flop_scale=efficiency
        )
    bw_scale = base.time_bandwidth(shape, m_lo, machine, k) / samples[m_lo]
    flop_scale = base.time_compute(shape, m_hi, machine) / samples[m_hi]
    return EngineProfile(
        engine=engine, bw_scale=bw_scale, flop_scale=flop_scale
    )

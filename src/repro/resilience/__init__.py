"""Resilience layer: checkpoint/restart, fault injection, recovery.

Three cooperating pieces (DESIGN.md §9):

``repro.resilience.checkpoint``
    Atomic, checksummed, versioned NPZ checkpoints with a retention
    policy; resuming reproduces the uninterrupted trajectory
    bit-for-bit.
``repro.resilience.faults``
    Deterministic, seedable fault plans striking named sites in the
    drivers and the distributed layer; sites are cheap no-ops when no
    plan is armed.
``repro.resilience.runner``
    :class:`ResilientRunner` wraps either dynamics driver with bounded
    step retry (dt backoff + heal, chunk quarantine), graceful MRHS
    m-degradation, rank recovery, and periodic checkpoints; its one
    budget knob is ``max_retries``, the rest are module constants.

The runner module is imported lazily: the simulation drivers import
``repro.resilience.faults`` at module load, and an eager runner import
here would close an import cycle back into the drivers.
"""

from repro.resilience.checkpoint import (
    FORMAT_VERSION,
    CheckpointCorruptionError,
    CheckpointManager,
    pack_state,
    unpack_state,
)
from repro.resilience.faults import (
    BlockSolveBroken,
    FaultEvent,
    FaultInjected,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RankFailure,
    SimulationKilled,
    arm,
    armed,
    disarm,
    fire_fault,
)

__all__ = [
    "FORMAT_VERSION",
    "CheckpointCorruptionError",
    "CheckpointManager",
    "pack_state",
    "unpack_state",
    "BlockSolveBroken",
    "FaultEvent",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RankFailure",
    "SimulationKilled",
    "arm",
    "armed",
    "disarm",
    "fire_fault",
    "ResilienceExhausted",
    "ResilientRunner",
    "RunReport",
    "resume_driver",
]

_LAZY_RUNNER = {
    "ResilienceExhausted", "ResilientRunner", "RunReport", "resume_driver"
}


def __getattr__(name: str):
    if name in _LAZY_RUNNER:
        from repro.resilience import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

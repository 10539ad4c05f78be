"""Deterministic fault injection for resilience testing.

A :class:`FaultPlan` names *where* (a fault site), *when* (a context
match such as ``{"step": 5}`` or ``{"chunk": 2}``), *what* (the fault
kind) and *how often* (``times``) faults strike.  An armed
:class:`FaultInjector` executes the plan; instrumented code calls
:func:`fire_fault` at named sites and interprets the returned spec.

Design constraints:

* **Cheap when disarmed.**  With no injector armed, :func:`fire_fault`
  is a single global-``None`` check — simulation hot paths pay nothing.
* **Deterministic.**  Matching is by exact context equality and a
  per-spec fire budget; data corruption draws from a generator seeded
  by the plan, so a given plan produces the identical fault sequence
  on every run.
* **Observable.**  Every fire is recorded as a :class:`FaultEvent` so
  tests (and post-mortems) can assert exactly which faults struck.

Fault-site catalogue (see DESIGN.md §9):

==========================  ==================================================
site                        instrumented location
==========================  ==================================================
``brownian.forcing``        ``StokesianDynamics.step`` — corrupts ``f^B``
``mrhs.block_breakdown``    ``MrhsStokesianDynamics._solve_block`` — raises
                            :class:`BlockSolveBroken` before the block solve
``comm.exchange``           ``DistributedGspmv`` boundary send — mutates a
                            boundary block in transit; arming it selects the
                            robust exchange, which repairs it or raises
                            :class:`RankFailure`
``cluster.straggler``       ``MultiNodeTimeModel.rank_time`` — scales one
                            rank's time by ``factor``
``runner.abort``            ``ResilientRunner`` step loop — raises
                            :class:`SimulationKilled` (simulated process kill)
``engine.compile``          ``kernels_cgen._compile`` — raises
                            :class:`~repro.sparse.enginewatch.CompileError`
                            (compiler missing/crashing)
``engine.load``             ``kernels_cgen._load_checked`` — truncates the
                            cached ``.so`` in place so the checksum gate and
                            delete-and-rebuild recovery are exercised
``engine.multiply``         ``KernelRegistry.multiply`` — mutates a
                            finished product (``corrupt``/``scale`` = wrong
                            numbers, ``nan`` = poisoned kernel) or demotes it
                            (``raise``); context carries ``engine``, ``b``,
                            ``m``
==========================  ==================================================
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FaultEvent",
    "FaultInjected",
    "BlockSolveBroken",
    "SimulationKilled",
    "RankFailure",
    "fire_fault",
    "arm",
    "disarm",
    "active_injector",
    "armed",
    "ENGINE_FAULT_SITES",
    "register_fault_site",
    "fault_site_catalogue",
]

#: The engine-tier fault sites (DESIGN.md §14); every one is exercised
#: end-to-end by ``benchmarks/bench_enginefault.py``.
ENGINE_FAULT_SITES = (
    "engine.compile",
    "engine.load",
    "engine.multiply",
)

#: Registry of every injectable fault site: ``name -> (layer,
#: description)``.  The core sites are seeded here; subsystems whose
#: sites live in optional modules (the job service, the simulated
#: cluster) register theirs at import via :func:`register_fault_site`.
#: ``repro faults list`` renders this catalogue so campaign configs
#: never hardcode site names.
_FAULT_SITES: Dict[str, Tuple[str, str]] = {
    "brownian.forcing": (
        "resilience",
        "StokesianDynamics.step — corrupts the Brownian forcing f^B",
    ),
    "mrhs.block_breakdown": (
        "resilience",
        "MrhsStokesianDynamics._solve_block — raises BlockSolveBroken "
        "before the auxiliary block solve",
    ),
    "runner.abort": (
        "resilience",
        "ResilientRunner step loop — raises SimulationKilled "
        "(simulated process kill)",
    ),
    "comm.exchange": (
        "distributed",
        "DistributedGspmv boundary send — mutates a boundary block in "
        "transit; arming it selects the robust exchange, which repairs "
        "the block or raises RankFailure naming the sender",
    ),
    "cluster.straggler": (
        "distributed",
        "MultiNodeTimeModel.rank_time — scales one rank's time by "
        "`factor`",
    ),
    "engine.compile": (
        "engine",
        "kernels_cgen._compile — raises CompileError (compiler "
        "missing/crashing)",
    ),
    "engine.load": (
        "engine",
        "kernels_cgen._load_checked — truncates the cached .so so the "
        "checksum gate and delete-and-rebuild recovery are exercised",
    ),
    "engine.multiply": (
        "engine",
        "KernelRegistry.multiply — mutates a finished product "
        "(corrupt/scale/nan) or demotes the engine (raise)",
    ),
}


def register_fault_site(name: str, layer: str, description: str) -> None:
    """Add (or update) one site in the injectable-fault catalogue."""
    if not name or not layer:
        raise ValueError("fault site name and layer must be non-empty")
    _FAULT_SITES[name] = (layer, description)


def fault_site_catalogue() -> Dict[str, Tuple[str, str]]:
    """Every registered fault site: ``{name: (layer, description)}``.

    Importing :mod:`repro.service` (done lazily here) completes the
    catalogue with the job-service sites; modules already imported have
    registered theirs as a side effect.
    """
    import repro.service  # noqa: F401  (registers service.* sites)

    return dict(sorted(_FAULT_SITES.items()))


class FaultInjected(RuntimeError):
    """Base class for exceptions raised *by* injected faults."""


class BlockSolveBroken(FaultInjected):
    """The auxiliary block solve broke down (injected or detected)."""


class SimulationKilled(FaultInjected):
    """The run was killed mid-flight (simulated process death)."""


class RankFailure(RuntimeError):
    """One or more ranks are unusable: crash-stop dead, or unresponsive
    past the robust halo exchange's full retry ladder (a sender whose
    every copy of a boundary block arrived corrupt included).

    Carries the failed rank ids in ``ranks`` so the recovery layer
    (:class:`~repro.distributed.recovery.RankRecoveryManager`) knows
    whose block rows to re-home.  *Not* a :class:`FaultInjected`: it is
    the detector's report, not the injected fault itself.
    """

    def __init__(self, ranks, message: Optional[str] = None) -> None:
        self.ranks: Tuple[int, ...] = tuple(sorted(int(r) for r in set(ranks)))
        super().__init__(
            message
            or f"rank(s) {list(self.ranks)} failed (crash-stop or "
            "unresponsive past the retry budget)"
        )


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Parameters
    ----------
    site:
        Name of the instrumented site this fault strikes.
    kind:
        ``"raise"`` (site raises its exception), ``"nan"`` (poison one
        element), ``"zero"`` (drop: zero the whole payload), ``"scale"``
        (multiply by ``factor``), ``"corrupt"`` (add seeded noise).
    at:
        Context keys that must match the site's call exactly, e.g.
        ``{"step": 5}``; an empty mapping matches every call.
    times:
        Fire budget; ``None`` for unlimited.
    factor:
        Multiplier for ``"scale"`` faults (straggler slowdown).
    index:
        Flat element index poisoned by ``"nan"`` faults.
    """

    site: str
    kind: str = "raise"
    at: Mapping[str, int] = field(default_factory=dict)
    times: Optional[int] = 1
    factor: float = 10.0
    index: int = 0

    _KINDS = ("raise", "nan", "zero", "scale", "corrupt")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 or None")
        object.__setattr__(self, "at", dict(self.at))

    def matches(self, site: str, context: Mapping[str, int]) -> bool:
        if site != self.site:
            return False
        return all(context.get(k) == v for k, v in self.at.items())

    def mutate(self, array: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Apply a data-corruption kind to a copy of ``array``."""
        out = np.array(array, dtype=np.float64, copy=True)
        if self.kind == "nan":
            out.reshape(-1)[self.index % out.size] = np.nan
        elif self.kind == "zero":
            out[...] = 0.0
        elif self.kind == "scale":
            out *= self.factor
        elif self.kind == "corrupt":
            flat = out.reshape(-1)
            k = min(8, flat.size)
            idx = rng.choice(flat.size, size=k, replace=False)
            flat[idx] += rng.standard_normal(k) * (
                1.0 + np.abs(flat[idx])
            ) * self.factor
        else:  # "raise" carries no data mutation
            raise ValueError(f"kind {self.kind!r} does not mutate data")
        return out


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultSpec` plus the corruption seed."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired."""

    site: str
    context: Mapping[str, int]
    spec_index: int
    fire_number: int
    """1-based count of fires of this spec so far."""


class FaultInjector:
    """Executes a :class:`FaultPlan`; at most one armed at a time."""

    def __init__(self, plan: Union[FaultPlan, FaultSpec, List[FaultSpec]]) -> None:
        if isinstance(plan, FaultSpec):
            plan = FaultPlan(specs=(plan,))
        elif isinstance(plan, (list, tuple)):
            plan = FaultPlan(specs=tuple(plan))
        self.plan = plan
        #: Every site the plan names.  A plan is immutable, so a hot
        #: site that is not in here can skip :meth:`fire` outright:
        #: ``fire`` only acts on a matching spec.
        self.sites = frozenset(spec.site for spec in plan.specs)
        self.rng = np.random.default_rng(plan.seed)
        self.fired: Dict[int, int] = {i: 0 for i in range(len(plan.specs))}
        self.events: List[FaultEvent] = []

    def fire(self, site: str, **context: int) -> Optional[FaultSpec]:
        """Return the first matching spec with budget left, else None."""
        for i, spec in enumerate(self.plan.specs):
            if not spec.matches(site, context):
                continue
            if spec.times is not None and self.fired[i] >= spec.times:
                continue
            self.fired[i] += 1
            self.events.append(
                FaultEvent(
                    site=site,
                    context=dict(context),
                    spec_index=i,
                    fire_number=self.fired[i],
                )
            )
            from repro import telemetry as _telemetry

            hub = _telemetry.active_hub
            if hub is not None:
                # The event's own ``kind`` is the site; the spec's fault
                # flavour rides as an attr under a non-clashing name.
                payload = {
                    "fault_kind" if k == "kind" else k: v
                    for k, v in context.items()
                }
                payload.setdefault("fault_kind", spec.kind)
                hub.emit_event("fault", site, **payload)
            return spec
        return None

    def events_at(self, site: str) -> List[FaultEvent]:
        return [e for e in self.events if e.site == site]


_ACTIVE: Optional[FaultInjector] = None


def fire_fault(site: str, **context: int) -> Optional[FaultSpec]:
    """Site hook: the matched spec when a fault strikes, else ``None``.

    The disarmed path is a single global load — safe to call from any
    hot loop.
    """
    if _ACTIVE is None:
        return None
    return _ACTIVE.fire(site, **context)


def active_injector() -> Optional[FaultInjector]:
    return _ACTIVE


def arm(plan: Union[FaultPlan, FaultInjector, FaultSpec, List[FaultSpec]]) -> FaultInjector:
    """Arm ``plan`` globally; returns the (possibly wrapped) injector."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a fault injector is already armed")
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    _ACTIVE = injector
    return injector


def disarm() -> None:
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def armed(
    plan: Union[FaultPlan, FaultInjector, FaultSpec, List[FaultSpec]],
) -> Iterator[FaultInjector]:
    """``with armed(plan) as injector: ...`` — arm for a scope."""
    injector = arm(plan)
    try:
        yield injector
    finally:
        disarm()

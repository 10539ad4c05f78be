"""Self-tuning MRHS: choose the chunk size per chunk with a policy.

"The above procedure is of course extended to as many right-hand sides
as is profitable.  The parameter m may be larger or smaller depending
on how R_k evolves and on the incremental cost of GSPMV for additional
vectors." (Section III.)  :class:`AutoMrhsStokesianDynamics` closes the
loop: before each chunk it asks an m-selection policy
(:mod:`repro.core.schedule`) for the chunk size — model-driven policies
see the current resistance matrix, adaptive policies see the measured
amortized step times — and runs the chunk at that size.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, List, Optional

from repro.core.mrhs import ChunkRecord, MrhsParameters, MrhsStokesianDynamics
from repro.core.schedule import AdaptiveM
from repro.solvers.diagnostics import SolveDiagnostics
from repro.stokesian.dynamics import SDParameters
from repro.stokesian.particles import ParticleSystem
from repro.util.rng import RngLike

__all__ = ["AutoMrhsStokesianDynamics"]

logger = logging.getLogger(__name__)


class AutoMrhsStokesianDynamics:
    """MRHS with per-chunk m selection.

    Parameters
    ----------
    system, params, rng, forces:
        As for :class:`MrhsStokesianDynamics`.
    policy:
        Any object with ``choose(matrix) -> int`` (``FixedM``,
        ``ModelDrivenM``, ``AdaptiveM``).  If it also has ``observe``,
        it is fed each chunk's measured amortized step time.
    m_cap:
        Hard upper bound on the chunk size regardless of policy.
    """

    def __init__(
        self,
        system: ParticleSystem,
        params: SDParameters = SDParameters(),
        *,
        policy=None,
        m_cap: int = 64,
        rng: RngLike = None,
        forces=None,
        telemetry=None,
    ) -> None:
        if m_cap < 1:
            raise ValueError("m_cap must be >= 1")
        self.policy = policy if policy is not None else AdaptiveM(m=4, m_max=m_cap)
        self.m_cap = int(m_cap)
        from repro.telemetry import NULL_HUB

        self._driver = MrhsStokesianDynamics(
            system, params, MrhsParameters(m=1), rng=rng, forces=forces,
            telemetry=NULL_HUB if telemetry is None else telemetry,
        )

    # ------------------------------------------------------------------
    @property
    def system(self) -> ParticleSystem:
        return self._driver.system

    @property
    def chunks(self) -> List[ChunkRecord]:
        return self._driver.chunks

    @property
    def chosen_ms(self) -> List[int]:
        """The chunk size of each chunk in :attr:`chunks`."""
        return [c.m for c in self.chunks]

    @property
    def block_diagnostics(self) -> List[Optional[SolveDiagnostics]]:
        """Per-chunk auxiliary-solve diagnostics, aligned with
        :attr:`chosen_ms` (robustness telemetry for the m policy)."""
        return [c.block_diagnostics for c in self.chunks]

    def run_chunk(self) -> ChunkRecord:
        """Choose m for the current state, then advance one chunk."""
        R = self._driver.sd.build_matrix()
        m = int(self.policy.choose(R))
        m = max(1, min(self.m_cap, m))
        record = self._driver.run_chunk(m=m)
        diag = record.block_diagnostics
        if diag is not None:
            logger.debug(
                "chunk %d (m=%d): %s", record.chunk_index, m, diag.summary()
            )
            if record.fallback_columns:
                logger.warning(
                    "chunk %d (m=%d): block solve needed single-RHS "
                    "fallback on columns %s",
                    record.chunk_index, m, record.fallback_columns,
                )
        observe = getattr(self.policy, "observe", None)
        if observe is not None:
            observe(record.average_step_time())
        return record

    def run(self, n_chunks: int) -> List[ChunkRecord]:
        if n_chunks < 0:
            raise ValueError("n_chunks must be non-negative")
        return [self.run_chunk() for _ in range(n_chunks)]

    def total_steps(self) -> int:
        return sum(c.m for c in self.chunks)

    # ------------------------------------------------------------------
    # checkpointable state
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, Any]:
        """Serializable trajectory state: the inner driver's and the cap.

        The policy object itself is not serialized (policies may hold
        arbitrary callables); pass an equivalently-configured policy to
        :meth:`from_state` when resuming.  Nor are the chunk records
        that :attr:`chosen_ms` and :attr:`block_diagnostics` read.
        """
        return {
            "kind": "auto",
            "driver": self._driver.get_state(),
            "m_cap": self.m_cap,
        }

    def set_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`get_state` in place; older checkpoints' extra
        ``chosen_ms`` key is ignored."""
        if state.get("kind") != "auto":
            raise ValueError(
                f"not an AutoMrhsStokesianDynamics state: {state.get('kind')!r}"
            )
        self._driver.set_state(state["driver"])
        self.m_cap = int(state["m_cap"])

    @classmethod
    def from_state(
        cls, state: Dict[str, Any], *, policy=None, forces=None, telemetry=None
    ) -> "AutoMrhsStokesianDynamics":
        from repro.telemetry import NULL_HUB

        driver = MrhsStokesianDynamics.from_state(
            state["driver"], forces=forces,
            telemetry=NULL_HUB if telemetry is None else telemetry,
        )
        obj = cls.__new__(cls)
        obj.policy = policy
        obj.m_cap = int(state["m_cap"])
        obj._driver = driver
        if policy is None:
            obj.policy = AdaptiveM(m=4, m_max=obj.m_cap)
        return obj

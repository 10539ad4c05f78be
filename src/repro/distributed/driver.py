"""A distributed simulation driver over the simulated cluster.

:class:`DistributedSimulation` advances a normalized power iteration

    X_{k+1} = (A X_k) / ||A X_k||  (per-column 2-norm)

with every multiply executed on the simulated cluster by
:class:`~repro.distributed.simcluster.DistributedGspmv`.  It is the
distributed analogue of the single-node dynamics drivers: it exposes
the same ``step`` / ``get_state`` / ``set_state`` driver protocol
(plus the distributed-only ``shard_states`` / ``rebuild`` /
``recover``), so :class:`~repro.resilience.runner.ResilientRunner`
and the checkpoint machinery compose with it unchanged.

Why a power iteration: each step is one distributed GSPMV plus a
deterministic columnwise normalization, so (1) the trajectory is
bit-reproducible, (2) every step exercises the full halo exchange, and
(3) the per-column independence means an ``m``-degraded run's surviving
columns evolve exactly as they would have at full width — the property
the degradation tests pin down.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.distributed.mpi_sim import ChannelFaultPlan
from repro.distributed.partition import Partition
from repro.distributed.simcluster import DistributedGspmv
from repro.resilience.faults import RankFailure
from repro.sparse.bcrs import BCRSMatrix

__all__ = ["DistributedSimulation"]


class DistributedSimulation:
    """Normalized distributed power iteration with rank recovery hooks.

    Parameters
    ----------
    A:
        Global block-square matrix.
    partition:
        Row partition over the simulated ranks.
    X0:
        Initial ``(n, m)`` multivector (or ``(n,)``, treated as m=1).
    fault_plan:
        Optional channel-fault plan armed on the cluster substrate.  A
        plan with at least one spec runs every multiply through the
        robust (deadline/retry) halo exchange; without one — or with an
        empty plan — the plain exchange runs, unless the active fault
        injector holds a ``comm.exchange`` spec (see
        :class:`~repro.distributed.simcluster.DistributedGspmv`).
    recovery:
        Optional :class:`~repro.distributed.recovery.RankRecoveryManager`;
        with one attached, :meth:`step` recovers from
        :class:`~repro.resilience.faults.RankFailure` transparently
        (bounded by ``max_recoveries``) instead of propagating it.
    max_recoveries:
        Rank-recovery budget across the simulation's lifetime.
    deadline, max_retries:
        Robust-exchange knobs, forwarded to
        :class:`~repro.distributed.simcluster.DistributedGspmv`.
    """

    def __init__(
        self,
        A: BCRSMatrix,
        partition: Partition,
        X0: np.ndarray,
        *,
        fault_plan: Optional[ChannelFaultPlan] = None,
        recovery: Optional[Any] = None,
        max_recoveries: int = 1,
        deadline: int = 4,
        max_retries: int = 3,
    ) -> None:
        X0 = np.asarray(X0, dtype=np.float64)
        if X0.ndim == 1:
            X0 = X0[:, None]
        if X0.shape[0] != A.n_rows:
            raise ValueError("X0 row count does not match matrix")
        if max_recoveries < 0:
            raise ValueError("max_recoveries must be non-negative")
        self.A = A
        self.partition = partition
        self.X = np.array(X0, copy=True)
        self.step_index = 0
        self.fault_plan = fault_plan
        self.deadline = int(deadline)
        self.max_retries = int(max_retries)
        self.recovery = recovery
        self.max_recoveries = int(max_recoveries)
        self.recoveries: List[Any] = []
        self.dist = self._make_dist()

    def _make_dist(self) -> DistributedGspmv:
        return DistributedGspmv(
            self.A,
            self.partition,
            fault_plan=self.fault_plan,
            deadline=self.deadline,
            max_retries=self.max_retries,
        )

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return int(self.X.shape[1])

    @property
    def n_parts(self) -> int:
        return int(self.partition.n_parts)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """One raw step: distributed multiply + deterministic column
        normalization (no recovery handling)."""
        Y = self.dist.multiply(self.X, step=self.step_index)
        norms = np.linalg.norm(Y, axis=0)
        norms[norms == 0.0] = 1.0
        self.X = Y / norms
        self.step_index += 1

    def step(self) -> None:
        """Advance one step, recovering from rank failure when possible.

        Without an attached recovery manager (or past the
        ``max_recoveries`` budget) the
        :class:`~repro.resilience.faults.RankFailure` propagates — an
        outer policy layer (:class:`~repro.resilience.runner
        .ResilientRunner`) may still catch it and degrade.
        """
        while True:
            try:
                self._advance()
                return
            except RankFailure as exc:
                if (
                    self.recovery is None
                    or len(self.recoveries) >= self.max_recoveries
                    or len(exc.ranks) >= self.n_parts
                ):
                    raise
                self.recover(exc.ranks)

    def run_steps(self, n_steps: int, *, checkpoint_every: int = 0) -> None:
        """Advance ``n_steps``, optionally writing a shard wave every
        ``checkpoint_every`` completed steps (requires ``recovery``)."""
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if checkpoint_every and self.recovery is None:
            raise ValueError("checkpoint_every requires a recovery manager")
        for _ in range(n_steps):
            self.step()
            if (
                checkpoint_every
                and self.step_index % checkpoint_every == 0
            ):
                self.recovery.checkpoint(self)

    # ------------------------------------------------------------------
    # driver state protocol
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, Any]:
        return {
            "kind": "distsim",
            "step_index": int(self.step_index),
            "X": self.X.copy(),
            "n_parts": int(self.partition.n_parts),
            "part_of_row": np.asarray(self.partition.part_of_row).copy(),
        }

    def set_state(self, state: Dict[str, Any]) -> None:
        if state.get("kind") != "distsim":
            raise ValueError(f"not a distsim state: {state.get('kind')!r}")
        X = np.asarray(state["X"], dtype=np.float64)
        part = Partition(
            part_of_row=np.asarray(state["part_of_row"], dtype=np.int64),
            n_parts=int(state["n_parts"]),
        )
        if part.n_parts != self.partition.n_parts or not np.array_equal(
            part.part_of_row, self.partition.part_of_row
        ):
            self.partition = part
            self.dist = self._make_dist()
        self.X = np.array(X, copy=True)
        self.step_index = int(state["step_index"])

    def shard_states(self) -> Dict[int, Dict[str, Any]]:
        """Per-rank shard states: each rank's own block rows of ``X``."""
        b = self.A.block_size
        Xb = self.X.reshape(self.A.nb_rows, b, self.m)
        out: Dict[int, Dict[str, Any]] = {}
        for rank in range(self.partition.n_parts):
            rows = self.partition.rows_of(rank)
            out[rank] = {
                "kind": "distsim-shard",
                "rows": rows.copy(),
                "X": Xb[rows].copy(),
                "step_index": int(self.step_index),
            }
        return out

    # ------------------------------------------------------------------
    # recovery hooks
    # ------------------------------------------------------------------
    def rebuild(
        self,
        *,
        partition: Partition,
        X: np.ndarray,
        step_index: int,
        rank_map: Optional[Dict[int, int]] = None,
    ) -> None:
        """Swap in a repartitioned cluster (called by the recovery
        manager): new partition, restored multivector, fresh engine.
        ``rank_map`` (``{old_rank: new_rank}`` over survivors) remaps
        the fault plan so the dead rank's faults — its crash included —
        do not re-fire during replay, while faults pinned to surviving
        ranks follow them to their new ids."""
        self.partition = partition
        self.X = np.asarray(X, dtype=np.float64).copy()
        self.step_index = int(step_index)
        if rank_map is not None and self.fault_plan is not None:
            self.fault_plan = self.fault_plan.remap_ranks(rank_map)
        self.dist = self._make_dist()

    def recover(self, ranks) -> Any:
        """Explicit recovery entry point (also used by the resilient
        runner).  The budget slot is consumed *before* the recovery
        runs: replay re-enters :meth:`step`, and a second failure
        mid-replay must see the budget already spent rather than
        recurse forever."""
        if self.recovery is None:
            raise RankFailure(
                ranks, "rank(s) failed and no recovery manager is attached"
            )
        self.recoveries.append(None)
        try:
            report = self.recovery.recover(self, ranks)
        except BaseException:
            self.recoveries.pop()
            raise
        self.recoveries[-1] = report
        return report

    def degrade_m(self, new_m: int) -> None:
        """Shed right-hand sides: keep the first ``new_m`` columns.

        Column independence of the normalized iteration means surviving
        columns are bit-identical to their full-width trajectories —
        degradation trades coverage, not correctness.
        """
        if not 1 <= new_m <= self.m:
            raise ValueError(f"new_m must be in [1, {self.m}]")
        self.X = np.ascontiguousarray(self.X[:, :new_m])

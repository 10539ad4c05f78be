"""Multi-node GSPMV: exact distributed execution plus the time model.

Two layers, deliberately separate:

* :class:`DistributedGspmv` — *numerical* distributed GSPMV on the
  :class:`~repro.distributed.mpi_sim.MpiSim` engine: every rank owns
  its partition's rows of the matrix and vectors, exchanges boundary
  vector blocks per the communication plan, multiplies its local
  submatrix, and the gathered result is verified (in tests) to equal
  the single-node kernel bitwise.  This proves the substrate is real,
  not just a formula.

* :class:`MultiNodeTimeModel` — the *performance* model behind
  Figures 3-4 and Table III: per-rank compute time from the single-node
  roofline on the local submatrix, communication from the alpha-beta
  network model on the plan's exact message counts and volumes, with
  optional compute/communication overlap (the paper's nonblocking-MPI
  implementation), giving

      T(m, p) = max over ranks of combine(T_compute, T_comm)
      r(m, p) = T(m, p) / T(1, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

import repro.telemetry as _telemetry
from repro.distributed.comm import CommunicationPlan, block_checksum, build_comm_plan
from repro.distributed.mpi_sim import (
    RECV_TIMEOUT,
    ChannelFaultPlan,
    MpiSim,
)
from repro.resilience.faults import (
    RankFailure,
    active_injector,
    fire_fault,
)
from repro.distributed.netmodel import NetworkSpec
from repro.distributed.partition import Partition
from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.roofline import MatrixShape, time_compute, time_bandwidth
from repro.sparse.bcrs import BCRSMatrix
from repro.sparse.gspmv import gspmv

__all__ = ["DistributedGspmv", "MultiNodeTimeModel"]


def _empty_exchange_log() -> dict:
    return {
        "corrupted": [],
        "repaired": [],
        "stragglers": [],
        "timeouts": [],
        "resends": [],
        "failed": [],
    }


#: Exchange-log event kind -> its ``last_exchange`` key.
_LOG_KEYS = {
    "corrupted": "corrupted",
    "repaired": "repaired",
    "straggler": "stragglers",
    "timeout": "timeouts",
    "resend": "resends",
}


def _local_submatrix(
    A: BCRSMatrix, own_rows: np.ndarray, local_col_of: dict[int, int], n_local_cols: int
) -> BCRSMatrix:
    """Extract the rows ``own_rows`` of ``A`` with columns remapped into
    the rank's compact local index space."""
    rows_out: List[int] = []
    cols_out: List[int] = []
    blocks_out: List[np.ndarray] = []
    for local_r, global_r in enumerate(own_rows):
        cols, blks = A.block_row(int(global_r))
        for c, blk in zip(cols, blks):
            rows_out.append(local_r)
            cols_out.append(local_col_of[int(c)])
            blocks_out.append(blk)
    blocks_arr = (
        np.stack(blocks_out)
        if blocks_out
        else np.zeros((0, A.block_size, A.block_size))
    )
    return BCRSMatrix.from_block_coo(
        len(own_rows), n_local_cols, rows_out, cols_out, blocks_arr,
        sum_duplicates=False,
    )


class DistributedGspmv:
    """Numerically exact GSPMV distributed over simulated ranks.

    ``multiply`` runs one of two exchange programs, chosen from what a
    fault could reach (DESIGN.md §12, "Halo exchange"): the **plain**
    exchange — one message per boundary edge, metered traffic equal to
    the communication plan — when nothing can strike it, and the
    **robust** deadline/retry exchange when ``fault_plan`` holds at
    least one spec or the active
    :class:`~repro.resilience.faults.FaultInjector` holds a
    ``comm.exchange`` spec.  The robust exchange absorbs lost, late,
    duplicated and corrupted boundary blocks, or raises
    :class:`~repro.resilience.faults.RankFailure` naming the ranks it
    gave up on.

    Parameters
    ----------
    A, partition:
        Global matrix and row partition.
    fault_plan:
        Optional :class:`~repro.distributed.mpi_sim.ChannelFaultPlan`
        armed on the underlying engine: lossy channels (drop, delay,
        duplicate, corrupt) and crash-stop rank death.  Arming a plan
        makes the engine *persistent* across multiplies, so fault
        budgets, channel sequence numbers, and dead ranks carry over —
        a crashed rank stays dead.
    deadline:
        Scheduler sweeps a robust receive waits before timing out
        (the per-phase deadline; round ``r`` retries wait
        ``deadline * 2**r``).
    max_retries:
        Bounded resend rounds of the robust exchange.
    """

    def __init__(
        self,
        A: BCRSMatrix,
        partition: Partition,
        *,
        fault_plan: Optional[ChannelFaultPlan] = None,
        deadline: int = 4,
        max_retries: int = 3,
    ) -> None:
        if A.nb_rows != A.nb_cols:
            raise ValueError("matrix must be block-square")
        if deadline < 1:
            raise ValueError("deadline must be >= 1 sweep")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        self.fault_plan = fault_plan
        self.deadline = int(deadline)
        self.max_retries = int(max_retries)
        self.last_exchange: dict = _empty_exchange_log()
        self._sim: Optional[MpiSim] = None
        self._xid = 0
        self._auto_step = 0
        self.A = A
        self.partition = partition
        self.plan: CommunicationPlan = build_comm_plan(A, partition)
        self.block_size = A.block_size
        p = partition.n_parts

        self._own_rows: List[np.ndarray] = [partition.rows_of(r) for r in range(p)]
        self._col_maps: List[dict[int, int]] = []
        self._ext_order: List[np.ndarray] = []
        self._locals: List[BCRSMatrix] = []
        for r in range(p):
            own = self._own_rows[r]
            ext = (
                np.concatenate(
                    [self.plan.recv_cols[r][s] for s in sorted(self.plan.recv_cols[r])]
                )
                if self.plan.recv_cols[r]
                else np.empty(0, dtype=np.int64)
            )
            local_cols = np.concatenate([own, ext])
            col_map = {int(c): i for i, c in enumerate(local_cols)}
            self._col_maps.append(col_map)
            self._ext_order.append(ext)
            self._locals.append(
                _local_submatrix(A, own, col_map, len(local_cols))
            )

    # ------------------------------------------------------------------
    def _get_sim(self) -> MpiSim:
        """Fresh engine per multiply without a channel plan; persistent
        engine (fault budgets, channel sequence numbers, dead ranks
        carry over) with one."""
        p = self.partition.n_parts
        if self.fault_plan is None:
            return MpiSim(p)
        if self._sim is None:
            self._sim = MpiSim(p, fault_plan=self.fault_plan)
        return self._sim

    def _faults_can_strike(self) -> bool:
        """Can a fault reach this exchange?  Selects the robust program."""
        if self.fault_plan is not None and len(self.fault_plan):
            return True
        injector = active_injector()
        return injector is not None and "comm.exchange" in injector.sites

    def _record_exchange(self, sim: MpiSim, m: int) -> list:
        """Fold per-rank exchange logs into ``last_exchange`` + counters."""
        self.last_traffic = sim.total_traffic()
        events = [
            e for c in sim.contexts for e in getattr(c, "exchange_log", [])
        ]
        log = _empty_exchange_log()
        for e in events:
            log[_LOG_KEYS[e[0]]].append(e[1:])
        self.last_exchange = log
        hub = _telemetry.active_hub
        if hub is not None:
            mx = hub.metrics
            mx.counter("comm.exchanges", m=m).inc()
            mx.counter("comm.bytes_sent", m=m).inc(self.last_traffic.bytes_sent)
            mx.counter("comm.messages_sent", m=m).inc(
                self.last_traffic.messages_sent
            )
            if log["repaired"]:
                mx.counter("comm.repairs").inc(len(log["repaired"]))
            if log["corrupted"]:
                mx.counter("dist.corrupt_blocks").inc(len(log["corrupted"]))
            repair_rounds = {
                e[2]
                for key in ("repaired", "corrupted", "stragglers")
                for e in log[key]
                if e[2] >= 1
            }
            if repair_rounds:
                mx.counter("dist.repair_rounds").inc(len(repair_rounds))
            if log["timeouts"]:
                mx.counter("dist.timeouts").inc(len(log["timeouts"]))
            if log["resends"]:
                mx.counter("dist.retries").inc(len(log["resends"]))
            if log["stragglers"]:
                mx.counter("dist.stragglers").inc(len(log["stragglers"]))
        return events

    # ------------------------------------------------------------------
    def multiply(self, X: np.ndarray, *, step: Optional[int] = None) -> np.ndarray:
        """Compute ``Y = A @ X`` across simulated ranks.

        ``X`` is the logically global ``(n, m)`` multivector; each rank
        only ever touches its own rows plus received boundary blocks.
        ``step`` names the crash-stop death site this multiply exposes
        (``ChannelFaultSpec(kind="crash", rank=r, at={"step": s})``);
        it defaults to a per-instance multiply counter.

        Raises :class:`~repro.resilience.faults.RankFailure` when a
        rank is crash-stop dead or a peer stayed silent past the
        robust exchange's full retry ladder.
        """
        X = np.asarray(X, dtype=np.float64)
        squeeze = X.ndim == 1
        if squeeze:
            X = X[:, None]
        if X.shape[0] != self.A.n_rows:
            raise ValueError("X row count does not match matrix")
        if step is None:
            step = self._auto_step
        self._auto_step = int(step) + 1
        m = X.shape[1]
        b = self.block_size
        Xb = X.reshape(self.A.nb_rows, b, m)
        plan = self.plan
        p = self.partition.n_parts
        locals_ = self._locals
        own_rows = self._own_rows
        col_maps = self._col_maps

        deadline = self.deadline
        retries = self.max_retries
        xid = self._xid
        self._xid += 1
        # The robust exchange's frames and status messages ride on two
        # tags of their own per exchange (the plain exchange uses 0), so
        # a frame left over from an earlier multiply is never read.
        ftag, stag = 2 * xid + 1, 2 * xid + 2

        def local_vector(r):
            """Rank ``r``'s local X (own rows first, then the received
            blocks in source order) and each source's ``(offset, k)``."""
            own = own_rows[r]
            X_local = np.zeros((len(col_maps[r]), b, m))
            X_local[: len(own)] = Xb[own]
            slots = {}
            offset = len(own)
            for src in sorted(plan.recv_cols[r]):
                k = len(plan.recv_cols[r][src])
                slots[src] = (offset, k)
                offset += k
            return X_local, slots

        def finish(ctx, X_local):
            ctx.result = gspmv(
                locals_[ctx.rank], X_local.reshape(len(X_local) * b, m)
            )

        def plain_program(ctx):
            r = ctx.rank
            # Post all sends first (nonblocking style).
            for dest in sorted(plan.send_cols[r]):
                ctx.send(dest, tag=0, payload=Xb[plan.send_cols[r][dest]])
            X_local, slots = local_vector(r)
            # Receive boundary blocks in deterministic source order.
            for src, (lo, k) in slots.items():
                X_local[lo : lo + k] = yield ctx.recv(src, tag=0)
            finish(ctx, X_local)

        def robust_program(ctx):
            """Deadline-based halo exchange with retry, backoff, and
            idempotent frame acceptance.

            Every boundary block travels as one frame ``[crc, round,
            src, xid, *block]`` (checksum computed before any fault, so
            corruption in transit is caught) on this exchange's frame
            tag.  A receiver reads a source's frames in arrival order
            until one passes the header check, so duplicates and
            corrupt copies are discarded and a resend that missed its
            own round's deadline still lands in a later round.
            Receives are bounded by ``deadline * 2**round`` sweeps.
            Each retry round opens with every receiver sending each
            source a status on the status tag (``[1.0]`` = resend
            please, ``[0.0]`` = confirmed; a block repaired mid-round
            is confirmed at once), and each sender serving the statuses
            of its unconfirmed destinations as they arrive.  A peer
            that is crash-stop dead or still missing after the full
            ladder lands in ``ctx.failed_sources`` — the multiply turns
            that into :class:`RankFailure`.
            """
            ctx.exchange_log = log = []
            ctx.failed_sources = []
            r = ctx.rank
            ctx.death_site(step=step)
            sends = sorted(plan.send_cols[r])

            def send_frame(dest, rnd):
                block = Xb[plan.send_cols[r][dest]]
                crc = block_checksum(block)
                fault = fire_fault("comm.exchange", src=r, dest=dest, round=rnd)
                if fault is not None:
                    block = fault.mutate(block, active_injector().rng)
                header = [float(crc), float(rnd), float(r), float(xid)]
                ctx.send(
                    dest, tag=ftag, payload=np.concatenate([header, block.ravel()])
                )

            for dest in sends:
                send_frame(dest, 0)
            X_local, slots = local_vector(r)

            def receive(src, rnd, wait):
                """Read ``src``'s frames until one is valid ("ok") or a
                wait expires ("corrupt" if a bad frame came first, else
                "timeout")."""
                lo, k = slots[src]
                verdict = "timeout"
                while True:
                    frame = yield ctx.recv(src, tag=ftag, timeout=wait)
                    if frame is RECV_TIMEOUT:
                        return verdict
                    block = frame[4:]
                    if (
                        block.size == k * b * m
                        and frame[2] == src
                        and frame[3] == xid
                        and block_checksum(block.reshape(k, b, m)) == frame[0]
                    ):
                        X_local[lo : lo + k] = block.reshape(k, b, m)
                        return "ok"
                    verdict = "corrupt"
                    log.append(("corrupted", src, r, rnd))

            def serve_statuses(unconfirmed, rnd, wait):
                """Poll the ``unconfirmed`` destinations, one sweep per
                poll, for up to ``wait`` sweeps: a confirmation settles
                one, a request (or a corrupted status) gets a resend at
                once, and each still silent after the window gets a
                blind resend.  Lost request or lost confirmation — can't
                tell; the header check makes a spare copy harmless."""
                pending = set(unconfirmed)
                polls = 0
                while pending and polls < wait:
                    for dest in sorted(pending):
                        status = yield ctx.recv(dest, tag=stag, timeout=1)
                        polls += 1
                        if status is RECV_TIMEOUT:
                            continue
                        pending.discard(dest)
                        # Exact match: seeded corruption never lands on
                        # 0.0, and a confirmation is final, so a stale
                        # one from an earlier round is still true.
                        if np.array_equal(status, [0.0]):
                            unconfirmed.discard(dest)
                        else:
                            log.append(("resend", dest, r, rnd))
                            send_frame(dest, rnd)
                for dest in sorted(pending):
                    log.append(("resend", dest, r, rnd))
                    send_frame(dest, rnd)

            missing = set()
            slow = set()
            for src in slots:
                verdict = yield from receive(src, 0, deadline)
                if verdict == "ok":
                    continue
                missing.add(src)
                if verdict == "timeout":
                    slow.add(src)
                    log.append(("timeout", src, r, 0))

            unconfirmed = set(sends)
            failed = set()
            rnd = 0
            # rnd == 0 forces one status round even when this rank
            # already has everything — its senders are waiting for the
            # all-clear.
            while rnd < retries and (missing or unconfirmed or rnd == 0):
                rnd += 1
                wait = deadline << rnd
                for src in list(missing):
                    if ctx.peer_dead(src):
                        missing.discard(src)
                        failed.add(src)
                for dest in list(unconfirmed):
                    if ctx.peer_dead(dest):
                        unconfirmed.discard(dest)
                for src in slots:
                    if src in failed or ctx.peer_dead(src):
                        continue
                    flag = 1.0 if src in missing else 0.0
                    ctx.send(src, tag=stag, payload=np.array([flag]))
                yield from serve_statuses(unconfirmed, rnd, wait)
                for src in sorted(missing):
                    verdict = yield from receive(src, rnd, wait)
                    if verdict == "ok":
                        missing.discard(src)
                        # Confirm at once: this rank may finish before
                        # its next status round.
                        ctx.send(src, tag=stag, payload=np.array([0.0]))
                        if src in slow:
                            # Exceeded the phase deadline but delivered:
                            # straggler, not failure.
                            log.append(("straggler", src, r, rnd))
                        else:
                            log.append(("repaired", src, r, rnd))
                    elif verdict == "timeout":
                        slow.add(src)
                        log.append(("timeout", src, r, rnd))
            failed |= missing
            if failed:
                ctx.failed_sources = sorted(failed)
                return
            finish(ctx, X_local)

        sim = self._get_sim()
        if sim.dead_ranks:
            raise RankFailure(
                sim.dead_ranks,
                f"rank(s) {sorted(sim.dead_ranks)} died in an earlier "
                "exchange; recover before multiplying again",
            )
        if self._faults_can_strike():
            contexts = sim.run(robust_program)
            sim.discard((ftag, stag))
        else:
            contexts = sim.run(plain_program)
        self._record_exchange(sim, m)

        failed = set(sim.dead_ranks)
        for c in contexts:
            failed.update(getattr(c, "failed_sources", ()))
        if failed:
            self.last_exchange["failed"] = sorted(failed)
            hub = _telemetry.active_hub
            if hub is not None:
                hub.metrics.counter("dist.rank_failures").inc(len(failed))
            raise RankFailure(failed)

        Y = np.empty((self.A.n_rows, m))
        for r in range(p):
            own = own_rows[r]
            Yr = contexts[r].result.reshape(len(own), b, m)
            Y.reshape(self.A.nb_rows, b, m)[own] = Yr
        return Y[:, 0] if squeeze else Y


@dataclass
class MultiNodeTimeModel:
    """The Figures 3-4 / Table III performance model.

    Parameters
    ----------
    A:
        The (global) matrix.
    partition:
        Row partition over ``p`` ranks.
    machine:
        Per-node machine spec (the paper's cluster node: WSM at 2.9 GHz).
    network:
        Interconnect alpha-beta model.
    overlap:
        Overlap communication with local compute (the paper's
        implementation does; set False for the ablation).
    k:
        The cache-miss function value used in per-rank compute bounds
        (0 by default: per-node working sets shrink with p, so cache
        pressure is lower than single-node).
    """

    A: BCRSMatrix
    partition: Partition
    machine: MachineSpec
    network: NetworkSpec
    overlap: bool = True
    k: float = 0.0

    def __post_init__(self) -> None:
        self.plan = build_comm_plan(self.A, self.partition)
        row_nnz = np.diff(self.A.row_ptr)
        self._rank_shapes: List[MatrixShape] = []
        for r in range(self.partition.n_parts):
            rows = self.partition.rows_of(r)
            nb_r = max(1, len(rows))
            nnzb_r = float(row_nnz[rows].sum()) if len(rows) else 0.0
            self._rank_shapes.append(
                MatrixShape(
                    nb=nb_r,
                    blocks_per_row=max(nnzb_r / nb_r, 1e-12),
                    block_size=self.A.block_size,
                )
            )

    # ------------------------------------------------------------------
    def compute_time(self, rank: int, m: int) -> float:
        """Local GSPMV roofline time, plus the boundary-gather traffic
        (packing sent blocks reads them once more from memory)."""
        shape = self._rank_shapes[rank]
        t_kernel = max(
            time_bandwidth(shape, m, self.machine, self.k),
            time_compute(shape, m, self.machine),
        )
        gather_bytes = self.plan.send_volume_bytes(rank, m)
        return t_kernel + gather_bytes / self.machine.stream_bw

    def comm_time(self, rank: int, m: int) -> float:
        return self.network.transfer_time(
            self.plan.messages_received(rank),
            self.plan.recv_volume_bytes(rank, m),
        )

    def rank_time(self, rank: int, m: int) -> float:
        tc = self.compute_time(rank, m)
        tm = self.comm_time(rank, m)
        t = max(tc, tm) if self.overlap else tc + tm
        fault = fire_fault("cluster.straggler", rank=rank, m=m)
        if fault is not None:
            t *= fault.factor
        return t

    def time(self, m: int) -> float:
        """``T(m, p)``: the slowest rank bounds the step."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return max(
            self.rank_time(r, m) for r in range(self.partition.n_parts)
        )

    def relative_time(self, m: int) -> float:
        """``r(m, p) = T(m, p) / T(1, p)`` — the Figure 3 observable."""
        return self.time(m) / self.time(1)

    def communication_fraction(self, m: int) -> float:
        """Comm share of (comm + compute) on the critical rank
        (the Table III observable)."""
        crit = max(
            range(self.partition.n_parts), key=lambda r: self.rank_time(r, m)
        )
        tc = self.compute_time(crit, m)
        tm = self.comm_time(crit, m)
        return tm / (tc + tm) if tc + tm > 0 else 0.0

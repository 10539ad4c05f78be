"""A deterministic, in-process message-passing simulator.

Rank programs are written in SPMD style as Python *generator functions*
taking a :class:`RankContext`; blocking operations (``recv``,
``barrier``) are expressed by ``yield``-ing a wait condition, and the
:class:`MpiSim` engine cooperatively schedules all ranks until every
program finishes.  Messages are matched by ``(source, tag)`` exactly as
in MPI point-to-point semantics, and every byte is metered so
communication volumes can be checked against the analytic plans.

The engine is *deterministic*: ranks are stepped round-robin, so a
given program produces identical message orders and results on every
run — which makes the distributed-GSPMV correctness tests exact
(bitwise equality against the single-node kernel).

Chaos mode
----------
A :class:`ChannelFaultPlan` turns the engine into a lossy, failing
cluster while staying deterministic: messages can be **dropped**,
**delayed** (held for a number of scheduler sweeps, reordering them
against other channels), **duplicated**, or **corrupted** (seeded
noise), and a rank can suffer **crash-stop death** at a named
``(rank, step)`` site (programs mark sites with
:meth:`RankContext.death_site`).  Faults match on exact channel
coordinates (source, destination, tag, per-channel sequence number)
with per-spec fire budgets, so a given plan produces the identical
fault sequence on every run.  With no plan armed the engine's code
path, message order, and results are bitwise-identical to the
fault-free implementation.

Receives take an optional ``timeout`` (measured in scheduler sweeps);
an expired wait resumes the program with the :data:`RECV_TIMEOUT`
sentinel instead of a payload — the primitive the robust halo
exchange builds retry/backoff/failure-detection on.

Example
-------
>>> def program(ctx):
...     if ctx.rank == 0:
...         ctx.send(1, tag=0, payload=np.arange(3.0))
...     else:
...         msg = yield ctx.recv(0, tag=0)
...         ctx.result = msg.sum()
>>> sim = MpiSim(2)
>>> sim.run(program)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

__all__ = [
    "MpiSim",
    "RankContext",
    "DeadlockError",
    "ChannelFaultSpec",
    "ChannelFaultPlan",
    "ChannelFaultEvent",
    "RankCrashed",
    "RECV_TIMEOUT",
]


class DeadlockError(RuntimeError):
    """All unfinished ranks are blocked and no message can unblock them.

    The message lists every blocked rank's wait condition — receive
    source/tag with the matching channel's queue depth (and whether the
    source rank is dead), or barrier generation with arrival count —
    so a distributed test failure is diagnosable from the traceback
    alone.
    """


class RankCrashed(Exception):
    """Control-flow signal: this rank dies (crash-stop) right here.

    Raised inside a rank program by :meth:`RankContext.death_site` when
    an armed :class:`ChannelFaultPlan` names the site; the engine
    catches it and retires the rank without delivering anything further
    from it.  Not an error for the simulation as a whole — survivors
    keep running (and time out on the dead peer).
    """

    def __init__(self, rank: int, context: Mapping[str, int]) -> None:
        super().__init__(f"rank {rank} crash-stop at {dict(context)}")
        self.rank = rank
        self.context = dict(context)


class _Timeout:
    """Singleton sentinel returned by a timed-out ``recv``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "RECV_TIMEOUT"


RECV_TIMEOUT = _Timeout()


@dataclass
class _Recv:
    source: int
    tag: int
    timeout: Optional[int] = None


@dataclass
class _Barrier:
    generation: int


# ----------------------------------------------------------------------
# channel faults
# ----------------------------------------------------------------------
_MESSAGE_KINDS = ("drop", "delay", "duplicate", "corrupt")


@dataclass(frozen=True)
class ChannelFaultSpec:
    """One planned channel fault.

    Message faults (``drop``/``delay``/``duplicate``/``corrupt``) match
    a send by equality on every coordinate that is not ``None``:
    ``src``, ``dest``, ``tag``, and ``seq`` — the 0-based ordinal of
    the message on its ``(src, dest)`` channel (any tag), which is the
    stable way to name "the third thing rank 0 ever sends rank 2".

    Crash faults (``kind="crash"``) name a ``rank`` and an ``at``
    context; the rank dies (crash-stop) at the first
    :meth:`RankContext.death_site` call whose context matches ``at``
    exactly (e.g. ``at={"step": 3}``).

    ``times`` bounds how often the spec fires (``None`` = unlimited);
    ``delay`` is the hold time of delayed messages in scheduler sweeps;
    ``factor`` scales the seeded noise of ``corrupt`` faults.
    """

    kind: str
    src: Optional[int] = None
    dest: Optional[int] = None
    tag: Optional[int] = None
    seq: Optional[int] = None
    rank: Optional[int] = None
    at: Mapping[str, int] = field(default_factory=dict)
    times: Optional[int] = 1
    delay: int = 2
    factor: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in _MESSAGE_KINDS + ("crash",):
            raise ValueError(f"unknown channel fault kind {self.kind!r}")
        if self.kind == "crash" and self.rank is None:
            raise ValueError("crash faults must name a rank")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 or None")
        if self.delay < 1:
            raise ValueError("delay must be >= 1 sweep")
        object.__setattr__(self, "at", dict(self.at))

    def matches_message(self, src: int, dest: int, tag: int, seq: int) -> bool:
        if self.kind == "crash":
            return False
        return (
            (self.src is None or self.src == src)
            and (self.dest is None or self.dest == dest)
            and (self.tag is None or self.tag == tag)
            and (self.seq is None or self.seq == seq)
        )

    def matches_death(self, rank: int, context: Mapping[str, int]) -> bool:
        if self.kind != "crash" or self.rank != rank:
            return False
        return all(context.get(k) == v for k, v in self.at.items())


@dataclass(frozen=True)
class ChannelFaultPlan:
    """An ordered set of :class:`ChannelFaultSpec` plus a noise seed."""

    specs: Tuple[ChannelFaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def without_crashes(self) -> "ChannelFaultPlan":
        """The same plan minus crash faults (used after a recovery —
        the dead rank is gone; its crash must not re-fire on replay)."""
        return ChannelFaultPlan(
            specs=tuple(s for s in self.specs if s.kind != "crash"),
            seed=self.seed,
        )

    def remap_ranks(self, mapping: Mapping[int, int]) -> "ChannelFaultPlan":
        """Translate rank coordinates through a survivor renumbering.

        After rank recovery the surviving ranks are renumbered
        ``0..p-d-1``; ``mapping`` is ``{old_rank: new_rank}`` over the
        survivors.  Specs that name a dead (unmapped) rank — a crash of
        the lost rank, or a message fault pinned to one of its channels
        — are dropped; everything else keeps firing at the same
        *physical* node under its new id.  (Per-channel ``seq``
        ordinals restart with the rebuilt engine; a seq-pinned spec
        matches the replayed channel's own ordinals.)
        """
        from dataclasses import replace as _replace

        specs = []
        for s in self.specs:
            if s.kind == "crash":
                if s.rank not in mapping:
                    continue
                specs.append(_replace(s, rank=mapping[s.rank]))
                continue
            if s.src is not None and s.src not in mapping:
                continue
            if s.dest is not None and s.dest not in mapping:
                continue
            specs.append(
                _replace(
                    s,
                    src=None if s.src is None else mapping[s.src],
                    dest=None if s.dest is None else mapping[s.dest],
                )
            )
        return ChannelFaultPlan(specs=tuple(specs), seed=self.seed)


@dataclass(frozen=True)
class ChannelFaultEvent:
    """One channel fault that actually struck."""

    kind: str
    spec_index: int
    sweep: int
    src: Optional[int] = None
    dest: Optional[int] = None
    tag: Optional[int] = None
    seq: Optional[int] = None
    rank: Optional[int] = None
    context: Mapping[str, int] = field(default_factory=dict)


class _ChannelFaultState:
    """Armed plan bookkeeping: fire budgets, seeded noise, event log."""

    def __init__(self, plan: ChannelFaultPlan) -> None:
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.fired = [0] * len(plan.specs)
        self.events: List[ChannelFaultEvent] = []

    def _take(self, i: int) -> bool:
        spec = self.plan.specs[i]
        if spec.times is not None and self.fired[i] >= spec.times:
            return False
        self.fired[i] += 1
        return True

    def match_message(
        self, src: int, dest: int, tag: int, seq: int, sweep: int
    ) -> Optional[ChannelFaultSpec]:
        for i, spec in enumerate(self.plan.specs):
            if spec.matches_message(src, dest, tag, seq) and self._take(i):
                self.events.append(
                    ChannelFaultEvent(
                        kind=spec.kind, spec_index=i, sweep=sweep,
                        src=src, dest=dest, tag=tag, seq=seq,
                    )
                )
                return spec
        return None

    def match_death(
        self, rank: int, context: Mapping[str, int], sweep: int
    ) -> Optional[ChannelFaultSpec]:
        for i, spec in enumerate(self.plan.specs):
            if spec.matches_death(rank, context) and self._take(i):
                self.events.append(
                    ChannelFaultEvent(
                        kind="crash", spec_index=i, sweep=sweep,
                        rank=rank, context=dict(context),
                    )
                )
                return spec
        return None

    def corrupt(self, payload: np.ndarray, factor: float) -> np.ndarray:
        out = np.array(payload, dtype=np.float64, copy=True)
        flat = out.reshape(-1)
        if flat.size:
            k = min(8, flat.size)
            idx = self.rng.choice(flat.size, size=k, replace=False)
            flat[idx] += self.rng.standard_normal(k) * (
                1.0 + np.abs(flat[idx])
            ) * factor
        return out


@dataclass
class TrafficMeter:
    """Per-rank communication statistics."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0


class RankContext:
    """The per-rank handle passed to every rank program."""

    def __init__(self, rank: int, size: int, sim: "MpiSim") -> None:
        self.rank = rank
        self.size = size
        self._sim = sim
        self.result: Any = None
        self.traffic = TrafficMeter()

    # ------------------------------------------------------------------
    def send(self, dest: int, *, tag: int, payload: np.ndarray) -> None:
        """Non-blocking send (buffered, like MPI_Isend + background progress)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        payload = np.asarray(payload)
        self._sim._deliver(self.rank, dest, tag, payload.copy())
        self.traffic.messages_sent += 1
        self.traffic.bytes_sent += payload.nbytes

    def recv(
        self, source: int, *, tag: int, timeout: Optional[int] = None
    ) -> _Recv:
        """Blocking receive: ``msg = yield ctx.recv(src, tag=t)``.

        With ``timeout`` (scheduler sweeps), an unmet wait resumes the
        program with :data:`RECV_TIMEOUT` instead of a payload.
        """
        if not 0 <= source < self.size:
            raise ValueError(f"invalid source rank {source}")
        if timeout is not None and timeout < 1:
            raise ValueError("timeout must be >= 1 sweep")
        return _Recv(source=source, tag=tag, timeout=timeout)

    def barrier(self) -> _Barrier:
        """Global barrier: ``yield ctx.barrier()``."""
        return _Barrier(generation=self._sim._barrier_generation)

    def death_site(self, **context: int) -> None:
        """Named crash-stop site: dies here when the armed plan says so.

        Costs one attribute check when no plan is armed.  A match
        raises :class:`RankCrashed`, which the engine absorbs by
        retiring this rank (its generator is closed, pending sends
        already delivered stay deliverable, future messages to it are
        dropped).
        """
        faults = self._sim._faults
        if faults is None:
            return
        spec = faults.match_death(self.rank, context, self._sim._sweep)
        if spec is not None:
            raise RankCrashed(self.rank, context)

    def peer_dead(self, rank: int) -> bool:
        """Has ``rank`` suffered crash-stop death (observable failure
        detector — real clusters gossip this; the simulator just
        knows)."""
        return rank in self._sim.dead_ranks


class MpiSim:
    """Runs ``size`` rank programs to completion, round-robin.

    Parameters
    ----------
    size:
        Number of ranks.
    fault_plan:
        Optional :class:`ChannelFaultPlan`.  ``None`` (default) keeps
        the engine on the exact fault-free code path.
    """

    def __init__(
        self, size: int, *, fault_plan: Optional[ChannelFaultPlan] = None
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self._mailboxes: Dict[Tuple[int, int, int], deque] = {}
        self._barrier_generation = 0
        self.contexts: List[RankContext] = []
        self._faults = (
            _ChannelFaultState(fault_plan) if fault_plan is not None else None
        )
        self._chan_seq: Dict[Tuple[int, int], int] = {}
        self._delayed: List[Tuple[int, int, int, int, np.ndarray]] = []
        """Held messages: (release_sweep, src, dst, tag, payload)."""
        self._sweep = 0
        self.dead_ranks: set[int] = set()

    @property
    def fault_events(self) -> List[ChannelFaultEvent]:
        """Channel faults that actually struck during :meth:`run`."""
        return [] if self._faults is None else list(self._faults.events)

    # ------------------------------------------------------------------
    def _deliver(self, src: int, dst: int, tag: int, payload: np.ndarray) -> None:
        faults = self._faults
        if faults is not None:
            if dst in self.dead_ranks:
                return  # crash-stop: nobody is listening
            key = (src, dst)
            seq = self._chan_seq.get(key, 0)
            self._chan_seq[key] = seq + 1
            spec = faults.match_message(src, dst, tag, seq, self._sweep)
            if spec is not None:
                if spec.kind == "drop":
                    return
                if spec.kind == "delay":
                    self._delayed.append(
                        (self._sweep + spec.delay, src, dst, tag, payload)
                    )
                    return
                if spec.kind == "corrupt":
                    payload = faults.corrupt(payload, spec.factor)
                elif spec.kind == "duplicate":
                    self._mailboxes.setdefault((src, dst, tag), deque()).append(
                        payload.copy()
                    )
        self._mailboxes.setdefault((src, dst, tag), deque()).append(payload)

    def _release_delayed(self) -> bool:
        """Move due held messages into the mailboxes; True if any moved."""
        if not self._delayed:
            return False
        due = [m for m in self._delayed if m[0] <= self._sweep]
        if not due:
            return False
        self._delayed = [m for m in self._delayed if m[0] > self._sweep]
        for _, src, dst, tag, payload in due:
            if dst in self.dead_ranks:
                continue
            self._mailboxes.setdefault((src, dst, tag), deque()).append(payload)
        return True

    def discard(self, tags: Iterable[int]) -> None:
        """Drop every queued or held message on ``tags`` — the leftovers
        (duplicates, late copies) of a protocol that will never read
        those tags again, so a persistent engine does not grow."""
        tags = set(tags)
        self._mailboxes = {
            k: q for k, q in self._mailboxes.items() if k[2] not in tags
        }
        self._delayed = [m for m in self._delayed if m[3] not in tags]

    def _try_take(self, src: int, dst: int, tag: int) -> Optional[np.ndarray]:
        box = self._mailboxes.get((src, dst, tag))
        if box:
            return box.popleft()
        return None

    # ------------------------------------------------------------------
    def _deadlock_message(
        self,
        gens: List[Optional[Generator]],
        waiting: List[Optional[Any]],
        barrier_waiters: set,
    ) -> str:
        lines: List[str] = []
        alive = sum(g is not None for g in gens)
        for r in range(self.size):
            if gens[r] is None:
                continue
            wait = waiting[r]
            if isinstance(wait, _Recv):
                depth = len(self._mailboxes.get((wait.source, r, wait.tag), ()))
                inbound = sum(
                    len(q) for (s, d, t), q in self._mailboxes.items() if d == r
                )
                dead = " [source rank is dead]" if (
                    wait.source in self.dead_ranks
                ) else ""
                lines.append(
                    f"rank {r}: recv(source={wait.source}, tag={wait.tag})"
                    f"{dead} — {depth} queued on that channel, "
                    f"{inbound} inbound total"
                )
            elif isinstance(wait, _Barrier):
                lines.append(
                    f"rank {r}: barrier(generation={wait.generation}) — "
                    f"{len(barrier_waiters)}/{alive} alive ranks arrived"
                )
            else:  # pragma: no cover - defensive
                lines.append(f"rank {r}: blocked on {wait!r}")
        held = len(self._delayed)
        suffix = f"; {held} message(s) held by delay faults" if held else ""
        return (
            f"all {alive} unfinished ranks are blocked with no progress"
            f"{suffix}:\n  " + "\n  ".join(lines)
        )

    # ------------------------------------------------------------------
    def run(
        self, program: Callable[[RankContext], Optional[Generator]]
    ) -> List[RankContext]:
        """Execute ``program`` on every rank; returns the rank contexts.

        ``program(ctx)`` may be a plain function (no blocking ops) or a
        generator function yielding ``ctx.recv(...)`` / ``ctx.barrier()``.
        """
        self.contexts = [RankContext(r, self.size, self) for r in range(self.size)]
        gens: List[Optional[Generator]] = []
        waiting: List[Optional[Any]] = []
        wait_since: List[int] = [0] * self.size
        for ctx in self.contexts:
            if ctx.rank in self.dead_ranks:
                # Persistent engine reuse: a rank that crash-stopped in
                # an earlier run stays dead.
                gens.append(None)
                waiting.append(None)
                continue
            try:
                out = program(ctx)
            except RankCrashed:
                self.dead_ranks.add(ctx.rank)
                gens.append(None)
                waiting.append(None)
                continue
            if out is not None and hasattr(out, "send"):
                gens.append(out)
                waiting.append("start")
            else:
                gens.append(None)
                waiting.append(None)

        barrier_waiters: set[int] = set()

        def advance(r: int, value: Any) -> None:
            """Resume rank r's generator with ``value``; retire it on
            StopIteration, kill it on RankCrashed."""
            try:
                waiting[r] = gens[r].send(value)
                wait_since[r] = self._sweep
            except StopIteration:
                gens[r] = None
                waiting[r] = None
                barrier_waiters.discard(r)
            except RankCrashed:
                self.dead_ranks.add(r)
                gens[r] = None
                waiting[r] = None
                barrier_waiters.discard(r)

        while True:
            progressed = self._release_delayed()
            alive = False
            for r in range(self.size):
                gen = gens[r]
                if gen is None:
                    continue
                alive = True
                wait = waiting[r]
                if wait == "start" or wait is None:
                    advance(r, None)
                    progressed = True
                elif isinstance(wait, _Recv):
                    payload = self._try_take(wait.source, r, wait.tag)
                    if payload is not None:
                        self.contexts[r].traffic.messages_received += 1
                        self.contexts[r].traffic.bytes_received += payload.nbytes
                        advance(r, payload)
                        progressed = True
                    elif (
                        wait.timeout is not None
                        and self._sweep - wait_since[r] >= wait.timeout
                    ):
                        advance(r, RECV_TIMEOUT)
                        progressed = True
                elif isinstance(wait, _Barrier):
                    barrier_waiters.add(r)
                    if len(barrier_waiters) == sum(g is not None for g in gens):
                        self._barrier_generation += 1
                        released = sorted(barrier_waiters)
                        barrier_waiters.clear()
                        for rr in released:
                            advance(rr, None)
                        progressed = True
                else:
                    raise TypeError(
                        f"rank {r} yielded unsupported wait object {wait!r}"
                    )
            if not alive:
                break
            self._sweep += 1
            if not progressed:
                # Stalled — but time itself can unblock us: a held
                # message becomes due, or a timed wait expires.
                can_wake = bool(self._delayed) or any(
                    isinstance(w, _Recv) and w.timeout is not None
                    for g, w in zip(gens, waiting)
                    if g is not None
                )
                if not can_wake:
                    raise DeadlockError(
                        self._deadlock_message(gens, waiting, barrier_waiters)
                    )
        return self.contexts

    # ------------------------------------------------------------------
    def total_traffic(self) -> TrafficMeter:
        """Aggregate traffic over all ranks of the last run."""
        total = TrafficMeter()
        for ctx in self.contexts:
            total.messages_sent += ctx.traffic.messages_sent
            total.bytes_sent += ctx.traffic.bytes_sent
            total.messages_received += ctx.traffic.messages_received
            total.bytes_received += ctx.traffic.bytes_received
        return total

"""Seeded sweep of the halo exchange under survivable channel faults.

The non-hypothesis twin of
``tests/test_property_distributed.py::test_survivable_schedules_are_bitwise_invisible``:
it draws matrices, partitions and fault plans the way
``partitioned_cases`` and ``survivable_fault_plans`` draw them, runs
each plan through :class:`~repro.distributed.simcluster.DistributedGspmv`
at the default retry budget, and counts every ``RankFailure`` and every
result that is not bitwise equal to the fault-free exchange.  The
property test draws 20 plans per run; this sweep draws enough of them
that a rare protocol defect cannot hide.

Run from the repository root::

    PYTHONPATH=src python -m tests.exchange_sweep --plans 10000 --seed 0

It prints one line per failing case (with everything needed to rebuild
it) and a summary, and exits non-zero on any failure or mismatch.

A few plans the strategy draws are not survivable at all: they destroy
every copy of a block that any ladder of ``1 + max_retries`` one-message
copies can put on one data channel.  :func:`lethal_channel` proves that by counting (see its
docstring); the sweep reports such plans as ``lethal`` and excludes
them, and checks that each one really does end in ``RankFailure``.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.distributed.comm import build_comm_plan
from repro.distributed.mpi_sim import ChannelFaultPlan, ChannelFaultSpec
from repro.distributed.partition import Partition
from repro.distributed.simcluster import DistributedGspmv
from repro.resilience.faults import RankFailure
from repro.sparse.bcrs import BCRSMatrix


@dataclass
class SweepCase:
    """One drawn case: matrix, partition, right-hand sides, fault plan."""

    A: BCRSMatrix
    part: Partition
    X: np.ndarray
    plan: ChannelFaultPlan


def _maybe(rng: np.random.Generator, lo: int, hi: int) -> Optional[int]:
    """``one_of(none(), integers(lo, hi))``."""
    return None if rng.random() < 0.5 else int(rng.integers(lo, hi + 1))


def draw_case(rng: np.random.Generator) -> SweepCase:
    # bcrs_matrices(max_nb=8, square=True)
    nb = int(rng.integers(1, 9))
    n_entries = int(rng.integers(0, nb * nb + 1))
    rows = rng.integers(0, nb, size=n_entries)
    cols = rng.integers(0, nb, size=n_entries)
    blocks = np.random.default_rng(int(rng.integers(0, 2**31))).standard_normal(
        (n_entries, 3, 3)
    )
    A = BCRSMatrix.from_block_coo(nb, nb, rows, cols, blocks)
    # partitioned_cases: arbitrary assignment, first p rows stamped.
    p = int(rng.integers(1, nb + 1))
    assignment = rng.integers(0, p, size=nb)
    assignment[:p] = np.arange(p)
    part = Partition(part_of_row=assignment, n_parts=p)
    m = int(rng.integers(1, 4))
    X = np.random.default_rng(int(rng.integers(0, 1000))).standard_normal(
        (A.n_cols, m)
    )
    # survivable_fault_plans
    specs = []
    for _ in range(int(rng.integers(1, 4))):
        specs.append(
            ChannelFaultSpec(
                kind=("drop", "delay", "duplicate", "corrupt")[
                    int(rng.integers(0, 4))
                ],
                src=_maybe(rng, 0, 3),
                dest=_maybe(rng, 0, 3),
                seq=_maybe(rng, 0, 2),
                times=int(rng.integers(1, 3)),
                delay=int(rng.integers(1, 4)),
            )
        )
    plan = ChannelFaultPlan(specs=tuple(specs), seed=int(rng.integers(0, 100)))
    return SweepCase(A, part, X, plan)


_LOSS = ("drop", "corrupt")


def lethal_channel(
    case: SweepCase, attempts: int = 4
) -> Optional[Tuple[int, int]]:
    """A data channel ``(src, dest)`` on which the plan destroys every
    copy of the block that any ladder of ``attempts`` one-message copies
    can send, in any timing; else ``None``.

    The counting argument.  Take a data channel ``a -> b`` whose
    reverse carries no data.  Then ``a`` owes ``b`` no status, so the
    channel carries only ``a``'s copies, at most ``attempts`` of them,
    and its ``k``-th message is attempt ``k``.  Every first attempt is
    posted at start-up, in rank order and destination order, before
    any other message exists, so which spec strikes each attempt 0
    follows from the plan alone.  After start-up, anything may travel:
    later messages on the other data channels, and statuses, any
    number and from seq 0, on every reverse channel.  A later attempt
    ``k`` is struck by the first spec (in plan order) that matches
    ``(a, b, seq=k)`` and has budget left.  A spec's budget is known
    exactly when it can match nothing else after start-up (it is
    *confined*) or can never run out (an unlimited spec, or a
    seq-pinned one with a budget for every channel it can match); for
    any other spec both cases are followed: it strikes attempt ``k``,
    or it was spent elsewhere first.  If every attempt is struck by
    ``drop`` or ``corrupt`` in every case, no copy arrives intact: no
    ladder of ``attempts`` copies survives the plan.  (A ladder that
    splits a copy over two messages, as a data frame plus a header
    frame, can: two strikes may land on one copy.)
    """
    specs = case.plan.specs
    if any(spec.tag is not None for spec in specs):
        return None  # tags are the protocol's business: no argument
    comm = build_comm_plan(case.A, case.part)
    data = [
        (s, d) for s in range(case.part.n_parts) for d in sorted(comm.send_cols[s])
    ]
    reverses = [(d, s) for s, d in data if (d, s) not in data]

    def on(spec, ch):
        return spec.kind != "crash" and spec.src in (None, ch[0]) and (
            spec.dest in (None, ch[1])
        )

    def hits(spec, ch, seq):
        return on(spec, ch) and spec.seq in (None, seq)

    def has_budget(i, used):
        return specs[i].times is None or used < specs[i].times

    spent = [0] * len(specs)  # strikes on first attempts
    first = {}
    for ch in data:
        first[ch] = None
        for i, spec in enumerate(specs):
            if hits(spec, ch, 0) and has_budget(i, spent[i]):
                spent[i] += 1
                first[ch] = spec.kind
                break

    def lethal(ch):
        others = [c for c in data if c != ch]

        def known(i):
            spec = specs[i]
            if spec.times is None:
                return True
            if spec.seq is None:
                return not any(on(spec, c) for c in others + reverses)
            elsewhere = sum(on(spec, c) for c in reverses) + (spec.seq != 0) * sum(
                on(spec, c) for c in others
            )
            return spec.times - spent[i] > elsewhere

        def dies(k, used, gone):
            if k == attempts:
                return True
            for i, spec in enumerate(specs):
                if i in gone or not hits(spec, ch, k):
                    continue
                if not has_budget(i, spent[i] + used[i]):
                    continue
                if spec.kind not in _LOSS:
                    return False
                struck = dies(k + 1, {**used, i: used[i] + 1}, gone)
                if known(i) or not struck:
                    return struck
                gone = gone | {i}  # the other case: spent elsewhere
            return False

        return dies(1, {i: 0 for i in range(len(specs))}, frozenset())

    for ch in data:
        if (ch[1], ch[0]) not in data and first[ch] in _LOSS and lethal(ch):
            return ch
    return None


def run_case(case: SweepCase) -> Optional[str]:
    """``None`` when the faulty exchange equals the clean one bitwise,
    else a one-word verdict (``"rank_failure"`` or ``"mismatch"``)."""
    clean = DistributedGspmv(case.A, case.part).multiply(case.X)
    try:
        faulty = DistributedGspmv(
            case.A, case.part, fault_plan=case.plan
        ).multiply(case.X)
    except RankFailure:
        return "rank_failure"
    return None if np.array_equal(clean, faulty) else "mismatch"


def case_at(seed: int, index: int) -> SweepCase:
    """Case ``index`` of the sweep seeded ``seed`` (each case has its
    own stream, so any one can be rebuilt alone)."""
    return draw_case(np.random.default_rng((seed, index)))


def sweep(n_plans: int, seed: int = 0) -> dict:
    """Run ``n_plans`` cases.  A lethal plan must end in RankFailure
    (anything else means the counting argument is wrong); every other
    plan must leave the result bitwise unchanged."""
    counts = {"lethal": 0, "rank_failure": 0, "mismatch": 0, "lethal_survived": 0}
    failures = []
    for i in range(n_plans):
        case = case_at(seed, i)
        verdict = run_case(case)
        if lethal_channel(case) is not None:
            counts["lethal"] += 1
            verdict = None if verdict == "rank_failure" else "lethal_survived"
        if verdict is not None:
            counts[verdict] += 1
            failures.append((i, verdict, case))
    return {"plans": n_plans, **counts, "failures": failures}


def _describe(case: SweepCase) -> str:
    A = case.A
    rows = np.repeat(np.arange(A.nb_rows), np.diff(A.row_ptr))
    return (
        f"nb={A.nb_rows} rows={rows.tolist()} cols={A.col_ind.tolist()} "
        f"part={case.part.part_of_row.tolist()} m={case.X.shape[1]} "
        f"plan={case.plan}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--plans", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    result = sweep(args.plans, args.seed)
    elapsed = time.perf_counter() - t0
    for i, verdict, case in result["failures"]:
        print(f"case_at({args.seed}, {i}): {verdict}: {_describe(case)}")
    print(
        f"{result['plans']} plans (seed {args.seed}): "
        f"{result['lethal']} provably lethal (excluded), "
        f"{result['rank_failure']} rank failures, "
        f"{result['mismatch']} mismatches, "
        f"{result['lethal_survived']} lethal plans survived in {elapsed:.1f} s"
    )
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())

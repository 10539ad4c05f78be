"""``sd_step``: the user's whole step path, MRHS against the original.

The bare drivers with the default ``SDParameters()`` (what ``repro
simulate`` runs), n=1000, phi=0.3, m=8.  One MRHS unit is
``MrhsStokesianDynamics.run(1)`` (one chunk of m steps); one original
unit is ``StokesianDynamics.run(m)``.  Both drivers start from the same
packing with the same noise seed, so after every pair they have taken
the same steps on the same noise and their positions must agree.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict

import numpy as np

import repro
from repro import MrhsParameters, MrhsStokesianDynamics, SDParameters, StokesianDynamics

from workload import PairedWorkload

N, PHI, M = 1000, 0.3, 8


class SdStep(PairedWorkload):
    name = "sd_step"
    m = M
    pairs_per_pass = 2

    def setup(self, work: Path) -> Dict[str, Any]:
        params = SDParameters()
        system = repro.random_configuration(N, PHI, rng=self.seed)
        st = {
            "params": params,
            "mrhs": MrhsStokesianDynamics(
                system, params, MrhsParameters(m=M), rng=self.seed + 1
            ),
            "orig": StokesianDynamics(system, params, rng=self.seed + 1),
            "path": 0.0,
        }
        self.warm_up(st)
        return st

    def run_unit(self, st, side):
        if side == "mrhs":
            return st["mrhs"].run(1)[0].steps
        st["before"] = st["orig"].system.positions
        return st["orig"].run(M)

    def check_unit(self, st, side, steps) -> None:
        driver = st[side]
        pos = driver.system.positions
        if side == "orig":
            # Distance the original trajectory moved, for the agreement
            # tolerance (largest per-particle displacement of the unit).
            moved = driver.system.minimum_image(pos - st["before"])
            st["path"] += float(np.abs(moved).max())
        self.checks.expect(
            all(s.converged for s in steps) and bool(np.isfinite(pos).all()),
            f"{side} unit: a solve did not converge or positions are not finite",
        )

    def check_pair(self, st) -> None:
        # Both algorithms stop each solve at relative residual tol; with
        # the condition numbers of these matrices the velocities may then
        # differ by up to ~sqrt(tol) relative, so the trajectories may
        # drift apart by sqrt(tol) of the distance travelled.
        mrhs, orig = st["mrhs"], st["orig"]
        diff = orig.system.minimum_image(mrhs.system.positions - orig.system.positions)
        dev = float(np.abs(diff).max())
        bound = math.sqrt(st["params"].tol) * max(st["path"], 1e-12)
        self.checks.expect(
            dev <= bound,
            f"MRHS and original positions differ by {dev:.3e} > {bound:.3e}",
        )

    def snapshot(self, st):
        return st["mrhs"].get_state(), st["orig"].get_state(), st["path"]

    def restore(self, st, snap) -> None:
        st["mrhs"].set_state(snap[0])
        st["orig"].set_state(snap[1])
        st["path"] = snap[2]

    def count_pass(self, st, tag: str) -> Dict[str, Any]:
        n_chunks = len(st["mrhs"].chunks)
        n_orig = len(st["orig"].history)
        times = self.pairs(st, tag, n_pairs=self.pairs_per_pass)
        chunks = st["mrhs"].chunks[n_chunks:]
        orig_steps = st["orig"].history[n_orig:]
        errors = [s.guess_error for c in chunks for s in c.steps[1:]
                  if s.guess_error is not None]
        return {
            "times": times,
            "cg.iters_first_mrhs": sum(s.iterations_first for c in chunks for s in c.steps),
            "cg.iters_first_orig": sum(s.iterations_first for s in orig_steps),
            "mrhs.guess_error_mean": float(np.mean(errors)) if errors else 0.0,
            "mrhs.fallback_columns": sum(len(c.fallback_columns) for c in chunks),
        }

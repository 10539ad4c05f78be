"""Checkpoint/restart: atomicity, corruption detection, bit-exact resume.

The contract under test (DESIGN.md §9): a checkpoint directory never
holds a torn file, a flipped bit is detected rather than resumed from,
and restoring a driver from any checkpoint reproduces the uninterrupted
trajectory bit-for-bit — for both algorithms, including mid-chunk.
"""

import numpy as np
import pytest

from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.resilience import (
    FORMAT_VERSION,
    CheckpointCorruptionError,
    CheckpointManager,
    FaultPlan,
    FaultSpec,
    ResilientRunner,
    SimulationKilled,
    pack_state,
    resume_driver,
    unpack_state,
)
from repro.io import atomic_savez
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.packing import random_configuration

N, PHI, M = 24, 0.2, 4
N_STEPS = 8


def _sd_driver(seed=0):
    system = random_configuration(N, PHI, rng=seed)
    return StokesianDynamics(system, SDParameters(), rng=seed + 1)


def _mrhs_driver(seed=0):
    system = random_configuration(N, PHI, rng=seed)
    return MrhsStokesianDynamics(
        system, SDParameters(), MrhsParameters(m=M), rng=seed + 1
    )


def _records(driver):
    """Step records an MRHS driver holds: finished chunks and pending."""
    pending = [] if driver.pending is None else driver.pending.steps
    return sum(len(c.steps) for c in driver.chunks) + len(pending)


class TestPackState:
    def test_roundtrip_preserves_tree_and_arrays(self):
        state = {
            "kind": "demo",
            "n": 3,
            "x": 1.5,
            "flag": True,
            "nothing": None,
            "name": "run-7",
            "pos": np.arange(12, dtype=np.float64).reshape(4, 3),
            "ids": np.array([5, 7], dtype=np.int64),
            "mask": np.array([True, False]),
            "empty": np.zeros((0, 3)),
            "nested": {"deep": [np.float32([1.25]), "s", 2]},
        }
        out = unpack_state(pack_state(state))
        assert out["kind"] == "demo" and out["n"] == 3 and out["x"] == 1.5
        assert out["flag"] is True and out["nothing"] is None
        assert out["name"] == "run-7"
        np.testing.assert_array_equal(out["pos"], state["pos"])
        assert out["pos"].dtype == np.float64
        np.testing.assert_array_equal(out["ids"], state["ids"])
        np.testing.assert_array_equal(out["mask"], state["mask"])
        assert out["empty"].shape == (0, 3)
        assert out["nested"]["deep"][0].dtype == np.float32
        assert out["nested"]["deep"][1:] == ["s", 2]

    def test_bit_exact_floats(self):
        x = np.nextafter(np.ones(4), 2.0) * np.pi
        out = unpack_state(pack_state({"x": x}))
        assert np.array_equal(out["x"], x)

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            pack_state({"bad": object()})


class TestManager:
    def test_save_load_roundtrip(self, tmp_path):
        man = CheckpointManager(tmp_path)
        state = {"kind": "sd", "pos": np.random.default_rng(0).random((5, 3))}
        path = man.save(state, step=7)
        assert path.name == "ckpt-000000007.npz"
        loaded, meta = man.load(path)
        assert meta["format_version"] == FORMAT_VERSION
        assert meta["step"] == 7 and meta["kind"] == "sd"
        np.testing.assert_array_equal(loaded["pos"], state["pos"])

    def test_retention_keeps_last_k(self, tmp_path):
        man = CheckpointManager(tmp_path, keep=2)
        for step in (1, 2, 3, 4):
            man.save({"kind": "sd", "v": np.array([step])}, step=step)
        names = [p.name for p in man.checkpoints()]
        assert names == ["ckpt-000000003.npz", "ckpt-000000004.npz"]

    def test_flipped_bit_detected(self, tmp_path):
        man = CheckpointManager(tmp_path)
        path = man.save({"kind": "sd", "v": np.arange(64.0)}, step=1)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptionError):
            man.load(path)

    def test_truncated_file_detected(self, tmp_path):
        man = CheckpointManager(tmp_path)
        path = man.save({"kind": "sd", "v": np.arange(64.0)}, step=1)
        path.write_bytes(path.read_bytes()[: 100])
        with pytest.raises(CheckpointCorruptionError, match="unreadable"):
            man.load(path)

    def test_load_latest_falls_back_past_corruption(self, tmp_path):
        man = CheckpointManager(tmp_path)
        man.save({"kind": "sd", "v": np.array([1.0])}, step=1)
        newest = man.save({"kind": "sd", "v": np.array([2.0])}, step=2)
        newest.write_bytes(b"torn")
        state, meta, path = man.load_latest()
        assert meta["step"] == 1 and path.name == "ckpt-000000001.npz"
        with pytest.raises(CheckpointCorruptionError):
            man.load_latest(fallback=False)

    def test_unknown_format_version_refused(self, tmp_path):
        from repro.resilience.checkpoint import _CHECKSUM_KEY, _digest

        payload = {
            "meta": {"format_version": FORMAT_VERSION + 1, "step": 0,
                     "kind": "sd"},
            "state": {"kind": "sd"},
        }
        arrays = pack_state(payload)
        arrays[_CHECKSUM_KEY] = np.array(_digest(arrays))
        path = tmp_path / "ckpt-000000000.npz"
        atomic_savez(path, **arrays)
        with pytest.raises(CheckpointCorruptionError, match="format version"):
            CheckpointManager(tmp_path).load(path)

    def test_missing_directory_raises_filenotfound(self, tmp_path):
        man = CheckpointManager(tmp_path / "empty")
        with pytest.raises(FileNotFoundError):
            man.load()
        with pytest.raises(FileNotFoundError):
            man.load_latest()

    def test_async_save_lands_after_flush(self, tmp_path):
        man = CheckpointManager(tmp_path)
        man.save_async({"kind": "sd", "v": np.arange(8.0)}, step=3)
        man.flush()
        state, meta = man.load()
        assert meta["step"] == 3
        np.testing.assert_array_equal(state["v"], np.arange(8.0))

    def test_async_save_error_surfaces_on_flush(self, tmp_path):
        man = CheckpointManager(tmp_path)
        man.save_async({"kind": "sd", "bad": object()}, step=1)
        with pytest.raises(TypeError, match="cannot checkpoint"):
            man.flush()


class TestFileFormat:
    """Stored digests pinned to what earlier builds wrote: the archive
    layout, meta key order and kind defaults stay byte-compatible."""

    @staticmethod
    def _stored_checksum(path):
        with np.load(path, allow_pickle=False) as data:
            return str(data["__checksum__"][()])

    def test_global_checkpoint_checksum_pinned(self, tmp_path):
        path = CheckpointManager(tmp_path).save(
            {"kind": "sd", "v": np.arange(8.0)}, step=1
        )
        assert self._stored_checksum(path) == (
            "c3e5d77b793933867cb88d19d06d772800fc98bfd823333773e7b0f855a162c6"
        )

    def test_shard_checksum_pinned(self, tmp_path):
        path = CheckpointManager(tmp_path).save_shard(
            {"x": np.arange(4.0)}, step=1, rank=0
        )
        assert self._stored_checksum(path) == (
            "c3160d2a7c925d2a30d486ccbf31de5122e12dbfaef31859c5301a997edbd597"
        )


class TestAtomicity:
    def test_failed_write_leaves_destination_and_no_temp(self, tmp_path):
        path = tmp_path / "data.npz"
        atomic_savez(path, v=np.array([1.0]))
        before = path.read_bytes()

        class Exploding:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError, match="disk on fire"):
            atomic_savez(path, v=np.array([2.0]), w=Exploding())
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_partial_write_never_under_final_name(self, tmp_path):
        """A crash mid-write leaves only .tmp litter, never a torn
        archive under the destination name."""
        path = tmp_path / "fresh.npz"

        class Exploding:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("crash")

        with pytest.raises(RuntimeError):
            atomic_savez(path, w=Exploding())
        assert not path.exists()


class TestRetentionSafety:
    """Keep-K pruning must never let a bad in-flight write evict the
    newest *verified* checkpoint (regression: pruning used to run
    unconditionally after the write)."""

    def _torn_savez(self, cut=200):
        """An ``atomic_savez`` stand-in whose file lands truncated —
        storage that acknowledged a write it only half-performed."""

        def savez(path, *, compress=False, fsync=False, **arrays):
            real = atomic_savez(
                path, compress=compress, fsync=fsync, **arrays
            )
            real.write_bytes(real.read_bytes()[:cut])
            return real

        return savez

    def test_torn_write_raises_and_keeps_older(self, tmp_path, monkeypatch):
        import repro.resilience.checkpoint as ckpt_mod

        man = CheckpointManager(tmp_path, keep=1)
        good = man.save({"kind": "sd", "v": np.arange(8.0)}, step=1)
        monkeypatch.setattr(
            ckpt_mod, "atomic_savez", self._torn_savez()
        )
        with pytest.raises(CheckpointCorruptionError, match="verification"):
            man.save({"kind": "sd", "v": np.arange(8.0) + 1}, step=2)
        # Even at keep=1, the failed write must not have pruned the
        # only verified checkpoint — and its torn file is cleaned up.
        assert [p.name for p in man.checkpoints()] == [good.name]
        state, meta, path = man.load_latest()
        assert meta["step"] == 1 and path == good

    def test_torn_shard_write_keeps_older_wave(self, tmp_path, monkeypatch):
        import repro.resilience.checkpoint as ckpt_mod

        man = CheckpointManager(tmp_path, keep=1)
        man.save_shard({"x": np.arange(4.0)}, step=1, rank=0)
        monkeypatch.setattr(
            ckpt_mod, "atomic_savez", self._torn_savez()
        )
        with pytest.raises(CheckpointCorruptionError):
            man.save_shard({"x": np.arange(4.0) + 1}, step=2, rank=0)
        assert man.shard_steps() == [1]

    def test_async_torn_write_surfaces_on_flush(self, tmp_path, monkeypatch):
        import repro.resilience.checkpoint as ckpt_mod

        man = CheckpointManager(tmp_path, keep=1)
        man.save({"kind": "sd", "v": np.arange(4.0)}, step=1)
        monkeypatch.setattr(
            ckpt_mod, "atomic_savez", self._torn_savez()
        )
        man.save_async({"kind": "sd", "v": np.arange(4.0)}, step=2)
        with pytest.raises(CheckpointCorruptionError):
            man.flush()
        assert [p.name for p in man.checkpoints()] == [
            "ckpt-000000001.npz"
        ]


class TestBitExactResume:
    def test_sd_resume_matches_uninterrupted(self, tmp_path):
        full = _sd_driver()
        full.run(N_STEPS)

        part = _sd_driver()
        part.run(3)
        man = CheckpointManager(tmp_path)
        man.save(part.get_state(), step=3)
        state, meta, _ = man.load_latest()
        resumed = resume_driver(state)
        resumed.run(N_STEPS - 3)
        assert np.array_equal(
            resumed.system.positions, full.system.positions
        )
        assert resumed.step_index == full.step_index

    @pytest.mark.parametrize("kill_at", [2, 3, 5, 7])
    def test_mrhs_kill_and_resume_matches_uninterrupted(
        self, tmp_path, kill_at
    ):
        """The headline guarantee: kill an MRHS run at an arbitrary
        step (mid-chunk included), resume from the latest checkpoint,
        and the final positions are bit-identical."""
        full = ResilientRunner(_mrhs_driver())
        full.run_steps(N_STEPS)
        reference = full.driver.sd.system.positions

        man = CheckpointManager(tmp_path)
        killed = ResilientRunner(
            _mrhs_driver(),
            manager=man,
            checkpoint_every=1,
            injector=FaultPlan(
                specs=(FaultSpec(site="runner.abort", at={"step": kill_at}),)
            ),
        )
        with pytest.raises(SimulationKilled):
            killed.run_steps(N_STEPS)

        state, meta, _ = man.load_latest()
        driver = resume_driver(state)
        assert driver.sd.step_index == kill_at
        ResilientRunner(driver).run_steps(N_STEPS - kill_at)
        assert np.array_equal(driver.sd.system.positions, reference)
        # Records are each process's own log: the killed process's
        # steps and the resumed process's steps account for every step
        # exactly once.
        assert _records(killed.driver) + _records(driver) == N_STEPS

    @pytest.mark.parametrize(
        "make", [_sd_driver, _mrhs_driver], ids=["sd", "mrhs"]
    )
    def test_resume_drops_removed_engine_param(self, tmp_path, make):
        """Checkpoints written while ``SDParameters`` had an ``engine``
        field carry ``params["engine"]``; they still resume, through
        both ``from_state`` and ``set_state``, bit-identically."""
        full = ResilientRunner(make())
        full.run_steps(N_STEPS)

        man = CheckpointManager(tmp_path)
        killed = ResilientRunner(
            make(),
            manager=man,
            checkpoint_every=1,
            injector=FaultPlan(
                specs=(FaultSpec(site="runner.abort", at={"step": 3}),)
            ),
        )
        with pytest.raises(SimulationKilled):
            killed.run_steps(N_STEPS)
        state, _, _ = man.load_latest()
        sd_state = state["sd"] if state["kind"] == "mrhs" else state
        sd_state["params"]["engine"] = "scipy"
        man.save(state, step=3)

        resumed = resume_driver(man.load_latest()[0])
        live = make()
        live.set_state(man.load_latest()[0])
        reference = getattr(full.driver, "sd", full.driver).system.positions
        for driver in (resumed, live):
            ResilientRunner(driver).run_steps(N_STEPS - 3)
            sd = getattr(driver, "sd", driver)
            assert not hasattr(sd.params, "engine")
            assert np.array_equal(sd.system.positions, reference)

    def test_resume_driver_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown checkpoint kind"):
            resume_driver({"kind": "mystery"})

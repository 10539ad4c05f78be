"""Atomic, versioned, checksummed run checkpoints.

A checkpoint is the trajectory state of a simulation driver — particle
system, RNG bit-generator states, step index, MRHS chunk count and
mid-chunk position — packed into a single NPZ archive.  Step and chunk
records are not in it: they are the log of the process that ran them,
so a checkpoint's size does not grow with the run.  The contract that
everything else builds on:

* **Crash safety.**  Writes go through :func:`repro.io.atomic_savez`
  (temp file + ``os.replace``), so the checkpoint directory never
  contains a torn file under a checkpoint name.
* **Corruption detection.**  A SHA-256 digest over every array's bytes
  (and the JSON state tree) is stored inside the archive and verified
  on load; a flipped bit raises :class:`CheckpointCorruptionError`
  instead of resuming from garbage.
* **Versioning.**  ``meta/format_version`` gates loaders; unknown
  versions are refused loudly.
* **Bit-exact resume.**  Restoring a driver from a checkpoint and
  continuing reproduces the uninterrupted trajectory bit-for-bit
  (tested for both :class:`~repro.stokesian.dynamics.StokesianDynamics`
  and :class:`~repro.core.mrhs.MrhsStokesianDynamics`), because the
  state includes the RNG bit-generator states, the cached Chebyshev
  spectrum bounds with their refresh age, and — mid-chunk — the block
  solve's noise ``Z`` and guess matrix ``U``.

The state itself is a JSON-friendly nested dict whose ndarray leaves
are concatenated byte-exactly into a single blob entry while scalars,
strings and ``None`` ride in a JSON tree indexing into it
(:func:`pack_state` / :func:`unpack_state`).
"""

from __future__ import annotations

import glob
import hashlib
import json
import logging
import queue
import re
import threading
import time
import zipfile
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

import repro.telemetry as _telemetry
from repro.durable import remove_orphans
from repro.io import atomic_savez
from repro.util.rng import rng_from_json, rng_state_to_json  # noqa: F401  (re-export)

__all__ = [
    "FORMAT_VERSION",
    "CheckpointCorruptionError",
    "CheckpointManager",
    "pack_state",
    "unpack_state",
    "rng_state_to_json",
    "rng_from_json",
]

PathLike = Union[str, Path]

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1

_TREE_KEY = "__tree__"
_BLOB_KEY = "__blob__"
_CHECKSUM_KEY = "__checksum__"
_ARRAY_TAG = "__array__"


class CheckpointCorruptionError(RuntimeError):
    """The checkpoint file is unreadable or fails its checksum."""


# ----------------------------------------------------------------------
# state tree <-> NPZ arrays
# ----------------------------------------------------------------------
def pack_state(state: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """Flatten a nested state dict into NPZ-ready arrays.

    ndarray leaves are concatenated byte-exactly into **one** ``uint8``
    blob (a zip entry per array would dominate the checkpoint budget —
    a state with its health report and metrics holds many small
    arrays); the remaining structure — dicts, lists, scalars, strings,
    ``None`` — rides in a JSON tree whose ``{"__array__": {dtype,
    shape, offset, nbytes}}`` placeholders index into the blob.
    """
    chunks: List[bytes] = []
    offset = 0

    def encode(obj: Any) -> Any:
        nonlocal offset
        if isinstance(obj, np.ndarray):
            if obj.dtype == object:
                raise TypeError("cannot checkpoint an object array")
            raw = np.ascontiguousarray(obj).tobytes()
            spec = {
                "dtype": str(obj.dtype),
                "shape": list(obj.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
            chunks.append(raw)
            offset += len(raw)
            return {_ARRAY_TAG: spec}
        if isinstance(obj, dict):
            return {str(k): encode(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [encode(v) for v in obj]
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.bool_):
            return bool(obj)
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        raise TypeError(f"cannot checkpoint value of type {type(obj).__name__}")

    tree = encode(dict(state))
    return {
        _TREE_KEY: np.array(json.dumps(tree)),
        _BLOB_KEY: np.frombuffer(b"".join(chunks), dtype=np.uint8),
    }


def unpack_state(arrays: Mapping[str, np.ndarray]) -> Dict[str, Any]:
    """Inverse of :func:`pack_state`."""
    tree = json.loads(str(arrays[_TREE_KEY][()]))
    blob = np.asarray(arrays[_BLOB_KEY]).tobytes()

    def decode(obj: Any) -> Any:
        if isinstance(obj, dict):
            if set(obj) == {_ARRAY_TAG}:
                spec = obj[_ARRAY_TAG]
                raw = blob[spec["offset"] : spec["offset"] + spec["nbytes"]]
                return np.frombuffer(raw, dtype=np.dtype(spec["dtype"])).reshape(
                    spec["shape"]
                ).copy()
            return {k: decode(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [decode(v) for v in obj]
        return obj

    return decode(tree)


def _digest(arrays: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over every stored array's identity, dtype, shape, bytes."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        if key == _CHECKSUM_KEY:
            continue
        a = np.ascontiguousarray(arrays[key])
        h.update(key.encode())
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# manager
# ----------------------------------------------------------------------
Wave = Dict[Optional[int], Path]
"""The files of one step, ``{rank: path}``; a global checkpoint's rank is
``None``."""


class CheckpointManager:
    """Writes, retains, verifies, and loads run checkpoints.

    Global checkpoints (``<prefix>-<step:09d>.npz``) and per-rank shards
    (``<prefix>-shard<rank:04d>-<step:09d>.npz``) share one write path
    (atomic write, digest read-back, degraded ladder), one index over
    the primary and spill directories, one keep-newest-steps retention
    per kind, and one newest-first fallback walk on load.

    Parameters
    ----------
    directory:
        Checkpoint directory (created if missing).
    keep:
        Retention: only the ``keep`` most recent steps of each kind are
        kept on disk (older ones are pruned after each successful save).
    prefix:
        Filename prefix.
    spill_dir:
        Optional secondary directory (ideally a different filesystem).
        When the primary write fails with :class:`OSError` even after
        the governor's emergency release, the checkpoint or shard fails
        over here; retention and resume span both directories.
    governor:
        Optional :class:`~repro.resources.ResourceGovernor` consulted
        on a failed write: junior-class artifacts (sealed telemetry
        segments, flight bundles) are evicted to make room for the
        checkpoint before the spill directory is tried.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        keep: int = 3,
        prefix: str = "ckpt",
        spill_dir: Optional[PathLike] = None,
        governor: Optional[Any] = None,
    ) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        if not prefix or "/" in prefix:
            raise ValueError("prefix must be a non-empty bare name")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)
        self.prefix = prefix
        self._name_re = re.compile(
            re.escape(prefix) + r"-(?:shard(\d+)-)?(\d+)\.npz"
        )
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.governor = governor
        # A save killed mid-publish leaves its temp file behind.
        for d in (self.directory, self.spill_dir):
            if d is not None:
                remove_orphans(d, glob.escape(prefix) + "-*")
        self.spills = 0
        self._queue: Optional[queue.Queue] = None
        self._worker: Optional[threading.Thread] = None
        self._worker_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # file names and the index over both directories
    # ------------------------------------------------------------------
    def _name(self, step: int, rank: Optional[int]) -> str:
        shard = "" if rank is None else f"shard{rank:04d}-"
        return f"{self.prefix}-{shard}{step:09d}.npz"

    def path_for(self, step: int) -> Path:
        return self.directory / self._name(step, None)

    def shard_path_for(self, step: int, rank: int) -> Path:
        return self.directory / self._name(step, rank)

    def _waves(self, shards: bool) -> Dict[int, Wave]:
        """``{step: {rank: path}}`` of one kind on disk, oldest first.

        Spilled files (written to ``spill_dir`` after a failed primary
        write) merge in, so retention and resume see one timeline; a
        file present in both directories resolves to the primary copy.
        """
        waves: Dict[int, Wave] = {}
        for d in (self.spill_dir, self.directory):
            if d is None or not d.is_dir():
                continue
            for p in d.glob(glob.escape(self.prefix) + "-*.npz"):
                m = self._name_re.fullmatch(p.name)
                if m is None or (m[1] is not None) != shards:
                    continue
                rank = None if m[1] is None else int(m[1])
                waves.setdefault(int(m[2]), {})[rank] = p
        return dict(sorted(waves.items()))

    def checkpoints(self) -> List[Path]:
        """Existing *global* checkpoint files, oldest first (shards are
        listed by :meth:`shard_steps` and :meth:`shards_at`)."""
        return [wave[None] for wave in self._waves(False).values()]

    def steps(self) -> List[int]:
        """Steps that have a global checkpoint on disk, oldest first."""
        return list(self._waves(False))

    def latest(self) -> Optional[Path]:
        found = self.checkpoints()
        return found[-1] if found else None

    def shard_steps(self) -> List[int]:
        """Steps that have at least one shard on disk, oldest first."""
        return list(self._waves(True))

    def shards_at(self, step: int) -> Dict[int, Path]:
        """``{rank: path}`` of the shards stored for ``step``."""
        return self._waves(True).get(int(step), {})

    # ------------------------------------------------------------------
    # write
    # ------------------------------------------------------------------
    def save(self, state: Mapping[str, Any], *, step: int) -> Path:
        """Atomically write ``state`` as the checkpoint for ``step``."""
        t0 = time.perf_counter()
        path = self._write(state, step, None)
        hub = _telemetry.active_hub
        if hub is not None:
            # Metrics only: save() may run on the background writer
            # thread, and the tracer's span stack is not thread-safe.
            mx = hub.metrics
            mx.counter("checkpoint.writes").inc()
            mx.counter("checkpoint.bytes").inc(path.stat().st_size)
            mx.histogram("checkpoint.write_seconds").observe(
                time.perf_counter() - t0
            )
        return path

    def save_shard(
        self, state: Mapping[str, Any], *, step: int, rank: int
    ) -> Path:
        """Atomically write one rank's shard of the step-``step`` state.

        Shards take the same write, checksum, ladder and retention as
        :meth:`save`, but are keyed by ``(step, rank)``: rank recovery
        (:class:`~repro.distributed.recovery.RankRecoveryManager`)
        rebuilds a dead rank's rows from the latest step at which
        *every* rank's shard is on disk.
        """
        if rank < 0:
            raise ValueError("rank must be non-negative")
        path = self._write(state, step, int(rank))
        hub = _telemetry.active_hub
        if hub is not None:
            hub.metrics.counter("checkpoint.shard_writes").inc()
        return path

    def _write(
        self, state: Mapping[str, Any], step: int, rank: Optional[int]
    ) -> Path:
        """Pack, digest, publish and prune one archive of either kind."""
        if step < 0:
            raise ValueError("step must be non-negative")
        meta: Dict[str, Any] = {"format_version": FORMAT_VERSION, "step": int(step)}
        if rank is not None:
            meta["rank"] = rank
        meta["kind"] = str(state.get("kind", "unknown" if rank is None else "shard"))
        arrays = pack_state({"meta": meta, "state": dict(state)})
        arrays[_CHECKSUM_KEY] = np.array(_digest(arrays))
        name = self._name(step, rank)
        try:
            path = self._publish(self.directory / name, arrays)
        except OSError as exc:
            path = self._save_degraded(arrays, name, exc)
        self._prune(shards=rank is not None)
        return path

    def _publish(self, target: Path, arrays: Mapping[str, np.ndarray]) -> Path:
        """Atomic write + digest read-back of one archive at ``target``.

        Uncompressed and without fsync: a checkpoint must cost a few
        percent of one step; deflate and fsync dominate the write at
        that budget, and neither buys anything against the layer's
        threat model (process death + checksum-verified load).

        Retention safety: never let a bad in-flight write evict the
        newest *verified* step.  Pruning runs only after the
        just-written file passes the same digest check a resume would
        apply; a write that lands torn is deleted and reported, leaving
        every older file in place.
        """
        path = atomic_savez(target, compress=False, fsync=False, **arrays)
        try:
            self._read(path, "after writing")
        except CheckpointCorruptionError:
            with suppress(OSError):  # pragma: no cover - already gone
                path.unlink()
            raise
        return path

    def _save_degraded(
        self, arrays: Mapping[str, np.ndarray], name: str, first_exc: OSError
    ) -> Path:
        """The degraded-mode ladder after a failed write of ``name``.

        Checkpoints are the senior durable class, so a failed write
        escalates instead of shedding: (1) ask the governor to evict
        junior artifacts (sealed telemetry segments, then flight
        bundles) and retry the primary path once; (2) fail over to the
        spill directory — same atomic write, same checksum read-back;
        (3) only when every rung fails raise
        :class:`~repro.resources.ResourceExhausted`, which the runner
        surfaces as FATAL (losing checkpoint durability silently is
        worse than stopping).
        """
        from repro.resources.governor import ResourceExhausted

        logger.warning(
            "checkpoint write of %s failed (%s); entering degraded ladder",
            name, first_exc,
        )
        if self.governor is not None:
            need = int(arrays[_BLOB_KEY].nbytes) * 2 + (1 << 20)
            self.governor.emergency_release(need)
            try:
                return self._publish(self.directory / name, arrays)
            except OSError:
                pass
        if self.spill_dir is None:
            raise ResourceExhausted(
                f"checkpoint {name} failed ({first_exc}) and no spill "
                "directory is configured"
            ) from first_exc
        try:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            path = self._publish(self.spill_dir / name, arrays)
        except OSError as exc:
            raise ResourceExhausted(
                f"checkpoint {name} failed on both the primary directory "
                f"({first_exc}) and the spill directory ({exc})"
            ) from exc
        self.spills += 1
        logger.warning("checkpoint %s spilled to %s", name, path)
        hub = _telemetry.active_hub
        if hub is not None:
            hub.metrics.counter("checkpoint.spills").inc()
        return path

    def _prune(self, *, shards: bool) -> None:
        """Delete every file of one kind outside the ``keep`` newest steps."""
        waves = list(self._waves(shards).values())
        for wave in waves[: max(0, len(waves) - self.keep)]:
            for p in wave.values():
                with suppress(OSError):  # pragma: no cover - racing cleanup
                    p.unlink()

    def save_async(self, state: Mapping[str, Any], *, step: int) -> Path:
        """Queue ``state`` for writing on the background writer thread.

        The caller pays only for the enqueue — the driver's
        ``get_state()`` snapshot is already a full copy, so the
        pack/digest/write pipeline runs safely off the critical path
        (async checkpointing; this is how the <5%-of-a-step overhead
        budget is met).  Call :meth:`flush` to wait for queued writes;
        a failed background write re-raises there (or on the next
        ``save_async``).  Returns the path the checkpoint will land at.
        """
        if step < 0:
            raise ValueError("step must be non-negative")
        self._raise_worker_error()
        if self._worker is None or not self._worker.is_alive():
            self._queue = queue.Queue()
            self._worker = threading.Thread(
                target=self._drain, name="checkpoint-writer", daemon=True
            )
            self._worker.start()
        self._queue.put((dict(state), int(step)))
        return self.path_for(step)

    def flush(self) -> None:
        """Block until every queued async checkpoint is on disk."""
        if self._queue is not None:
            self._queue.join()
        self._raise_worker_error()

    def _drain(self) -> None:
        while True:
            state, step = self._queue.get()
            try:
                self.save(state, step=step)
            except BaseException as exc:  # noqa: BLE001 - reported on flush
                self._worker_error = exc
            finally:
                self._queue.task_done()

    def _raise_worker_error(self) -> None:
        exc, self._worker_error = self._worker_error, None
        if exc is not None:
            raise exc

    # ------------------------------------------------------------------
    # read
    # ------------------------------------------------------------------
    def _read(self, path: Path, when: str) -> Dict[str, np.ndarray]:
        """Every array of the archive at ``path``, digest-checked but
        not unpacked (the cheap check each write applies before
        pruning older steps).

        Raises :class:`CheckpointCorruptionError` on a torn archive, a
        missing checksum or state tree, or a digest mismatch;
        :class:`FileNotFoundError` passes through.
        """
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {k: np.asarray(data[k]) for k in data.files}
        except FileNotFoundError:
            raise
        except (zipfile.BadZipFile, ValueError, KeyError, OSError, EOFError) as exc:
            raise CheckpointCorruptionError(
                f"checkpoint {path} failed verification {when}: "
                f"unreadable ({exc})"
            ) from exc
        if not {_CHECKSUM_KEY, _TREE_KEY, _BLOB_KEY} <= set(arrays):
            problem = "no checksum or state tree"
        elif _digest(arrays) != str(arrays[_CHECKSUM_KEY][()]):
            problem = "content checksum mismatch"
        else:
            return arrays
        raise CheckpointCorruptionError(
            f"checkpoint {path} failed verification {when}: {problem}"
        )

    def load(self, path: Optional[PathLike] = None) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Load and verify a checkpoint; returns ``(state, meta)``.

        ``path`` defaults to the most recent checkpoint.  Raises
        :class:`CheckpointCorruptionError` for truncated archives,
        checksum mismatches, or unknown format versions, and
        :class:`FileNotFoundError` when there is nothing to load.
        """
        if path is None:
            path = self.latest()
            if path is None:
                raise FileNotFoundError(
                    f"no checkpoints under {self.directory}"
                )
        payload = unpack_state(self._read(Path(path), "on load"))
        meta = payload.get("meta", {})
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointCorruptionError(
                f"checkpoint {path} has format version {version!r}; "
                f"this build reads version {FORMAT_VERSION}"
            )
        return payload["state"], meta

    def _first_loadable(
        self,
        waves: Dict[int, Wave],
        load_wave: Callable[[int, Wave], Any],
        *,
        fallback: bool = True,
    ) -> Any:
        """``load_wave(step, wave)`` of the newest wave that loads.

        With ``fallback``, a :class:`CheckpointCorruptionError` skips
        to the next older step (the recovery path after a crash plus
        disk corruption); without it, the newest step's error stands.
        """
        if not waves:
            raise FileNotFoundError(f"nothing to load under {self.directory}")
        last_error: Optional[Exception] = None
        for step in reversed(waves):
            try:
                return load_wave(step, waves[step])
            except CheckpointCorruptionError as exc:
                if not fallback:
                    raise
                last_error = exc
        raise CheckpointCorruptionError(
            f"none of the {len(waves)} steps under {self.directory} "
            f"loads; last error: {last_error}"
        )

    def load_latest(self, *, fallback: bool = True) -> Tuple[Dict[str, Any], Dict[str, Any], Path]:
        """Load the newest *loadable* checkpoint.

        With ``fallback`` (default), a corrupt newest checkpoint is
        skipped and older ones are tried.  Returns
        ``(state, meta, path)``.
        """
        return self._first_loadable(
            self._waves(False),
            lambda step, wave: (*self.load(wave[None]), wave[None]),
            fallback=fallback,
        )

    def load_shards(
        self, step: Optional[int] = None, *, expect_ranks: Optional[int] = None
    ) -> Tuple[Dict[int, Dict[str, Any]], int]:
        """Load every rank's shard for one step; ``(states, step)``.

        ``step`` defaults to the newest step whose shard set is
        *complete* (``expect_ranks`` shards present, when given) and
        fully loadable — an interrupted shard wave or a corrupt file
        falls back to the previous step, as in :meth:`load_latest`.
        """
        waves = self._waves(True)
        if step is not None:
            if int(step) not in waves:
                raise FileNotFoundError(
                    f"no shards for step {step} under {self.directory}"
                )
            waves = {int(step): waves[int(step)]}

        def load_wave(s: int, wave: Wave) -> Tuple[Dict[int, Any], int]:
            if expect_ranks is not None and len(wave) != expect_ranks:
                raise CheckpointCorruptionError(
                    f"step {s} has {len(wave)}/{expect_ranks} shards"
                )
            return {r: self.load(p)[0] for r, p in sorted(wave.items())}, s

        return self._first_loadable(waves, load_wave)

    # ------------------------------------------------------------------
    def overhead_estimate(self) -> Dict[str, float]:
        """Size-on-disk summary (bytes) for telemetry/benchmarks."""
        sizes = [p.stat().st_size for p in self.checkpoints()]
        return {
            "count": float(len(sizes)),
            "total_bytes": float(sum(sizes)),
            "mean_bytes": float(np.mean(sizes)) if sizes else 0.0,
        }

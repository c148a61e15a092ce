"""Persistent result store: in-memory + on-disk cache of workload runs.

This replaces the old module-global ``_RUN_CACHE`` dict in the harness.
A :class:`ResultStore` has two layers:

* an in-memory dict, so repeated lookups within one process return the
  *same* :class:`~repro.core.results.WorkloadRun` object (the property
  the harness always had);
* an optional on-disk layer of JSON files under ``.repro_cache/`` (or
  ``$REPRO_CACHE_DIR``), so repeated figure/benchmark invocations across
  processes are warm-start: a sweep that was already simulated is served
  from disk without re-running anything.

Keys are the content hashes produced by
:func:`repro.core.serialization.run_cache_key` — they cover the complete
machine configuration and all workload parameters, so any configuration
change automatically misses the cache rather than returning stale
numbers.  Set ``REPRO_CACHE=off`` to disable the disk layer entirely.

The disk layer is safe for concurrent multi-process use (daemon handler
threads, ``ParallelRunner`` workers, and independent CLI invocations
sharing one cache directory): every write goes through a temp file +
``os.replace`` (readers never see a torn entry), writers to the same
entry serialise on a per-entry ``fcntl`` advisory lock, and a reader
that still finds an unparseable file retries once under that lock
before treating it as a miss (logged once per store) and dropping it.
An entry whose embedded ``key`` (or ``kind``) is not the one requested,
or whose content does not decode, is dropped the same way, so a file
under the wrong name or with a damaged payload is never served.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

try:  # pragma: no cover - fcntl is present on every POSIX build
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: atomic writes only
    fcntl = None  # type: ignore[assignment]

from repro.core.results import WorkloadRun
from repro.core.serialization import SCHEMA_VERSION, run_from_dict, run_to_dict
from repro.obs.metrics import global_registry
from repro.obs.trace import wall_span

_LOGGER = logging.getLogger("repro.store")

# Process-wide mirrors of the per-instance hit/miss counters, so the
# metrics surface aggregates across every store a process creates.
_MEMORY_HITS = global_registry().counter(
    "repro_store_memory_hits_total", "Store lookups served from memory"
)
_DISK_HITS = global_registry().counter(
    "repro_store_disk_hits_total", "Store lookups served from disk"
)
_MISSES = global_registry().counter(
    "repro_store_misses_total", "Store lookups that missed both layers"
)

#: Environment variable naming the on-disk cache directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
#: Environment variable disabling the disk layer (``off``/``0``/``no``).
CACHE_MODE_ENV_VAR = "REPRO_CACHE"
#: Default on-disk cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"


class ResultStore:
    """Two-layer (memory + disk) store of simulation results.

    Args:
        directory: On-disk cache directory, or ``None`` for memory-only.

    Attributes:
        memory_hits: Lookups served from the in-memory layer.
        disk_hits: Lookups served by loading a JSON file from disk.
        misses: Lookups that found nothing (the caller must simulate).
    """

    def __init__(self, directory: Union[str, Path, None] = DEFAULT_CACHE_DIR) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._memory: Dict[str, WorkloadRun] = {}
        self._payload_memory: Dict[Tuple[str, str], Dict] = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self._corruption_logged = False

    @classmethod
    def in_memory(cls) -> ResultStore:
        """Store with no disk layer (tests, throwaway sweeps)."""
        return cls(directory=None)

    @classmethod
    def from_environment(cls) -> ResultStore:
        """Store honouring ``REPRO_CACHE`` and ``REPRO_CACHE_DIR``."""
        mode = os.environ.get(CACHE_MODE_ENV_VAR, "").strip().lower()
        if mode in ("off", "0", "no", "disabled"):
            return cls.in_memory()
        return cls(os.environ.get(CACHE_DIR_ENV_VAR, DEFAULT_CACHE_DIR))

    # ------------------------------------------------------------------
    # Lookup / insert

    def _path_for(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"run-v{SCHEMA_VERSION}-{key}.json"

    def get(self, key: str) -> Optional[WorkloadRun]:
        """Return the stored run for ``key``, or ``None`` on a miss."""
        run = self._memory.get(key)
        if run is not None:
            self.memory_hits += 1
            _MEMORY_HITS.inc()
            return run
        if self.directory is not None:
            path = self._path_for(key)
            document = self._read_document(path)
            run = None
            if document is not None:
                try:
                    if document["key"] == key:
                        run = run_from_dict(document["run"])
                except (ValueError, KeyError, TypeError):
                    pass
                if run is None:
                    # Parseable JSON but not this key's run document of
                    # this schema: drop it so the next put() rewrites cleanly.
                    self._drop_corrupt(path)
            if run is not None:
                self._memory[key] = run
                self.disk_hits += 1
                _DISK_HITS.inc()
                return run
        self.misses += 1
        _MISSES.inc()
        return None

    def put(self, key: str, run: WorkloadRun) -> None:
        """Store a run under ``key`` in memory and (if enabled) on disk."""
        self._memory[key] = run
        if self.directory is None:
            return
        path = self._path_for(key)
        with self._entry_lock(path):
            self._write_json(path, {"key": key, "run": run_to_dict(run)})

    # ------------------------------------------------------------------
    # Concurrency-safe disk primitives

    @contextmanager
    def _entry_lock(self, path: Path) -> Iterator[None]:
        """Per-entry advisory lock serialising writers (POSIX ``fcntl``).

        Writes are already atomic (temp file + ``os.replace``), so the
        lock's job is ordering: two processes racing to persist the same
        key produce one replace after the other instead of interleaved
        temp-file churn, and a read retry can wait out an in-flight
        writer.  Without ``fcntl`` (non-POSIX) this degrades to the
        atomic-rename guarantee alone.
        """
        if self.directory is None or fcntl is None:
            yield
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        lock_path = self.directory / f".lock-{path.stem}"
        with open(lock_path, "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _read_document(self, path: Path) -> Optional[Dict]:
        """Parse one entry file; unparseable entries become misses.

        A parse failure is retried once under the entry lock (waiting
        out any in-flight writer) before the file is declared corrupt,
        logged once per store, and unlinked so the next put() rewrites
        a clean entry.
        """
        try:
            with wall_span("store-read", track="store", entry=path.name):
                return json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            pass
        with self._entry_lock(path):
            try:
                return json.loads(path.read_text())
            except FileNotFoundError:
                return None
            except (OSError, ValueError):
                self._drop_corrupt(path)
                return None

    def _drop_corrupt(self, path: Path) -> None:
        if not self._corruption_logged:
            self._corruption_logged = True
            _LOGGER.warning(
                "dropping unreadable or mis-keyed cache entry %s (treating as a miss; "
                "further drops by this store are not logged)",
                path,
            )
        try:
            path.unlink()
        except OSError:
            pass

    def _write_json(self, path: Path, payload: Dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        # Atomic write: a crashed or concurrent writer never leaves a
        # half-written JSON file where a reader can see it.
        fd, temp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=self.directory
        )
        try:
            with wall_span("store-write", track="store", entry=path.name):
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle)
                os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Generic JSON documents (scenario outcomes, future result kinds)

    def _payload_path(self, kind: str, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{kind}-v{SCHEMA_VERSION}-{key}.json"

    def get_payload(
        self, kind: str, key: str, decode: Optional[Callable[[Dict], Any]] = None
    ) -> Any:
        """Return the stored JSON document of ``kind`` for ``key``, decoded.

        The document layer shares the two-layer policy (and hit/miss
        counters) of the run layer but stores schemaless JSON dicts, so
        new result kinds — security-scenario outcomes today — persist
        through the same store without the run layer's
        :class:`WorkloadRun` shape.  ``decode`` (the raw document when
        omitted) runs inside the disk layer's corruption guard, as
        :meth:`get` decodes runs: a file it cannot decode is dropped and
        counted as a miss.
        """
        payload = self._payload_memory.get((kind, key))
        if payload is not None:
            self.memory_hits += 1
            _MEMORY_HITS.inc()
            return payload if decode is None else decode(payload)
        if self.directory is not None:
            path = self._payload_path(kind, key)
            document = self._read_document(path)
            value = None
            if document is not None:
                try:
                    if document["kind"] == kind and document["key"] == key:
                        payload = document["payload"]
                        value = payload if decode is None else decode(payload)
                except (KeyError, TypeError, ValueError):
                    pass
                if value is None:
                    self._drop_corrupt(path)
            if value is not None:
                self._payload_memory[(kind, key)] = payload
                self.disk_hits += 1
                _DISK_HITS.inc()
                return value
        self.misses += 1
        _MISSES.inc()
        return None

    def put_payload(self, kind: str, key: str, payload: Dict) -> None:
        """Store a JSON document of ``kind`` under ``key``."""
        self._payload_memory[(kind, key)] = payload
        if self.directory is None:
            return
        path = self._payload_path(kind, key)
        with self._entry_lock(path):
            self._write_json(
                path, {"kind": kind, "key": key, "payload": payload}
            )

    # ------------------------------------------------------------------
    # Introspection / maintenance

    def stats(self) -> Dict[str, Any]:
        """Counter and entry-count snapshot (the daemon's health surface).

        Hit counters cover this store instance's lifetime; the disk
        entry counts cover the directory, which other processes may
        share.
        """
        lookups = self.memory_hits + self.disk_hits + self.misses
        disk_entries: Dict[str, int] = {}
        if self.directory is not None and self.directory.is_dir():
            marker = f"-v{SCHEMA_VERSION}-"
            for path in sorted(self.directory.glob(f"*{marker}*.json")):
                if path.name.startswith("."):
                    continue  # in-flight temp files from _write_json
                kind = path.name.split(marker)[0]
                disk_entries[kind] = disk_entries.get(kind, 0) + 1
        return {
            "directory": str(self.directory) if self.directory is not None else None,
            "schema_version": SCHEMA_VERSION,
            "memory_runs": len(self._memory),
            "memory_documents": len(self._payload_memory),
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "hit_rate": (
                (self.memory_hits + self.disk_hits) / lookups if lookups else None
            ),
            "disk_entries": disk_entries,
        }

    def __len__(self) -> int:
        return len(self._memory)

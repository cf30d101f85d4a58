"""Content-addressed on-disk store of simulation results.

This is the one per-cell store of the package.  Every cell of an
evaluation grid is a pure function of its sweep task — the package
sources, the system configuration, the workload recipe, the scheme,
the cycle budget, the audit switch and the fault profile.  The sweep
executor (:func:`repro.analysis.parallel.run_tasks_resilient`) hashes
exactly that into a key (:func:`repro.analysis.parallel.task_key`) and
stores the pickled :class:`~repro.sim.stats.Stats` under it here.  A
hit skips the simulation and the workload build entirely, which makes
repeated sweeps — the bench suite, ``repro experiment``, notebook
iteration — near-instant, and makes re-running an interrupted sweep
its resume: only the missing cells simulate.

Layout: ``<root>/<key[:2]>/<key>.pkl`` with atomic writes (tempfile +
``os.replace``), so concurrent sweeps can share one cache directory
safely.

Entries are checksummed on disk (``RPRC1`` magic + sha256 of the
pickle payload): a truncated or bit-rotted entry is detected on read,
*quarantined* to ``<name>.pkl.corrupt`` for post-mortem inspection,
and treated as a plain miss — a multi-hour sweep recomputes the cell
instead of dying mid-grid on an unpickling error.

Escape hatches, all applied in :func:`resolve_cache`:

* ``REPRO_NO_CACHE=1`` (env) disables the store globally,
* ``--no-cache`` on the CLI sets the same variable for the process,
* ``REPRO_SANITIZE=1`` (or ``--sanitize``) bypasses it too: a sanitized
  run must simulate (a replayed result would check nothing) and must
  not write its results for later unsanitized sweeps,
* ``REPRO_CACHE_DIR`` relocates the store (default:
  ``.repro-cache/`` under the current working directory).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.sanitize import sanitize_enabled
from repro.sim.config import SystemConfig
from repro.sim.stats import Stats
from repro.workloads.base import Gap, NonTxOp, TxInstance, Workload

ENV_DISABLE = "REPRO_NO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"
DEFAULT_DIRNAME = ".repro-cache"

# Anything in CacheLike except an explicit ResultCache means "resolve
# it": True -> process default, None/False -> disabled, path -> there.
CacheLike = Union[None, bool, str, Path, "ResultCache"]

# On-disk entry format: magic + hex sha256 of payload + newline + payload.
_MAGIC = b"RPRC1\n"
_DIGEST_LEN = 64  # hex sha256


class CacheCorruption(Exception):
    """A store entry failed its integrity check."""


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set (to anything but 0/empty)."""
    return os.environ.get(ENV_DISABLE, "") in ("", "0")


# ---------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------

_source_digest_memo: Optional[str] = None


def source_digest() -> str:
    """Digest of every ``repro`` source file (memoized per process).

    Folding the sources into the key makes the cache self-invalidating:
    any change to the simulator produces fresh keys, so a stale result
    can never satisfy a run of different code — even without a version
    bump during development.
    """
    global _source_digest_memo
    if _source_digest_memo is None:
        import repro
        pkg = Path(repro.__file__).parent
        h = hashlib.sha256()
        for path in sorted(pkg.rglob("*.py")):
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
        _source_digest_memo = h.hexdigest()
    return _source_digest_memo


def config_fingerprint(config: SystemConfig) -> str:
    """Stable digest over every (nested) config dataclass field."""
    fields = dataclasses.asdict(config)
    canon = repr(sorted(fields.items()))
    return hashlib.sha256(canon.encode()).hexdigest()


def workload_fingerprint(workload: Workload) -> str:
    """Stable digest of a workload's full operational content.

    Covers the name and every program item (ops with address / think /
    pc), so generator ``scale`` and ``seed`` changes — which alter the
    emitted programs — change the fingerprint, while two factories that
    happen to emit identical traces share one.
    """
    h = hashlib.sha256()
    h.update(f"{workload.name}|{workload.num_static_txs}".encode())
    for prog in workload.programs:
        h.update(b"|P")
        for item in prog:
            if isinstance(item, TxInstance):
                h.update(f"T{item.static_id},{item.instance_id}".encode())
                for op in item.ops:
                    h.update(
                        f"{int(op.is_write)},{op.addr},{op.think},{op.pc};"
                        .encode())
            elif isinstance(item, NonTxOp):
                h.update(f"N{int(item.is_write)},{item.addr},"
                         f"{item.think},{item.pc}".encode())
            elif isinstance(item, Gap):
                h.update(f"G{item.cycles}".encode())
            else:  # pragma: no cover - validate_program rejects these
                raise TypeError(f"unknown program item {item!r}")
    return h.hexdigest()


# ---------------------------------------------------------------------
# checksummed pickle I/O
# ---------------------------------------------------------------------

def write_checked_pickle(path: Path, obj: object) -> None:
    """Atomically write ``obj`` as a checksummed pickle entry."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_MAGIC)
            f.write(digest)
            f.write(b"\n")
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_checked_pickle(path: Path) -> object:
    """Read a checksummed entry; raises :class:`CacheCorruption` on any
    integrity failure (bad magic, truncation, checksum mismatch) and
    lets ``FileNotFoundError`` propagate for plain misses."""
    data = path.read_bytes()
    header_len = len(_MAGIC) + _DIGEST_LEN + 1
    if not data.startswith(_MAGIC) or len(data) < header_len:
        raise CacheCorruption(f"{path}: missing or malformed header")
    digest = data[len(_MAGIC):len(_MAGIC) + _DIGEST_LEN]
    if data[header_len - 1:header_len] != b"\n":
        raise CacheCorruption(f"{path}: malformed header terminator")
    payload = data[header_len:]
    actual = hashlib.sha256(payload).hexdigest().encode("ascii")
    if actual != digest:
        raise CacheCorruption(f"{path}: checksum mismatch "
                              f"(truncated or bit-rotted entry)")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        # checksum-valid but unpicklable: written by incompatible code
        raise CacheCorruption(f"{path}: {exc!r}") from exc


def quarantine(path: Path) -> Optional[Path]:
    """Move a corrupt entry aside as ``<name>.corrupt`` (for
    post-mortem inspection) so it can never satisfy another read;
    returns the quarantine path, or None if the move failed (the entry
    is unlinked instead)."""
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
        return target
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
        return None


# ---------------------------------------------------------------------
# the cache proper
# ---------------------------------------------------------------------

class ResultCache:
    """Filesystem-backed store of pickled :class:`Stats` by key."""

    def __init__(self, root: Union[None, str, Path] = None):
        if root is None:
            root = os.environ.get(ENV_DIR) or DEFAULT_DIRNAME
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Stats]:
        """The cached Stats for ``key``, or None.  Truncated/corrupt
        entries are quarantined to ``*.corrupt`` and count as misses —
        never an exception mid-sweep."""
        path = self._path(key)
        try:
            stats = read_checked_pickle(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except CacheCorruption:
            quarantine(path)
            self.quarantined += 1
            self.misses += 1
            return None
        if not isinstance(stats, Stats):
            # integrity-valid but not ours (foreign writer?): move aside
            quarantine(path)
            self.quarantined += 1
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def put(self, key: str, stats: Stats) -> None:
        """Atomically store ``stats`` under ``key`` (checksummed)."""
        path = self._path(key)
        tracer, stats.tracer = stats.tracer, None  # never pickle tracers
        try:
            write_checked_pickle(path, stats)
        finally:
            stats.tracer = tracer
        self.stores += 1

    def clear(self) -> int:
        """Remove every cached entry; returns the number removed."""
        n = 0
        if self.root.is_dir():
            for p in self.root.rglob("*.pkl"):
                try:
                    p.unlink()
                    n += 1
                except OSError:
                    pass
        return n

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.rglob("*.pkl"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores}, "
                f"quarantined={self.quarantined})")


def default_cache() -> Optional[ResultCache]:
    """The process-default store, or None when disabled by env."""
    return resolve_cache(True)


def resolve_cache(cache: CacheLike) -> Optional[ResultCache]:
    """Normalize the ``cache=`` argument accepted across the stack.

    ``None``/``False`` -> no store; ``True`` -> the process default
    (``REPRO_CACHE_DIR`` or ``.repro-cache/``); a path -> a store rooted
    there; a :class:`ResultCache` -> itself.  Every form resolves to
    None while ``REPRO_NO_CACHE`` or the protocol sanitizer is set:
    this is the one place that policy lives.
    """
    if cache is None or cache is False:
        return None
    if not cache_enabled() or sanitize_enabled():
        return None
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(None if cache is True else cache)

"""Content-addressed on-disk cache of per-cell results.

Cells are keyed by a stable SHA-256 hash over the *complete*
:class:`~repro.core.experiment.ExperimentConfig` plus a cache schema
version: two configs that would simulate identically share a key, and
any config field that affects the simulation changes it.  Entries are
written atomically (tmp file + ``os.replace``) so concurrent campaign
workers and interrupted runs can never leave a half-written cell
behind.

Invalidation rules: bump :data:`CACHE_VERSION` whenever the simulator's
numeric behavior changes (the package version is also part of the key),
or simply delete the cache directory — every entry is derivable by
re-running its cell.
"""

import gzip
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path

#: Suffixes that mark real, completed entries.  Everything else under a
#: store root — ``mkstemp`` temporaries from a crashed writer, lease
#: files from the serving layer — is bookkeeping, not payload, and must
#: never be counted by ``stats()`` or raced mid-write by ``prune_lru``.
ENTRY_SUFFIXES = (".pkl.gz", ".json")

#: Orphaned ``.tmp`` files younger than this are presumed to belong to
#: a live writer and are left alone by :func:`sweep_orphans`.
DEFAULT_ORPHAN_AGE_S = 3600.0


def scan_entries(root, suffixes=ENTRY_SUFFIXES):
    """All real entry files under *root* as ``(path, size, mtime)``.

    Only files matching *suffixes* count: temp files, leases, and any
    other stray bookkeeping are invisible to size accounting and LRU
    pruning.  Entries that vanish mid-scan (a concurrent prune or
    clear) are skipped rather than raised.  The walk is recursive so
    sharded layouts (``shard-NN/ab/<hash>.json``) scan the same way as
    flat ones (``ab/<hash>.json``).
    """
    root = Path(root)
    if not root.exists():
        return []
    out = []
    for suffix in suffixes:
        for path in root.rglob(f"*{suffix}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            if path.is_file() and not path.name.endswith(".tmp"):
                out.append((path, stat.st_size, stat.st_mtime))
    return out


def sweep_orphans(root, max_age_s=DEFAULT_ORPHAN_AGE_S,
                  patterns=("*.tmp",)):
    """Delete orphaned scratch files older than *max_age_s*.

    A writer that crashes between ``mkstemp`` and ``os.replace`` leaves
    a ``.tmp`` file behind forever — it is never an entry, so no cache
    operation will ever remove it.  The sweep is age-gated: files
    younger than *max_age_s* may belong to a writer that is mid-write
    right now and are left alone.  Returns ``(n_removed,
    bytes_removed)``.
    """
    root = Path(root)
    if not root.exists():
        return 0, 0
    cutoff = time.time() - max_age_s
    n_removed = 0
    bytes_removed = 0
    for pattern in patterns:
        for path in root.rglob(pattern):
            try:
                stat = path.stat()
            except OSError:
                continue
            if not path.is_file() or stat.st_mtime > cutoff:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            n_removed += 1
            bytes_removed += stat.st_size
    return n_removed, bytes_removed


def prune_lru(root, max_bytes, suffixes=ENTRY_SUFFIXES):
    """Delete least-recently-used entries until *root* fits *max_bytes*.

    Recency is mtime: readers are expected to ``os.utime`` entries they
    serve (both :class:`ResultCache` and the serve-layer result store
    do), so "least recently used" really means least recently *read or
    written*, not just oldest.  Returns ``(n_removed, bytes_removed)``.
    """
    if max_bytes < 0:
        raise ValueError("max_bytes cannot be negative")
    from repro.provenance import remove_envelope

    entries = scan_entries(root, suffixes=suffixes)
    total = sum(size for _, size, _ in entries)
    n_removed = 0
    bytes_removed = 0
    # Oldest first; stop as soon as the directory fits.
    for path, size, _ in sorted(entries, key=lambda e: e[2]):
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        remove_envelope(path)  # the sidecar goes with its entry
        total -= size
        n_removed += 1
        bytes_removed += size
    return n_removed, bytes_removed

#: Bump when cached payloads become incompatible with current code.
CACHE_VERSION = 2

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir():
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "campaign"


def config_key(config):
    """Stable content hash of an :class:`ExperimentConfig`.

    The key covers every config field (sorted, canonical JSON) plus the
    package version and cache schema version, so simulator upgrades
    never resurface stale cells.  Canonicalization is shared with the
    scenario layer (:func:`repro.spec.canonical_experiment_dict`):
    fields introduced after the v1 schema are omitted while they hold
    their defaults, so configs predating them keep their historical
    keys, and a scenario spec's hash and its cells' cache keys derive
    from the same identity.

    Keys are load-bearing (provenance envelopes record them), so the
    serialization is strict: a config value outside the canonical JSON
    types raises a clear error instead of being silently type-erased
    through ``str()`` — two distinct objects must never share a key
    because their string forms happened to collide.
    """
    from repro import __version__
    from repro.spec import canonical_experiment_dict, strict_canonical_json

    payload = {
        "config": canonical_experiment_dict(config),
        "repro_version": __version__,
        "cache_version": CACHE_VERSION,
    }
    canonical = strict_canonical_json(payload, what="experiment config")
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed map from experiment configs to cell payloads."""

    #: Exception classes that mean "the file itself is damaged", as
    #: opposed to "the pickle is fine but was written by code whose
    #: classes no longer unpickle here" (renamed/moved attributes raise
    #: ``AttributeError``/``ModuleNotFoundError``, schema growth can
    #: raise ``TypeError``/``KeyError``...).  Both evict and count as a
    #: miss; only the latter counts in :attr:`stale_evictions`.
    _CORRUPTION_ERRORS = (OSError, EOFError, pickle.UnpicklingError)

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: Entries evicted because unpickling raised a code-mismatch
        #: error (stale payload from an older code version), not plain
        #: file corruption.
        self.stale_evictions = 0

    def path_for(self, config):
        key = config_key(config)
        return self.root / key[:2] / f"{key}.pkl.gz"

    def get(self, config):
        """Cached payload for *config*, or ``None``.

        Unreadable entries count as misses and are removed so the
        campaign re-runs the cell instead of failing — whether the file
        is corrupt (truncated gzip, bad pickle stream) or merely stale
        (written by an older code version whose classes no longer
        unpickle: ``AttributeError``/``ModuleNotFoundError`` and
        friends).  A thousand-cell campaign must never crash on one
        bad cache file.
        """
        path = self.path_for(config)
        try:
            with gzip.open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as exc:  # noqa: BLE001 - anything unpickling raises
            self.misses += 1
            if not isinstance(exc, self._CORRUPTION_ERRORS):
                self.stale_evictions += 1
            try:
                path.unlink()
            except OSError:
                pass
            from repro.provenance import remove_envelope

            remove_envelope(path)
            return None
        self.hits += 1
        try:
            os.utime(path)  # mark recently-used for LRU pruning
        except OSError:
            pass
        return payload

    def put(self, config, payload):
        """Store *payload* for *config* atomically, with a provenance
        envelope beside it recording which code produced the bytes
        (package version, cache schema, seed derivation, code digest —
        see :mod:`repro.provenance`)."""
        from repro.provenance import build_envelope, write_envelope

        path = self.path_for(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as raw:
                with gzip.open(raw, "wb") as handle:
                    pickle.dump(payload, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        write_envelope(path, build_envelope("cell", path.name.split(".")[0]))
        return path

    def __contains__(self, config):
        return self.path_for(config).exists()

    def __len__(self):
        # Same recursive, suffix-based scan as stats()/total_bytes()/
        # prune(): counts must agree no matter how entries are nested.
        return len(scan_entries(self.root, (".pkl.gz",)))

    @property
    def hit_rate(self):
        """Fraction of lookups served from disk this session."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def total_bytes(self):
        """Bytes on disk across every entry under this root."""
        return sum(
            size for _, size, _ in scan_entries(self.root, (".pkl.gz",))
        )

    def stats(self):
        """On-disk shape of the cache: entry count, bytes, age span."""
        entries = scan_entries(self.root, (".pkl.gz",))
        mtimes = [mtime for _, _, mtime in entries]
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(size for _, size, _ in entries),
            "oldest_mtime": min(mtimes) if mtimes else None,
            "newest_mtime": max(mtimes) if mtimes else None,
        }

    def prune(self, max_bytes, orphan_age_s=DEFAULT_ORPHAN_AGE_S):
        """Evict least-recently-used entries until the cache fits
        *max_bytes* on disk; returns ``(n_removed, bytes_removed)``.

        Also sweeps aged-out orphan ``.tmp`` files from crashed
        writers (they are not entries, so nothing else ever deletes
        them) and ``.prov`` envelope sidecars whose entry is gone.  A
        long-running service (``repro serve``) calls this
        periodically; the CLI exposes it as ``repro cache prune``.
        """
        from repro.provenance import sweep_orphan_envelopes

        sweep_orphans(self.root, max_age_s=orphan_age_s)
        removed = prune_lru(self.root, max_bytes, (".pkl.gz",))
        sweep_orphan_envelopes(self.root, max_age_s=orphan_age_s)
        return removed

    def prune_stale(self):
        """Evict entries written by a different code version (stale or
        missing provenance envelope); ``repro cache prune --stale``.
        Returns ``(n_removed, bytes_removed)``."""
        from repro.provenance import prune_stale

        return prune_stale(self.root, (".pkl.gz",))

    def lineage(self):
        """Entries grouped by producing code digest / engine version
        (see :func:`repro.provenance.lineage`)."""
        from repro.provenance import lineage

        return lineage(self.root, (".pkl.gz",))

    def clear(self):
        """Delete every cached cell (and its envelope) under this
        root — the same recursive scan as ``len()``/``stats()``, so a
        nested layout cannot strand entries."""
        from repro.provenance import remove_envelope

        removed = 0
        for entry, _, _ in scan_entries(self.root, (".pkl.gz",)):
            try:
                entry.unlink()
            except OSError:
                continue
            remove_envelope(entry)
            removed += 1
        return removed

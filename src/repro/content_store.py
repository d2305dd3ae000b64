"""The one on-disk format behind every content-addressed store.

Campaign cells (:class:`~repro.campaign.cache.ResultCache`), simulation
artifacts (:class:`~repro.campaign.artifacts.ArtifactStore`) and served
results (:class:`~repro.serve.store.ResultStore`) are thin subclasses of
:class:`ContentStore`, each adding only its key function and codec.

A key is a SHA-256 hex digest; its entry lives at
``<root>[/shard-NNN]/<key[:2]>/<key><suffix>``.  Anything that is not a
key never becomes a path: reads answer a miss and writes raise
``ValueError``.  :func:`atomic_write` is the only write path — entries,
``.prov`` envelopes and ``.spans`` trace spools all go through it, so a
crash never leaves a torn file under a real name.
"""

import gzip
import os
import pickle
import re
import tempfile
import time
import zlib
from pathlib import Path

from repro import provenance

#: Suffixes that mark real, completed entries.  Everything else under a
#: store root — temporaries from a crashed writer, lease files, trace
#: spools, envelopes — is bookkeeping, not payload, and must never be
#: counted by ``stats()`` or raced mid-write by :func:`prune_lru`.
ENTRY_SUFFIXES = (".pkl.gz", ".json")

#: Bookkeeping younger than this is presumed to belong to a live writer
#: (or a live job) and is left alone by :func:`sweep_orphans`.
DEFAULT_ORPHAN_AGE_S = 3600.0

#: What :func:`sweep_orphans` removes once aged: writer temporaries and
#: lease files of crashed holders always, trace spools and provenance
#: envelopes only when no entry of theirs is left beside them.
ORPHAN_PATTERNS = ("*.tmp", "*.lease", "*.spans", "*.prov")

#: Sidecars of an entry: swept only once the entry itself is gone.
_SIDECAR_SUFFIXES = (".spans", ".prov")

_KEY = re.compile(r"[0-9a-f]{64}")


def is_key(key):
    """Whether *key* is a store key: 64 lowercase hex characters."""
    return isinstance(key, str) and _KEY.fullmatch(key) is not None


def default_root(env_var, subdir):
    """A store root: ``$<env_var>`` or ``~/.cache/repro/<subdir>``."""
    env = os.environ.get(env_var)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / subdir


def atomic_write(path, data):
    """Write *data* (bytes) to *path* so readers see all of it or none.

    The bytes land in a temp file in the target directory, which is
    then renamed over *path*; a failed write removes its temp file.
    Returns *path*.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def scan_entries(root, suffixes=ENTRY_SUFFIXES):
    """All real entry files under *root* as ``(path, size, mtime)``.

    Only files matching *suffixes* count: temp files, leases, and any
    other stray bookkeeping are invisible to size accounting and LRU
    pruning.  Entries that vanish mid-scan (a concurrent prune or
    clear) are skipped rather than raised.  The walk is recursive so
    sharded layouts (``shard-NNN/ab/<hash>.json``) scan the same way as
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
                  patterns=ORPHAN_PATTERNS):
    """Delete orphaned bookkeeping files older than *max_age_s*.

    A writer that crashes mid-write leaves a ``.tmp`` file behind, a
    holder that crashes leaves its ``.lease``, and an entry that is
    evicted (or never written, because its job failed) can strand its
    ``.spans`` spool or ``.prov`` envelope.  None of them is an entry,
    so no other store operation ever removes them.  The sweep is
    age-gated: younger files may belong to a writer, holder or job that
    is live right now and are left alone.  Returns ``(n_removed,
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
                if not path.is_file() or stat.st_mtime > cutoff:
                    continue
                key = path.name.split(".")[0]
                if path.suffix in _SIDECAR_SUFFIXES and any(
                    path.with_name(key + suffix).exists()
                    for suffix in ENTRY_SUFFIXES
                ):
                    continue
                path.unlink()
            except OSError:
                continue
            n_removed += 1
            bytes_removed += stat.st_size
    return n_removed, bytes_removed


def prune_lru(root, max_bytes, suffixes=ENTRY_SUFFIXES):
    """Delete least-recently-used entries until *root* fits *max_bytes*.

    Recency is mtime: store reads touch the entries they serve, so
    "least recently used" really means least recently *read or
    written*, not just oldest.  Envelopes go with their entries.
    Returns ``(n_removed, bytes_removed)``.
    """
    if max_bytes < 0:
        raise ValueError("max_bytes cannot be negative")
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
        provenance.remove_envelope(path)
        total -= size
        n_removed += 1
        bytes_removed += size
    return n_removed, bytes_removed


class ContentStore:
    """Directory-backed map from content keys to entries.

    The codec — :meth:`_encode` to the entry's bytes, :meth:`_decode`
    back, raising on a damaged or foreign entry — is a gzip-compressed
    pickle unless a subclass overrides it.  Construction does no I/O,
    so a store per job is cheap.
    """

    #: Decode errors that mean "the file itself is damaged", as opposed
    #: to "the pickle is fine but was written by code whose classes no
    #: longer load here" (renamed attributes raise ``AttributeError``/
    #: ``ModuleNotFoundError``, schema growth ``TypeError``/
    #: ``KeyError``...).  Both evict and count as a miss; only the
    #: latter counts in :attr:`stale_evictions`.
    _CORRUPTION_ERRORS = (OSError, EOFError, pickle.UnpicklingError,
                          zlib.error)

    def __init__(self, root, suffix, shards=1):
        if int(shards) < 1:
            raise ValueError("shards must be >= 1")
        self.root = Path(root)
        self.suffix = suffix
        self.shards = int(shards)
        self.hits = 0
        self.misses = 0
        #: Entries evicted because decoding raised a code-mismatch
        #: error (a payload from an older code version), not plain file
        #: corruption.
        self.stale_evictions = 0

    # -- codec ------------------------------------------------------------

    def _encode(self, payload):
        return gzip.compress(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def _decode(self, data, key):
        # Only bytes this package wrote: unpickling runs named code.
        return pickle.loads(gzip.decompress(data))

    # -- layout -----------------------------------------------------------

    def shard_for(self, key):
        """The shard index for *key*: a consistent hash over the key's
        leading hex digits, identical on every instance."""
        return int(key[:8], 16) % self.shards

    def path_for_key(self, key):
        """Where *key*'s entry lives; ``ValueError`` for a non-key."""
        if not is_key(key):
            raise ValueError(f"not a store key: {key!r}")
        base = self.root
        if self.shards > 1:
            base = base / f"shard-{self.shard_for(key):03d}"
        return base / key[:2] / f"{key}{self.suffix}"

    # -- entries ----------------------------------------------------------

    def get_key(self, key):
        """The decoded entry under *key*, or ``None``.

        Unreadable entries count as misses and are evicted (with their
        envelope), so callers recompute instead of failing — whether
        the file is damaged or merely stale.
        """
        if not is_key(key):
            self.misses += 1
            return None
        path = self.path_for_key(key)
        try:
            payload = self._decode(path.read_bytes(), key)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as exc:  # noqa: BLE001 - anything decode raises
            self.misses += 1
            if not isinstance(exc, self._CORRUPTION_ERRORS):
                self.stale_evictions += 1
            try:
                path.unlink()
            except OSError:
                pass
            provenance.remove_envelope(path)
            return None
        self.hits += 1
        try:
            os.utime(path)  # mark recently-used for LRU pruning
        except OSError:
            pass
        return payload

    def put_key(self, key, payload, envelope=None):
        """Store *payload* under *key* atomically; returns the path.

        With *envelope* (from :func:`repro.provenance.build_envelope`)
        a provenance sidecar is written beside the entry by its own
        atomic write, never touching the entry's bytes.
        """
        path = self.path_for_key(key)
        atomic_write(path, self._encode(payload))
        if envelope is not None:
            provenance.write_envelope(path, envelope)
        return path

    def __contains__(self, key):
        return is_key(key) and self.path_for_key(key).exists()

    def _entries(self):
        return scan_entries(self.root, (self.suffix,))

    def __len__(self):
        return len(self._entries())

    @property
    def hit_rate(self):
        """Fraction of lookups served from disk this session."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def total_bytes(self):
        """Bytes on disk across every entry under this root."""
        return sum(size for _, size, _ in self._entries())

    def stats(self):
        """On-disk shape of the store: entry count, bytes, age span."""
        entries = self._entries()
        mtimes = [mtime for _, _, mtime in entries]
        return {
            "root": str(self.root),
            "shards": self.shards,
            "entries": len(entries),
            "total_bytes": sum(size for _, size, _ in entries),
            "oldest_mtime": min(mtimes) if mtimes else None,
            "newest_mtime": max(mtimes) if mtimes else None,
        }

    def prune(self, max_bytes, orphan_age_s=DEFAULT_ORPHAN_AGE_S):
        """Evict least-recently-used entries until the store fits
        *max_bytes* on disk; returns ``(n_removed, bytes_removed)``.

        Then sweeps aged orphans (:func:`sweep_orphans`), including
        the spools and envelopes this pass stranded.  A long-running
        service calls this periodically; the CLI exposes it as ``repro
        cache prune``.
        """
        removed = prune_lru(self.root, max_bytes, (self.suffix,))
        sweep_orphans(self.root, max_age_s=orphan_age_s)
        return removed

    def prune_stale(self):
        """Evict entries written by a different code version (stale or
        missing provenance envelope); ``repro cache prune --stale``.
        Returns ``(n_removed, bytes_removed)``."""
        return provenance.prune_stale(self.root, (self.suffix,))

    def lineage(self):
        """Entries grouped by producing code digest / engine version
        (see :func:`repro.provenance.lineage`)."""
        return provenance.lineage(self.root, (self.suffix,))

    def clear(self):
        """Delete every entry (and its envelope) under this root — the
        same recursive scan as ``len()``/``stats()``, so a nested
        layout cannot strand entries.  Returns the number removed."""
        removed = 0
        for entry, _, _ in self._entries():
            try:
                entry.unlink()
            except OSError:
                continue
            provenance.remove_envelope(entry)
            removed += 1
        return removed


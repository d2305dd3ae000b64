"""Provenance envelopes and record/replay verification for stored results.

Every byte this system stores — a campaign cell in the
:class:`~repro.campaign.cache.ResultCache`, a result document in the
:class:`~repro.serve.store.ResultStore` — is a pure function of a spec.
Nothing on disk used to record *which code* produced it, so entries
silently went stale across engine changes and there was no way to prove
a stored payload is still reproducible.  This module grounds them:

* **Envelopes** — a small JSON sidecar written atomically beside each
  entry (``<entry>.prov``) recording the producing code's identity:
  package version, cache schema version, seed-derivation version, and a
  SHA-256 **code digest** over the ``repro`` source tree (computed once
  per process).  Read paths tolerate envelope-less legacy entries —
  they load and serve byte-identically, they just have unknown lineage.
* **Replay** — :func:`replay_result` re-executes a stored result's spec
  in-process and byte-diffs the re-encoded payload against the stored
  artifact: ``identical`` proves reproducibility, ``drifted`` comes
  with a field-level diff, ``unreplayable`` names why (no embedded
  spec, spec no longer valid, cells failed).  The CLI front end is
  ``repro replay <result-hash|spec-file> [--all]``.
* **Lineage** — :func:`lineage` groups a store's entries by producing
  code digest / engine version, so "which cached results predate PR 3?"
  is one query (``repro cache lineage [--stale]``), and
  :func:`prune_stale` evicts entries whose envelope does not match the
  running code (``repro cache prune --stale``).

Envelopes never touch payload bytes: the entry file is unchanged, the
sidecar is a separate file, and two processes racing on the same key
write identical envelopes apart from the wall-clock ``written_unix``
stamp (last atomic rename wins).

Only stdlib imports at module level; everything from :mod:`repro` is
imported lazily so the cache/store modules can depend on this one
without import cycles.
"""

import hashlib
import json
import time
from pathlib import Path

#: Envelope schema tag.
PROVENANCE_SCHEMA = "repro-provenance-v1"

#: Sidecar suffix appended to the full entry file name
#: (``<key>.json.prov``, ``<key>.pkl.gz.prov``) so an envelope never
#: collides with entry globs, lease files, or trace spools.
ENVELOPE_SUFFIX = ".prov"

#: Process-wide memo for :func:`code_digest` (the source tree cannot
#: change under a running process in any way that matters here).
_CODE_DIGEST = None


def code_digest():
    """SHA-256 over the ``repro`` source tree, hex; cached per process.

    The digest covers every ``*.py`` file under the installed package
    directory, keyed by its package-relative path, so any code change —
    engine, samplers, spec canonicalization — yields a new digest while
    byte-copies of the tree agree across machines.
    """
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _CODE_DIGEST = digest.hexdigest()
    return _CODE_DIGEST


def current_stamp():
    """The identity of the running code, as recorded in envelopes."""
    from repro import __version__
    from repro.campaign.cache import CACHE_VERSION
    from repro.spec import SEED_DERIVATION_VERSION

    return {
        "code_digest": code_digest(),
        "repro_version": __version__,
        "cache_version": CACHE_VERSION,
        "seed_derivation": SEED_DERIVATION_VERSION,
    }


def build_envelope(kind, key, **extra):
    """A provenance envelope for one entry.

    *kind* is ``"cell"`` (campaign cell cache) or ``"result"``
    (serve-layer result store); *key* is the entry's content hash.
    Extra fields (``spec_hash``, ``spec_name``, ...) ride along.
    """
    envelope = {
        "schema": PROVENANCE_SCHEMA,
        "kind": kind,
        "key": key,
        "written_unix": time.time(),
    }
    envelope.update(current_stamp())
    envelope.update(extra)
    return envelope


def envelope_path(entry_path):
    """The sidecar path for *entry_path* (``<name>.prov`` beside it)."""
    entry_path = Path(entry_path)
    return entry_path.with_name(entry_path.name + ENVELOPE_SUFFIX)


def write_envelope(entry_path, envelope):
    """Atomically write *envelope* beside *entry_path*; returns the
    sidecar path (the store core's atomic write — a crash never leaves
    a torn envelope)."""
    from repro.content_store import atomic_write

    data = json.dumps(envelope, sort_keys=True).encode()
    return atomic_write(envelope_path(entry_path), data)


def read_envelope(entry_path):
    """The envelope beside *entry_path*, or ``None``.

    Tolerant by design: a missing sidecar (legacy entry), unreadable
    file, or malformed JSON all read as ``None`` — provenance is
    metadata, and its absence must never make an entry unreadable.
    """
    try:
        data = envelope_path(entry_path).read_bytes()
    except OSError:
        return None
    try:
        envelope = json.loads(data)
    except (ValueError, UnicodeDecodeError):
        return None
    return envelope if isinstance(envelope, dict) else None


def remove_envelope(entry_path):
    """Best-effort removal of the sidecar beside *entry_path*."""
    try:
        envelope_path(entry_path).unlink()
    except OSError:
        pass


def is_stale(envelope):
    """Whether *envelope* was written by different code than this
    process runs.  ``None`` (a legacy, envelope-less entry) counts as
    stale: its provenance cannot be proven."""
    if envelope is None:
        return True
    stamp = current_stamp()
    return (
        envelope.get("code_digest") != stamp["code_digest"]
        or envelope.get("cache_version") != stamp["cache_version"]
    )


# -- lineage queries ---------------------------------------------------

def lineage(root, suffixes=None):
    """Entries under *root* grouped by producing code identity.

    Returns a list of group dicts sorted newest-written first::

        {"code_digest": ..., "repro_version": ..., "cache_version": ...,
         "seed_derivation": ..., "entries": N, "total_bytes": B,
         "stale": bool, "newest_unix": ..., "keys": [...sample...]}

    Envelope-less legacy entries group under ``code_digest=None`` and
    always count as stale (unknown provenance).
    """
    from repro.content_store import ENTRY_SUFFIXES, scan_entries

    groups = {}
    for path, size, mtime in scan_entries(
        root, suffixes if suffixes is not None else ENTRY_SUFFIXES
    ):
        envelope = read_envelope(path)
        ident = (
            (envelope or {}).get("code_digest"),
            (envelope or {}).get("repro_version"),
            (envelope or {}).get("cache_version"),
            (envelope or {}).get("seed_derivation"),
        )
        group = groups.get(ident)
        if group is None:
            group = groups[ident] = {
                "code_digest": ident[0],
                "repro_version": ident[1],
                "cache_version": ident[2],
                "seed_derivation": ident[3],
                "stale": is_stale(envelope),
                "entries": 0,
                "total_bytes": 0,
                "newest_unix": None,
                "keys": [],
            }
        group["entries"] += 1
        group["total_bytes"] += size
        written = (envelope or {}).get("written_unix", mtime)
        if group["newest_unix"] is None or written > group["newest_unix"]:
            group["newest_unix"] = written
        if len(group["keys"]) < 3:
            group["keys"].append(path.name.split(".")[0])
    return sorted(
        groups.values(),
        key=lambda g: g["newest_unix"] or 0.0, reverse=True,
    )


def prune_stale(root, suffixes=None):
    """Evict every entry whose envelope does not match the running
    code (missing envelopes included — unknown provenance is stale).
    Sidecars go with their entries.  Returns ``(n_removed,
    bytes_removed)``."""
    from repro.content_store import ENTRY_SUFFIXES, scan_entries

    n_removed = 0
    bytes_removed = 0
    for path, size, _ in scan_entries(
        root, suffixes if suffixes is not None else ENTRY_SUFFIXES
    ):
        if not is_stale(read_envelope(path)):
            continue
        try:
            path.unlink()
        except OSError:
            continue
        remove_envelope(path)
        n_removed += 1
        bytes_removed += size
    return n_removed, bytes_removed


# -- record/replay verification ---------------------------------------

#: Replay verdicts.
IDENTICAL = "identical"
DRIFTED = "drifted"
UNREPLAYABLE = "unreplayable"


def diff_payloads(stored, replayed, limit=16, _prefix=""):
    """Field-level diff between two decoded payloads.

    Returns a list of ``"path: stored X != replayed Y"`` strings,
    depth-first, capped at *limit* (the cap note is appended as the
    final element when hit).
    """
    diffs = []
    _diff_into(stored, replayed, _prefix, diffs, limit)
    if len(diffs) > limit:
        extra = len(diffs) - limit
        diffs = diffs[:limit]
        diffs.append(f"... and {extra} more differing field(s)")
    return diffs


def _diff_into(stored, replayed, prefix, out, limit):
    if len(out) > limit:
        return
    if isinstance(stored, dict) and isinstance(replayed, dict):
        for key in sorted(set(stored) | set(replayed)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in stored:
                out.append(f"{path}: only in replay")
            elif key not in replayed:
                out.append(f"{path}: only in stored")
            else:
                _diff_into(stored[key], replayed[key], path, out, limit)
        return
    if isinstance(stored, list) and isinstance(replayed, list):
        if len(stored) != len(replayed):
            out.append(
                f"{prefix}: length {len(stored)} != {len(replayed)}"
            )
            return
        for index, (a, b) in enumerate(zip(stored, replayed)):
            _diff_into(a, b, f"{prefix}[{index}]", out, limit)
        return
    if stored != replayed:
        out.append(f"{prefix}: stored {stored!r} != replayed {replayed!r}")


class ReplayReport:
    """Outcome of replaying one stored result."""

    __slots__ = ("key", "status", "reason", "diffs", "wall_s")

    def __init__(self, key, status, reason="", diffs=(), wall_s=0.0):
        self.key = key
        self.status = status
        self.reason = reason
        self.diffs = list(diffs)
        self.wall_s = wall_s

    @property
    def ok(self):
        return self.status == IDENTICAL

    def describe(self):
        line = f"{self.key[:12]}  {self.status}"
        if self.status == DRIFTED:
            line += f" ({len(self.diffs)} differing field(s))"
        elif self.reason:
            line += f": {self.reason}"
        if self.wall_s:
            line += f"  [{self.wall_s:.2f} s]"
        return line


def replay_result(stored_bytes, key="", workers=1):
    """Re-execute a stored result document and byte-diff the replay.

    *stored_bytes* are the exact bytes the store serves.  The embedded
    spec is rebuilt, the campaign re-runs in-process (no cell cache —
    a replay that answered from cache would prove nothing), the payload
    is re-encoded canonically, and the two byte strings are compared.
    Returns a :class:`ReplayReport` with status ``identical``,
    ``drifted`` (field-level diff attached), or ``unreplayable``
    (missing/invalid spec, failed cells).
    """
    from repro.campaign.runner import CampaignRunner
    from repro.errors import ReproError
    from repro.serve.pool import build_result_payload, encode_result
    from repro.spec import ScenarioSpec

    start = time.perf_counter()

    def report(status, reason="", diffs=()):
        return ReplayReport(key, status, reason=reason, diffs=diffs,
                            wall_s=time.perf_counter() - start)

    try:
        stored = json.loads(stored_bytes)
    except (ValueError, UnicodeDecodeError):
        return report(UNREPLAYABLE, "stored payload is not JSON")
    if not isinstance(stored, dict):
        return report(UNREPLAYABLE, "stored payload is not an object")
    spec_dict = stored.get("spec")
    if not spec_dict:
        return report(UNREPLAYABLE, "missing spec (no 'spec' field "
                                    "in the stored payload)")
    try:
        spec = ScenarioSpec.from_dict(spec_dict, source="stored result")
        spec.validate()
    except ReproError as exc:
        return report(UNREPLAYABLE, f"embedded spec no longer valid: "
                                    f"{exc}")
    try:
        result = CampaignRunner(workers=workers).run(spec.cells())
    except ReproError as exc:
        return report(UNREPLAYABLE, f"replay run failed: {exc}")
    failed = result.failed_cells()
    if failed:
        first = failed[0]
        return report(
            UNREPLAYABLE,
            f"{len(failed)}/{len(result)} cells failed on replay; "
            f"first: [{first.error_type}] {first.error}",
        )
    replayed_bytes = encode_result(build_result_payload(spec, result))
    if replayed_bytes == bytes(stored_bytes):
        return report(IDENTICAL)
    diffs = diff_payloads(stored, json.loads(replayed_bytes))
    if not diffs:
        # Same decoded document, different bytes: an encoding change
        # (key order, float repr) — still drift for a byte-addressed
        # store.
        diffs = ["(byte-level encoding drift; decoded fields equal)"]
    return report(DRIFTED, diffs=diffs)


def replay_store_entry(store, key, workers=1):
    """Replay one :class:`~repro.serve.store.ResultStore` entry."""
    data = store.get_bytes(key)
    if data is None:
        return ReplayReport(key, UNREPLAYABLE,
                            reason="no stored result under this key")
    return replay_result(data, key=key, workers=workers)


def store_keys(store):
    """Every result key under *store*, sorted (scan is recursive, so
    sharded layouts enumerate the same way as flat ones)."""
    from repro.content_store import scan_entries

    return sorted(
        path.name[:-len(".json")]
        for path, _, _ in scan_entries(store.root, (".json",))
    )


__all__ = [
    "DRIFTED",
    "ENVELOPE_SUFFIX",
    "IDENTICAL",
    "PROVENANCE_SCHEMA",
    "UNREPLAYABLE",
    "ReplayReport",
    "build_envelope",
    "code_digest",
    "current_stamp",
    "diff_payloads",
    "envelope_path",
    "is_stale",
    "lineage",
    "prune_stale",
    "read_envelope",
    "remove_envelope",
    "replay_result",
    "replay_store_entry",
    "store_keys",
    "write_envelope",
]

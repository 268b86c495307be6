"""Content-addressed, sharded disk cache for completed sweep work units.

Each completed work unit (one chunk of trials at one scenario point) is
persisted as a small JSON file under a cache root (by default
``benchmarks/results/cache/``).  The file name is the SHA-256 of the work
unit's canonical description: scenario parameters, root seed, the exact
trial indices, and a code-version tag.  Consequences:

- **memoization**: re-running an identical sweep is pure cache reads;
- **checkpoint/resume**: an interrupted sweep leaves its finished units
  behind, and the rerun recomputes only the missing ones;
- **invalidation by construction**: change any scenario parameter, the
  root seed, or the package version and the key -- hence the file --
  changes, so stale results can never be returned;
- **corruption safety**: a truncated, undecodable or hand-edited file
  fails JSON, key or schema validation and is treated as a miss (and
  removed), never trusted.

Layout
------
Units live in ``shards/{key[:2]}/{key}.json`` under the cache root: 256
two-hex-digit shard directories, so a campaign of a million units never
puts a million entries in one directory (directory-scan cost is what
kills flat content stores at fleet scale, and per-shard subtrees can be
rsynced / mounted / garbage-collected independently).

Entries in the *flat* layout (``{key}.json`` directly under the root)
that shipped before the sharded store are never read: they predate row
changes their keys cannot tell apart, so serving them would be a stale
hit.  A flat entry's unit is recomputed into its shard instead.

Writes are atomic but never forced to disk: each ``put`` stages the
entry in a per-process temp file and moves it into place with
``os.replace``, so a reader never sees a half-written entry and racing
writers never share a temp file.  The cache is a memo, not a record,
so durability buys nothing: a killed process loses none of what it
wrote (the bytes sit in the page cache), and only an OS crash can leave
an empty, torn or garbage entry.  ``get`` reads each of those as a miss
(its embedded-key check stops a garbled file from serving another
unit's rows), and the recompute writes the same bytes again.

Entries are compact canonical JSON, read and written by the C JSON
codec.  Entries written with ``indent=0`` by earlier versions parse to
the same blob and keep serving.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro._version import __version__

#: Bump when the cached row schema or the seed-derivation scheme changes
#: incompatibly; old cache entries then miss instead of lying.
CACHE_SCHEMA_VERSION = 1

#: Name of the shard-tree directory under the cache root.
SHARD_DIR = "shards"

#: Default cache root, relative to the working directory (the repo root
#: in CI and the benches).  Override per call, or process-wide with the
#: ``REPRO_CACHE_DIR`` environment variable.
DEFAULT_CACHE_DIR = pathlib.Path("benchmarks") / "results" / "cache"


def default_cache_dir() -> pathlib.Path:
    """The process-wide default cache root.

    ``$REPRO_CACHE_DIR`` when set, else :data:`DEFAULT_CACHE_DIR`.
    """
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return pathlib.Path(env) if env else DEFAULT_CACHE_DIR


def code_version_tag() -> str:
    """The code-version component of every cache key.

    Ties cached results to the package version *and* the executor's
    schema version, so either kind of upgrade invalidates the cache.
    """
    return f"repro-{__version__}/exec-{CACHE_SCHEMA_VERSION}"


def content_key(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a canonical-JSON rendering of ``payload``.

    Canonical means sorted keys and fixed separators, so semantically
    equal payloads hash identically regardless of construction order.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """A sharded directory of content-addressed work-unit results.

    The cache never judges freshness by timestamps: the key *is* the
    contract.  ``get`` returns ``None`` on any miss, including unreadable
    or schema-violating files (which are deleted so they cannot shadow a
    later write).

    Concurrent writers are safe by construction: an entry's bytes are a
    pure function of its key (canonical JSON, sorted keys), so two
    processes racing ``put`` on the same key both stage identical
    content and the surviving ``os.replace`` winner is byte-identical to
    a serial write (pinned by ``tests/test_exec_cache.py``).
    """

    def __init__(self, root: pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        # entry paths are built as strings: pathlib's three joins took
        # a fifth of every warm probe
        self._shards = os.path.join(self.root, SHARD_DIR)

    def _entry(self, key: str) -> str:
        """:meth:`path_for` as a string."""
        return f"{self._shards}{os.sep}{key[:2]}{os.sep}{key}.json"

    # -- layout -------------------------------------------------------------

    def shard_for(self, key: str) -> pathlib.Path:
        """The shard directory a unit with ``key`` belongs to."""
        return self.root / SHARD_DIR / key[:2]

    def path_for(self, key: str) -> pathlib.Path:
        """Canonical (sharded) location of a unit with ``key``."""
        return pathlib.Path(self._entry(key))

    def entry_paths(self) -> Iterator[pathlib.Path]:
        """Every shard entry file currently on disk, in lexicographic
        (deterministic) order."""
        try:
            yield from sorted((self.root / SHARD_DIR).glob("??/*.json"))
        except OSError:  # pragma: no cover - racing removal
            return

    # -- read ---------------------------------------------------------------

    def get(self, key: str) -> Optional[List[Dict[str, Any]]]:
        """The cached rows for ``key``, or ``None`` on miss/corruption;
        corrupt or torn files are deleted so they cannot shadow a later
        write."""
        path = self._entry(key)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            return None
        try:
            # undecodable bytes raise UnicodeDecodeError, a ValueError:
            # corruption like any other
            blob = json.loads(raw.decode("utf-8"))
            if not isinstance(blob, dict) or blob.get("key") != key:
                raise ValueError("key mismatch")
            rows = blob["rows"]
            if not isinstance(rows, list) or not all(
                isinstance(r, dict) for r in rows
            ):
                raise ValueError("rows schema violation")
        except (ValueError, KeyError, TypeError):
            # corrupted entry: recover by recomputing, never by trusting
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
            return None
        return rows

    def contains(self, key: str) -> bool:
        """Whether a *valid* entry exists for ``key`` (corrupt = no)."""
        return self.get(key) is not None

    # -- write --------------------------------------------------------------

    def put(
        self,
        key: str,
        rows: List[Dict[str, Any]],
        meta: Optional[Mapping[str, Any]] = None,
    ) -> pathlib.Path:
        """Atomically persist ``rows`` under ``key``.

        The entry is staged in a per-process temp file and moved into
        place by ``os.replace``, so a reader sees the old state or the
        complete new entry, never a torn one.  Nothing is forced to disk
        (see the module docstring): an OS crash can lose or tear recent
        entries, and :meth:`get` reads those as misses.  A torn *temp*
        file is never read and the next ``put`` overwrites it.

        Returns the sharded entry path.
        """
        path = self._entry(key)
        blob = {
            "key": key,
            "code_version": code_version_tag(),
            "meta": dict(meta or {}),
            "rows": rows,
        }
        data = json.dumps(blob, sort_keys=True, separators=(",", ":"))
        # per-process temp name: two processes racing the same key must
        # not stage through one file, or the loser's rename pulls the
        # winner's staged bytes out from under it (the final os.replace
        # still serializes them -- and both stage identical content)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            fh = open(tmp, "wb")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fh = open(tmp, "wb")
        with fh:
            fh.write(data.encode())
        os.replace(tmp, path)
        return pathlib.Path(path)

    def __len__(self) -> int:
        """Number of shard entry files currently on disk."""
        return sum(1 for _ in self.entry_paths())

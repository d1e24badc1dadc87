"""Persistent store of tuned blocking configurations.

Entries are keyed by ``(signature key, rank, machine name)`` and carry
the chosen block counts, rank-strip width, the modeled cost and
baseline cost, and how the entry was obtained.  The JSON format is
human-auditable, so a tuning database can be shipped alongside an
application the way BLAS autotuners ship theirs.

Bounded operation
-----------------
A long-running service (:mod:`repro.serve`) cannot let the cache grow
without limit or serve configurations tuned against a machine state that
no longer exists.  :class:`TuningCache` therefore supports two optional
bounds, both off by default so batch/CLI use is unchanged:

``max_entries``
    A size bound with least-recently-*used* eviction: every ``get`` hit
    refreshes an entry's recency, so the working set of a skewed request
    mix stays resident while one-off signatures age out.
``ttl_s``
    A time-to-live: entries older than this (measured from insertion on
    an injectable clock) read as misses and are dropped, forcing a
    re-tune — staleness, like cross-dtype reuse, must fail closed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

from repro.blocking.rank import RankBlocking
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class CacheEntry:
    """One tuned configuration."""

    block_counts: "tuple[int, ...] | None"
    rank_block_cols: "int | None"
    cost: float
    strategy: str
    #: Value itemsize the configuration was tuned for (``None`` on entries
    #: written before the dtype-aware cache; the tuner treats those as
    #: misses rather than serving a float64 tuning to a float32 run).
    itemsize: "int | None" = None
    #: Wall-clock timestamp of insertion (``None`` on legacy entries and
    #: entries never stored through a :class:`TuningCache`); TTL-bounded
    #: caches age entries from this instant.
    created_unix: "float | None" = None
    #: Modeled cost of the unblocked SPLATT baseline, recorded with
    #: :attr:`cost` so a cache hit reports its speedup without re-running
    #: the model (``None`` on entries written before it was recorded; the
    #: tuner re-tunes those).
    baseline_cost: "float | None" = None

    def rank_blocking(self) -> "RankBlocking | None":
        """Materialize the RankBlocking (or None)."""
        if self.rank_block_cols is None:
            return None
        return RankBlocking(block_cols=self.rank_block_cols)

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["block_counts"] is not None:
            d["block_counts"] = list(d["block_counts"])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CacheEntry":
        counts = d.get("block_counts")
        itemsize = d.get("itemsize")
        created = d.get("created_unix")
        baseline = d.get("baseline_cost")
        return cls(
            block_counts=None if counts is None else tuple(int(c) for c in counts),
            rank_block_cols=d.get("rank_block_cols"),
            cost=float(d.get("cost", 0.0)),
            strategy=str(d.get("strategy", "unknown")),
            # Legacy entries (no itemsize recorded) stay None and read as
            # misses for any dtype-checked lookup.
            itemsize=None if itemsize is None else int(itemsize),
            created_unix=None if created is None else float(created),
            baseline_cost=None if baseline is None else float(baseline),
        )


class TuningCache:
    """In-memory tuning store with JSON persistence and optional bounds.

    Unbounded by default (the CLI/batch behaviour since PR 5); pass
    ``max_entries`` and/or ``ttl_s`` for LRU-evicting, TTL-expiring
    operation — the shape :class:`repro.serve.WarmConfigCache` builds
    its admission policy on.  ``clock`` is injectable for tests and
    defaults to :func:`time.time` (the persisted ``created_unix`` field
    is a wall-clock timestamp, so caches survive process restarts with
    their ages intact).
    """

    def __init__(
        self,
        *,
        max_entries: "int | None" = None,
        ttl_s: "float | None" = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigError(f"max_entries must be >= 1, got {max_entries}")
        if ttl_s is not None and ttl_s <= 0:
            raise ConfigError(f"ttl_s must be > 0, got {ttl_s}")
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self._clock = clock
        # Insertion/recency order is the dict order: a `get` hit deletes
        # and re-inserts, so the first key is always the LRU victim.
        self._entries: dict[tuple[str, int, str], CacheEntry] = {}
        #: Entries dropped by the size bound since construction.
        self.n_evicted: int = 0
        #: Entries dropped because their TTL had lapsed at lookup time.
        self.n_expired: int = 0

    @staticmethod
    def _key(signature_key: str, rank: int, machine_name: str):
        return (str(signature_key), int(rank), str(machine_name))

    def _expired(self, entry: CacheEntry) -> bool:
        if self.ttl_s is None or entry.created_unix is None:
            # Un-aged (legacy) entries never expire: the dtype gate in the
            # tuner already treats them as misses where it matters.
            return False
        return self._clock() - entry.created_unix > self.ttl_s

    def get(
        self, signature_key: str, rank: int, machine_name: str
    ) -> "CacheEntry | None":
        """Look up a tuned configuration (None on miss or TTL expiry).

        A hit refreshes the entry's LRU recency.
        """
        key = self._key(signature_key, rank, machine_name)
        entry = self._entries.get(key)
        if entry is None:
            return None
        if self._expired(entry):
            del self._entries[key]
            self.n_expired += 1
            return None
        # Touch: move to the most-recently-used end.
        del self._entries[key]
        self._entries[key] = entry
        return entry

    def put(
        self,
        signature_key: str,
        rank: int,
        machine_name: str,
        entry: CacheEntry,
    ) -> None:
        """Store (replacing any existing entry for the key), stamping the
        insertion time on TTL-bounded caches and evicting the LRU entry
        past ``max_entries``."""
        if self.ttl_s is not None and entry.created_unix is None:
            # Unbounded caches leave entries untouched (their callers
            # compare entries by value); aging only matters under a TTL.
            entry = replace(entry, created_unix=float(self._clock()))
        key = self._key(signature_key, rank, machine_name)
        if key in self._entries:
            del self._entries[key]
        self._entries[key] = entry
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                victim = next(iter(self._entries))
                del self._entries[victim]
                self.n_evicted += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return self._key(*key) in self._entries

    # ------------------------------------------------------------------
    def save(self, path: "str | os.PathLike[str]") -> None:
        """Write the cache as JSON."""
        payload = [
            {
                "signature": sig,
                "rank": rank,
                "machine": machine,
                "entry": entry.to_dict(),
            }
            for (sig, rank, machine), entry in sorted(self._entries.items())
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"version": 1, "entries": payload}, fh, indent=2)

    @classmethod
    def load(
        cls,
        path: "str | os.PathLike[str]",
        *,
        max_entries: "int | None" = None,
        ttl_s: "float | None" = None,
        clock: Callable[[], float] = time.time,
    ) -> "TuningCache":
        """Read a cache written by :meth:`save` (bounds optional)."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "entries" not in data:
            raise ConfigError(f"{path}: not a tuning cache file")
        cache = cls(max_entries=max_entries, ttl_s=ttl_s, clock=clock)
        for item in data["entries"]:
            cache.put(
                item["signature"],
                int(item["rank"]),
                item["machine"],
                CacheEntry.from_dict(item["entry"]),
            )
        return cache

    def merge(self, other: "TuningCache", *, prefer_cheaper: bool = True) -> None:
        """Fold another cache in (keeping the lower-cost entry on clashes
        when ``prefer_cheaper``)."""
        for key, entry in other._entries.items():
            mine = self._entries.get(key)
            if mine is None or (prefer_cheaper and entry.cost < mine.cost):
                self.put(*key, entry)

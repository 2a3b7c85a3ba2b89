"""Content-addressed on-disk cache of sweep-point results.

Artefacts are JSON files named by the point's content address
(:func:`repro.sweep.spec.cache_key`), sharded into 256 two-hex-digit
subdirectories.  Because the address covers every config field, the seed,
and the scoring-kernel version tag (:data:`repro.core.batch.KERNEL_VERSION`
— bumped whenever kernel semantics could change simulated values), a lookup
is either an exact replay of a previous run or a miss — there is no
invalidation protocol.  Writes go through a temporary file plus
``os.replace`` so an interrupted sweep never leaves a truncated artefact
that would poison later runs.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .spec import CACHE_SCHEMA_VERSION, SweepPoint, point_payload
from .trial import TrialMetrics

__all__ = ["CacheEntry", "CacheStats", "ResultCache"]

#: What reading a malformed artefact can raise: unreadable or non-JSON files,
#: a top level that is not an object (``[]``, ``"x"``), missing or mistyped
#: fields, and numbers no field can hold (``int(1e999)``).
_MALFORMED = (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError)


@dataclass
class CacheStats:
    """Hit/miss/store counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


@dataclass(frozen=True)
class CacheEntry:
    """On-disk metadata of one cached artefact (for ``repro cache``).

    ``kernel_version`` is the artefact's recorded engine tag: the bare
    :data:`~repro.core.batch.KERNEL_VERSION` it was computed under (older
    artefacts may carry a retired ``"<version>+<backend>"`` string, which
    no current key produces).  It is ``None`` for artefacts too corrupt to
    parse; those can never become hits and are garbage-collectable
    regardless of the kernel version being kept.
    """

    path: Path
    size_bytes: int
    key: str
    label: str | None
    kernel_version: str | int | None
    trials: int

    @property
    def readable(self) -> bool:
        return self.kernel_version is not None


@dataclass
class ResultCache:
    """JSON artefact store keyed by sweep-point content address."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    def path_for(self, point: SweepPoint) -> Path:
        key = point.cache_key()
        return self.root / key[:2] / f"{key}.json"

    def load(self, point: SweepPoint) -> list[TrialMetrics] | None:
        """Return the point's cached trials, or ``None`` on any miss.

        Unreadable or structurally wrong artefacts count as misses rather
        than errors: the sweep re-executes the point and overwrites them.
        """
        path = self.path_for(point)
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            trials = [TrialMetrics.from_payload(t) for t in payload["trials"]]
            if len(trials) != point.config.trials:
                raise ValueError("trial count mismatch")
        except _MALFORMED:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return trials

    def store(self, point: SweepPoint, trials: list[TrialMetrics]) -> Path:
        """Atomically persist one point's trials; returns the artefact path."""
        path = self.path_for(point)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": point.cache_key(),
            "label": point.label,
            "point": point_payload(point),
            "trials": [t.to_payload() for t in trials],
        }
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    # ------------------------------------------------------------------
    # Maintenance / observation (``repro cache stats|gc``).
    def entries(self) -> Iterator[CacheEntry]:
        """Walk every artefact on disk (corrupt ones flagged, not skipped)."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            key = path.stem
            label = None
            kernel: str | int | None = None
            trials = 0
            try:
                size = path.stat().st_size
            except OSError:
                continue  # vanished under a concurrent gc/drain — skip
            try:
                payload = json.loads(path.read_text())
                label = payload.get("label")
                kernel = payload["point"]["engine"]
                trials = len([TrialMetrics.from_payload(t) for t in payload["trials"]])
            except _MALFORMED:
                kernel = None
            yield CacheEntry(
                path=path,
                size_bytes=size,
                key=key,
                label=label,
                kernel_version=kernel,
                trials=trials,
            )

    def disk_stats(self) -> dict[str, object]:
        """Aggregate entry count, bytes, and per-engine-tag breakdown."""
        entries = bytes_total = corrupt = 0
        kernels: dict[str, int] = {}
        for entry in self.entries():
            entries += 1
            bytes_total += entry.size_bytes
            if entry.readable:
                tag = str(entry.kernel_version)
                kernels[tag] = kernels.get(tag, 0) + 1
            else:
                corrupt += 1
        return {
            "entries": entries,
            "bytes": bytes_total,
            "kernel_versions": dict(sorted(kernels.items())),
            "corrupt": corrupt,
        }

    def gc(
        self, *, keep_kernel_version: str | int, dry_run: bool = False
    ) -> tuple[int, int]:
        """Drop artefacts whose engine tag is not ``keep_kernel_version`` (and corrupt files).

        Returns ``(removed_entries, removed_bytes)``.  Tags compare as
        strings, so a retired ``"<version>+<backend>"`` tag is stale like
        any other mismatch, never treated as corrupt.
        """
        keep = str(keep_kernel_version)
        removed = removed_bytes = 0
        for entry in self.entries():
            if entry.readable and str(entry.kernel_version) == keep:
                continue
            removed += 1
            removed_bytes += entry.size_bytes
            if not dry_run:
                entry.path.unlink(missing_ok=True)
        return removed, removed_bytes

"""Session-scoped provenance registry: the oracle every guard consults.

Split registers the content fingerprint of each partition it produces;
guards later resolve incoming frames back to a role by content, not by
metadata, so provenance survives column selection and tag erasure but dies
on any value edit. The registry also owns the per-holdout assessed flag and
the guards-on/off switch.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

from .errors import (
    AmbiguousProvenance,
    GuardError,
    HoldoutSpent,
    LineageMismatch,
    PartitionError,
    RegistryError,
)
from .frame import DataFrame, FrameFingerprint, fingerprint

ROLES = ("train", "valid", "test", "dev")


@dataclass
class ProvenanceRecord:
    role: str
    split_id: str
    assessed: bool = False


class ProvenanceRegistry:
    """Map from partition fingerprints to roles, lineage and assessment state.

    All mutations are serialized by an internal lock; the assess-once
    check-and-set is a single indivisible step. A fresh registry starts
    empty with guards on.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[FrameFingerprint, ProvenanceRecord] = {}
        self._guard_mode = "on"

    @property
    def guard_mode(self) -> str:
        return self._guard_mode

    @property
    def guards_on(self) -> bool:
        return self._guard_mode == "on"

    def set_guards(self, mode: str) -> None:
        """Switch enforcement on or off; off-mode artifacts carry a bypass marker."""
        if mode not in ("on", "off"):
            raise RegistryError(f"guard mode must be 'on' or 'off', got {mode!r}")
        with self._lock:
            self._guard_mode = mode

    def register(self, fp: FrameFingerprint, role: str, split_id: str) -> None:
        """Record a partition fingerprint; re-registration overwrites and
        resets the assessed flag (re-split semantics)."""
        if role not in ROLES:
            raise RegistryError(f"unknown partition role {role!r}")
        with self._lock:
            self._entries[fp] = ProvenanceRecord(role=role, split_id=split_id)

    def lookup(self, df: DataFrame) -> ProvenanceRecord | None:
        """Resolve a frame to its provenance record by content.

        An exact fingerprint match wins; otherwise the frame matches a
        registered partition whose digests are a superset of the frame's and
        whose row count is equal (column selection preserves provenance,
        sampling does not). Returns None for unregistered content; raises
        AmbiguousProvenance when two different registered partitions both
        subset-match.
        """
        fp = fingerprint(df)
        with self._lock:
            return self._resolve_locked(fp)

    def lookup_quiet(self, df: DataFrame) -> ProvenanceRecord | None:
        """Best-effort lookup for off-mode bookkeeping: never raises."""
        try:
            return self.lookup(df)
        except AmbiguousProvenance:
            return None

    def _resolve_locked(self, fp: FrameFingerprint) -> ProvenanceRecord | None:
        exact = self._entries.get(fp)
        if exact is not None:
            return exact
        matches = [
            (rfp, rec)
            for rfp, rec in self._entries.items()
            if rfp.row_count == fp.row_count and fp.is_subset_of(rfp)
        ]
        if not matches:
            return None
        if len(matches) > 1:
            raise AmbiguousProvenance(
                f"frame content matches {len(matches)} registered partitions; "
                "refusing to guess provenance"
            )
        return matches[0][1]

    def mark_assessed(self, fp: FrameFingerprint) -> None:
        """Set the assessed flag on a registered test fingerprint."""
        with self._lock:
            rec = self._entries.get(fp)
            if rec is None:
                raise RegistryError("fingerprint is not registered")
            if rec.role != "test":
                raise RegistryError(
                    f"assessed flag applies to test partitions, not role {rec.role!r}"
                )
            rec.assessed = True

    def claim_assessment(
        self, df: DataFrame, expected_split_id: str | None
    ) -> ProvenanceRecord:
        """Atomically verify and spend a test holdout.

        Checks, in order and under one lock: the frame is registered; its
        role is test; its lineage matches `expected_split_id`; the holdout
        has not been assessed. On success the assessed flag is set and the
        record returned, so concurrent claims on one holdout yield exactly
        one winner.
        """
        fp = fingerprint(df)
        with self._lock:
            rec = self._resolve_locked(fp)
            if rec is None:
                raise PartitionError(
                    "assess requires data registered by split; call split() first"
                )
            if rec.role != "test":
                raise GuardError(
                    f"assess requires test-role data, got role {rec.role!r}"
                )
            if expected_split_id is not None and rec.split_id != expected_split_id:
                raise LineageMismatch(
                    "test data comes from a different split than the model "
                    f"(model split {expected_split_id!r}, data split {rec.split_id!r})"
                )
            if rec.assessed:
                raise HoldoutSpent(
                    "this test holdout has already been assessed in this session; "
                    "assessment is terminal: once per holdout, regardless of model"
                )
            rec.assessed = True
            return rec

    def has_split(self, split_id: str) -> bool:
        with self._lock:
            return any(rec.split_id == split_id for rec in self._entries.values())

    def reset(self) -> None:
        """Empty the registry and restore guards; nothing survives a session reset."""
        with self._lock:
            self._entries.clear()
            self._guard_mode = "on"

    def dump(self) -> dict[str, dict]:
        """Debugging snapshot: fingerprint hex -> {role, split_id, assessed}."""
        with self._lock:
            return {
                fp.hex(): {
                    "role": rec.role,
                    "split_id": rec.split_id,
                    "assessed": rec.assessed,
                }
                for fp, rec in sorted(
                    self._entries.items(), key=lambda item: item[0].hex()
                )
            }

    def dump_json(self) -> str:
        return json.dumps(self.dump(), indent=2, sort_keys=True)


_default = ProvenanceRegistry()


def default_registry() -> ProvenanceRegistry:
    """The process-wide session registry used when no explicit one is passed."""
    return _default


def resolve(registry: ProvenanceRegistry | None) -> ProvenanceRegistry:
    return _default if registry is None else registry


def set_guards(mode: str) -> None:
    """Toggle guard enforcement on the default session registry."""
    _default.set_guards(mode)


def reset_session() -> None:
    """Clear the default registry and switch guards back on."""
    _default.reset()

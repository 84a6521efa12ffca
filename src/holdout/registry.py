"""Session-scoped provenance registry: the oracle every guard consults.

Split registers the content fingerprint of each partition it produces;
`admit`, the one guard of every verb, resolves incoming frames back to a
role by content, not by metadata, so provenance survives column selection
and tag erasure but dies on any value edit, and checks the role against
`ADMITS`; the assess guard's four checks run in `claim_assessment` under
one lock. The registry also owns the per-holdout assessed flag and the
guards-on/off switch.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Literal

from .errors import (
    AlreadyAssessedModel,
    AmbiguousProvenance,
    GuardError,
    HoldoutSpent,
    LineageMismatch,
    PartitionError,
    RegistryError,
)
from .frame import DataFrame, FrameFingerprint, fingerprint
from .signatures import check_arguments

ROLES = ("train", "valid", "test", "dev")
GuardMode = Literal["on", "off"]

# The paper's typed DAG as data: the partition roles each guarded verb may
# consume. Every guard decision in the package is read from this table.
ADMITS = {
    "prepare": ("train", "valid", "dev"),
    "fit": ("train", "valid", "dev"),
    "evaluate": ("train", "valid", "dev"),
    "explain": ("train", "valid", "dev"),
    "cv": ("dev",),
    "assess": ("test",),
}


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
    def guards_on(self) -> bool:
        return self._guard_mode == "on"

    def set_guards(self, mode: GuardMode) -> None:
        """Switch enforcement on or off; off-mode artifacts carry a bypass marker."""
        check_arguments(ProvenanceRegistry.set_guards, locals())
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

    def admit(self, df: DataFrame, verb: str, model=None) -> tuple[ProvenanceRecord | None, bool]:
        """The one admission point of every guarded verb: (record, bypassed).

        With guards on, the frame must resolve to a registered partition
        whose role `ADMITS[verb]` lists; `assess` claims the holdout for
        `model` through `claim_assessment`. With guards off nothing raises:
        the record is resolved when it can be, and `assess` still counts
        the model's assessment and spends a test holdout it resolves to, so
        switching guards back on keeps the session's history honest.
        """
        if self.guards_on:
            if verb == "assess":
                return self.claim_assessment(df, model), False
            record = self.lookup(df)
            _check(record, verb)
            return record, False
        try:
            record = self.lookup(df)
        except AmbiguousProvenance:
            record = None
        if verb == "assess":
            with self._lock:
                model.assess_count += 1
                if record is not None and record.role == "test":
                    record.assessed = True
        return record, True

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
        # A prepared frame shares its source's role and split, so matching
        # both is not ambiguous; matching two partitions is.
        if len({(rec.role, rec.split_id) for _, rec in matches}) > 1:
            raise AmbiguousProvenance(
                f"frame content matches {len(matches)} registered partitions; "
                "refusing to guess provenance"
            )
        return matches[0][1]

    def claim_assessment(self, df: DataFrame, model) -> ProvenanceRecord:
        """Atomically verify and spend a test holdout for `model`.

        Checks, in order and under one lock: the model was never assessed;
        the frame is admitted to `assess`; its lineage matches the model's
        `source_split_id`; the holdout was not assessed. Success sets the
        flag and counts the model's assessment, so concurrent claims on one
        holdout, or by one model, yield exactly one winner."""
        fp = fingerprint(df)
        with self._lock:
            if model.assess_count > 0:
                raise AlreadyAssessedModel(
                    "this model has already been assessed; assessment is terminal: "
                    "once per holdout"
                )
            rec = self._resolve_locked(fp)
            _check(rec, "assess")
            if model.source_split_id not in (None, rec.split_id):
                raise LineageMismatch(
                    "test data comes from a different split than the model "
                    f"(model split {model.source_split_id!r}, data split {rec.split_id!r})"
                )
            if rec.assessed:
                raise HoldoutSpent(
                    "this test holdout has already been assessed in this session; "
                    "assessment is terminal: once per holdout, regardless of model"
                )
            rec.assessed = True
            model.assess_count += 1
            return rec

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


def _check(record: ProvenanceRecord | None, verb: str) -> None:
    """Raise unless `record` is registered under a role `verb` admits."""
    if record is None:
        raise PartitionError(f"{verb} requires data registered by split; call split() first")
    admitted = ADMITS[verb]
    if record.role not in admitted:
        raise GuardError(
            f"{verb} admits only {'/'.join(admitted)}-role data, got role "
            f"{record.role!r}: test data is reserved for assess"
        )


_default = ProvenanceRegistry()


def default_registry() -> ProvenanceRegistry:
    """The process-wide session registry used when no explicit one is passed."""
    return _default


def resolve(registry: ProvenanceRegistry | None) -> ProvenanceRegistry:
    return _default if registry is None else registry


def set_guards(mode: GuardMode) -> None:
    """Toggle guard enforcement on the default session registry."""
    _default.set_guards(mode)


def reset_session() -> None:
    """Clear the default registry and switch guards back on."""
    _default.reset()

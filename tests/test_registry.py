from types import SimpleNamespace

import pytest

from holdout import (
    AmbiguousProvenance,
    ConfigError,
    DataFrame,
    GuardError,
    PartitionError,
    RegistryError,
    default_registry,
    fingerprint,
    reset_session,
    select_columns,
    set_guards,
)
from holdout.registry import ADMITS, ROLES


@pytest.fixture
def frame():
    return DataFrame({"x": [1.0, 2.0, 3.0, 4.0, 5.0], "y": [0, 1, 0, 1, 0]})


def unassessed(split_id=None):
    """A stand-in for a model the assess guard has not seen: the two
    attributes `claim_assessment` reads and writes."""
    return SimpleNamespace(assess_count=0, source_split_id=split_id)


def test_register_and_lookup(registry, frame):
    fp = fingerprint(frame)
    registry.register(fp, "test", "s1")
    rec = registry.lookup(frame)
    assert rec.role == "test" and rec.split_id == "s1" and rec.assessed is False


def test_reregister_latest_wins(registry, frame):
    fp = fingerprint(frame)
    registry.register(fp, "test", "s1")
    registry.claim_assessment(frame, unassessed())
    registry.register(fp, "test", "s2")  # re-split: resets assessed
    rec = registry.lookup(frame)
    assert rec.split_id == "s2" and rec.assessed is False


def test_lookup_unregistered_returns_none(registry, frame):
    assert registry.lookup(frame) is None


def test_unknown_role_rejected(registry, frame):
    with pytest.raises(RegistryError):
        registry.register(fingerprint(frame), "holdout", "s1")


def test_column_subset_resolves_to_same_record(registry, frame):
    registry.register(fingerprint(frame), "train", "s1")
    sub = select_columns(frame, ["x"])
    rec = registry.lookup(sub)
    assert rec is not None and rec.role == "train"


def test_edited_cell_is_unregistered(registry, frame):
    registry.register(fingerprint(frame), "train", "s1")
    cols = {name: list(vals) for name, vals in frame.columns().items()}
    cols["x"][2] = 99.0
    assert registry.lookup(DataFrame(cols)) is None


def test_row_subset_is_unregistered(registry, frame):
    # Equal columns but fewer rows: sampling changes membership; fail closed.
    registry.register(fingerprint(frame), "test", "s1")
    smaller = frame._take([0, 1, 2])
    assert registry.lookup(smaller) is None


def test_ambiguous_subset_match_raises(registry):
    a = DataFrame({"x": [1.0, 2.0], "u": [5.0, 6.0]})
    b = DataFrame({"x": [1.0, 2.0], "v": [7.0, 8.0]})
    registry.register(fingerprint(a), "train", "s1")
    registry.register(fingerprint(b), "valid", "s1")
    probe = select_columns(a, ["x"])
    with pytest.raises(AmbiguousProvenance):
        registry.lookup(probe)


def test_subset_matches_of_one_role_and_split_are_not_ambiguous(registry):
    a = DataFrame({"x": [1.0, 2.0], "u": [5.0, 6.0]})
    b = DataFrame({"x": [1.0, 2.0], "v": [7.0, 8.0]})
    registry.register(fingerprint(a), "train", "s1")
    registry.register(fingerprint(b), "train", "s1")  # as prepare registers
    probe = select_columns(a, ["x"])
    assert registry.lookup(probe).role == "train"
    registry.register(fingerprint(b), "train", "s2")
    with pytest.raises(AmbiguousProvenance):
        registry.lookup(probe)


def test_exact_match_beats_subset_ambiguity(registry):
    a = DataFrame({"x": [1.0, 2.0], "u": [5.0, 6.0]})
    b = DataFrame({"x": [1.0, 2.0], "v": [7.0, 8.0]})
    probe = select_columns(a, ["x"])
    registry.register(fingerprint(a), "train", "s1")
    registry.register(fingerprint(b), "valid", "s1")
    registry.register(fingerprint(probe), "dev", "s1")
    assert registry.lookup(probe).role == "dev"


def test_lookup_is_pure_content_function(registry, frame):
    registry.register(fingerprint(frame), "valid", "s1")
    clone = DataFrame(frame.columns())
    retagged = frame._retag("test")  # metadata lies; content decides
    assert registry.lookup(clone).role == "valid"
    assert registry.lookup(retagged).role == "valid"


def test_guards_off_assess_marks_only_test_role(registry, frame):
    registry.register(fingerprint(frame), "train", "s1")
    registry.set_guards("off")
    record, bypassed = registry.admit(frame, "assess", unassessed())
    assert record.role == "train" and bypassed is True
    assert registry.lookup(frame).assessed is False


def test_guards_off_assess_unregistered(registry, frame):
    registry.set_guards("off")
    assert registry.admit(frame, "assess", unassessed()) == (None, True)
    assert registry.dump() == {}


def test_guards_off_assess_idempotent(registry, frame):
    registry.register(fingerprint(frame), "test", "s1")
    registry.set_guards("off")
    model = unassessed()
    registry.admit(frame, "assess", model)
    registry.admit(frame, "assess", model)  # off-mode never raises; guards-on rejects
    assert registry.lookup(frame).assessed is True and model.assess_count == 2


def test_guard_mode_switch(registry):
    assert registry.guards_on
    registry.set_guards("off")
    assert not registry.guards_on
    registry.set_guards("on")
    assert registry.guards_on
    with pytest.raises(ConfigError, match=r"^mode must be one of 'on', 'off', got 'maybe'$"):
        registry.set_guards("maybe")


def test_reset(registry, frame):
    registry.register(fingerprint(frame), "train", "s1")
    registry.set_guards("off")
    registry.reset()
    assert registry.lookup(frame) is None
    assert registry.guards_on


def test_register_reset_register(registry, frame):
    fp = fingerprint(frame)
    registry.register(fp, "train", "s1")
    registry.reset()
    registry.register(fp, "valid", "s2")
    assert registry.lookup(frame).role == "valid"


def test_dump_roundtrips_as_json(registry, frame):
    import json

    registry.register(fingerprint(frame), "test", "s9")
    dump = json.loads(registry.dump_json())
    (entry,) = dump.values()
    assert entry == {"role": "test", "split_id": "s9", "assessed": False}


def test_default_registry_session_helpers(frame):
    reset_session()
    default_registry().register(fingerprint(frame), "train", "s1")
    assert default_registry().lookup(frame).role == "train"
    set_guards("off")
    assert not default_registry().guards_on
    reset_session()
    assert default_registry().lookup(frame) is None
    assert default_registry().guards_on


def test_guards_off_admit_swallows_ambiguity(registry):
    a = DataFrame({"x": [1.0, 2.0], "u": [5.0, 6.0]})
    b = DataFrame({"x": [1.0, 2.0], "v": [7.0, 8.0]})
    registry.register(fingerprint(a), "train", "s1")
    registry.register(fingerprint(b), "valid", "s1")
    probe = select_columns(a, ["x"])
    with pytest.raises(AmbiguousProvenance):
        registry.lookup(probe)
    registry.set_guards("off")
    assert registry.admit(probe, "fit") == (None, True)


def test_guards_off_never_raises_on_ambiguous_content(registry):
    # Off-mode verbs must not raise even for content the registry cannot
    # resolve unambiguously.
    from holdout import fit

    a = DataFrame({"x": [0.1, 0.9, 0.2, 0.8], "u": [1.0, 2.0, 3.0, 4.0],
                   "y": [0, 1, 0, 1]})
    b = DataFrame({"x": [0.1, 0.9, 0.2, 0.8], "v": [5.0, 6.0, 7.0, 8.0],
                   "y": [0, 1, 0, 1]})
    registry.register(fingerprint(a), "train", "s1")
    registry.register(fingerprint(b), "valid", "s1")
    probe = select_columns(a, ["x", "y"])
    registry.set_guards("off")
    model = fit(probe, "y", registry=registry)
    assert model.guards_bypassed is True


@pytest.mark.parametrize("guards", ["on", "off"])
@pytest.mark.parametrize(
    "verb, role", [(verb, role) for verb in ADMITS for role in ROLES + (None,)]
)
def test_admission_matrix(registry, frame, guards, verb, role):
    # Every verb against every role and unregistered content, in both modes.
    if role is not None:
        registry.register(fingerprint(frame), role, "s1")
    registry.set_guards(guards)
    model = unassessed("s1")
    if guards == "off":
        record, bypassed = registry.admit(frame, verb, model)
        assert bypassed is True
        assert (record is None) == (role is None)
    elif role is None:
        with pytest.raises(PartitionError, match="call split"):
            registry.admit(frame, verb, model)
    elif role in ADMITS[verb]:
        record, bypassed = registry.admit(frame, verb, model)
        assert record.role == role and bypassed is False
    else:
        with pytest.raises(GuardError, match="reserved for assess"):
            registry.admit(frame, verb, model)
    spent = [entry["assessed"] for entry in registry.dump().values()]
    assert spent == ([] if role is None else [verb == "assess" and role == "test"])

"""Golden partitions: seeded splits and rotations pinned across versions.

Each split case records its split id and the four member fingerprints;
each rotation case records a SHA-256 of its fold tuples. A refactor of how
rows are dealt to members or folds must reproduce every value exactly.
"""

import hashlib

import numpy as np
import pytest

from holdout import (
    DataFrame,
    ProvenanceRegistry,
    cv,
    cv_group,
    cv_temporal,
    fingerprint,
    split,
    split_group,
    split_temporal,
)

ROWS = 53


def _frame() -> DataFrame:
    rng = np.random.Generator(np.random.Philox(2024))
    x = rng.normal(size=ROWS)
    labels = rng.integers(0, 3, size=ROWS)
    mixed_cycle = (1, 0, 1.0, 0, True, 0.0, False)
    return DataFrame(
        {
            "x": [float(v) for v in x],
            "t": [float(v) for v in rng.permutation(ROWS)],
            "g": [f"g{int(v)}" for v in rng.integers(0, 11, size=ROWS)],
            "y_int": [int(v) for v in rng.integers(0, 2, size=ROWS)],
            "y_text": [("ant", "bee", "cat")[int(v)] for v in labels],
            "y_mixed": [mixed_cycle[i % len(mixed_cycle)] for i in range(ROWS)],
        }
    )


SPLITS = {
    "random": lambda df, reg: split(df, "y_int", (0.6, 0.2, 0.2), seed=7, registry=reg),
    "random_uneven": lambda df, reg: split(df, "y_int", (0.5, 0.3, 0.2), seed=0, registry=reg),
    "stratified_int": lambda df, reg: split(df, "y_int", seed=3, stratify=True, registry=reg),
    "stratified_text": lambda df, reg: split(df, "y_text", seed=5, stratify=True, registry=reg),
    "stratified_mixed": lambda df, reg: split(df, "y_mixed", seed=9, stratify=True, registry=reg),
    "group": lambda df, reg: split_group(df, "y_int", "g", seed=4, registry=reg),
    "temporal_embargo": lambda df, reg: split_temporal(df, "y_int", "t", embargo=2, registry=reg),
}

ROTATIONS = {
    "cv": ("random", lambda p, reg: cv(p, 4, seed=2, registry=reg)),
    "cv_uneven": ("random_uneven", lambda p, reg: cv(p, 3, seed=8, registry=reg)),
    "cv_stratified": ("stratified_text", lambda p, reg: cv(p, 5, seed=1, registry=reg)),
    "cv_group": ("group", lambda p, reg: cv_group(p, 3, seed=6, registry=reg)),
    "cv_temporal_expanding": (
        "temporal_embargo",
        lambda p, reg: cv_temporal(p, 4, "expanding", min_train=5, embargo=1, registry=reg),
    ),
    "cv_temporal_sliding": (
        "temporal_embargo",
        lambda p, reg: cv_temporal(p, 3, "sliding", min_train=8, embargo=2, registry=reg),
    ),
}

GOLDEN_SPLITS = {
    "group": (
        "98f21b65ecd846a9",
        "dd2dfbe5208d50798ec2f2791673c42bca00c34b1c9b096c233a793312a44511",
        "451c6d187cc9c2e23c0f015dd8f2594fba7c367fedfab7208ed05ac64a3c459d",
        "d604b59a6f797eb569fc29f4c5d9681c965ecbb392aec53adc9e1dcace9aa421",
        "3d948920a5af6b391c189669f73788f50798b438f7e114f90f39f3979e0f8bd8",
    ),
    "random": (
        "48cb8df351e590b3",
        "51629273611559ee669580fd99a9c085f3b89306bcc85e3864ca5d1d7947f074",
        "ef2a5c5d959eb83a71dbe71d6267e6969a4c59f95438ae2c8a5581738b4e4ac8",
        "85601346d0b065d0fd75bfcb40ff67204fadbe9a71af4b52f504b6a050914549",
        "89aed080638893b2992d8dc57933d5829e65c0289601ff58042a7c38ae76d918",
    ),
    "random_uneven": (
        "1e92abfd09a3dd6a",
        "bc9a2d01b26c85d079e8c4106e7ce6ab8f5620489b3cd1f15099f489c063ac2e",
        "2663970eec4dcdad057003e50b6bbc1f242a720c1b42750a4a163728e289c2e9",
        "6dcb2fb3497482f0d3653ff7228c852dab3c229c019208f789e8371bae4b8d27",
        "c52b40c28ae577b5ea4379c4f0521e25c6e65a4434eaa8277032d9eaf3ab42a0",
    ),
    "stratified_int": (
        "dbf01b1db611c2df",
        "78477d0cec887dc471da0c7042f07e3fc428db938a7b5b375e7efe8cdfec3e1b",
        "fb6111b705d0531ee3444484e6316d4f50e54284c51e36f9a6c916e4728fda51",
        "8c9e87cf237898436c353258f3ebb941080f19b5f3c25412454aac0e495156c7",
        "f4f05901c6777cff8f83c3841b547fc8da8f5ec95eb4bd1038f1bcc58095b557",
    ),
    "stratified_mixed": (
        "5efae3d1e641e58f",
        "c153a55be1b455fd6d4cee526bf7ec15aea26145d79a6dfd5d2ae3b0b119fa6f",
        "b9b0606d00e03077726d62baa0659fb3a1f348aa0cb2d32340e0fa48ca948b1d",
        "7ccea4959a1a5f4a0b548ae124a99cdaeec720233109c5c1e53b771293d496bd",
        "e511ad0b28cb6a6c5a9a557c3846c94e89d022dffb628fca13312126b391ad56",
    ),
    "stratified_text": (
        "1dedb6fcb21eef65",
        "9f0ad36d7b34c360a12fd347cf19e67f5e0fd20f137447e5b9bb2b55a12dabad",
        "a9d98d7b71e37b45cc366970d47c258bbe2191a0383d94447357b09cab22c8e5",
        "8fd261da8aabc13b1f1b90ff4fa8e38294a44cd6897b112281d1cfd0eeef4dae",
        "e2b3cc6277cac476f4c9eefbac0060ff806b1e4744c7c7cd19de670e87f63089",
    ),
    "temporal_embargo": (
        "bde0bc1387756779",
        "8b546fe51a2fd2d445c694d18453a89254d00b987d60e428f61ae5b8cedc209b",
        "f5e7921f7f1c6a47047aded01b2b6d45a4688f71fb4704e2342f0dc0d6dbf98f",
        "0cc6cc08b41b9448c7d6d91472de4206ed2ab59ab0ca87abae949169a1210794",
        "a1214a17af48d0db83583aadf9efc7c574824c20b027fa08dea2f0f64df3727d",
    ),
}

GOLDEN_ROTATIONS = {
    "cv": "f9662e6956dd7eea86ed160463f738610d1caf1cbff3c586c06a79d744213aaa",
    "cv_group": "0a830650029607fb6e70cd8a0b538dcca3bd19064c6896f83a779d3113b9388d",
    "cv_stratified": "cf0303e960f6e428b39276efaa1ecbfe32ff4d45af274953173641c4e3a57897",
    "cv_temporal_expanding": "4864626b0c7158c2c3144f5fb2d2296919b6f2b92dc02ec863232b0091aa2a93",
    "cv_temporal_sliding": "14dff6dd0cf6fdf940390a1e13003925e99a1d70c02c1b1656d56be0c3dab32f",
    "cv_uneven": "bf41193c667bc238dae1fc50472071ccfc7949ac084015ed39f4a69840299578",
}


def _split_record(p) -> tuple:
    return (p.split_id,) + tuple(
        fingerprint(m).hex() for m in (p.train, p.valid, p.test, p.dev)
    )


def _folds_digest(c) -> str:
    return hashlib.sha256(repr(c.folds).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SPLITS))
def test_split_pinned(name):
    p = SPLITS[name](_frame(), ProvenanceRegistry())
    assert _split_record(p) == GOLDEN_SPLITS[name]


@pytest.mark.parametrize("name", sorted(ROTATIONS))
def test_rotation_pinned(name):
    source, rotate = ROTATIONS[name]
    reg = ProvenanceRegistry()
    p = SPLITS[source](_frame(), reg)
    assert _folds_digest(rotate(p, reg)) == GOLDEN_ROTATIONS[name]

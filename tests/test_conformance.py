from holdout.conformance import run_conformance
from holdout.registry import ProvenanceRegistry


def test_fresh_build_passes_all_eight():
    report = run_conformance()
    assert report["passed"] is True
    assert [c["condition"] for c in report["conditions"]] == list(range(1, 9))
    assert all(c["passed"] for c in report["conditions"])


def test_conditions_carry_names_and_details():
    report = run_conformance()
    for entry in report["conditions"]:
        assert entry["name"]
        assert entry["detail"]


def test_suite_detects_disabled_assess_guard(monkeypatch):
    # Sensitivity check: sabotage the atomic holdout claim so a second
    # assessment sails through; condition 4 must fail, the rest must not.
    def complacent_claim(self, df, model):
        fp_record = self.lookup(df)
        return fp_record

    monkeypatch.setattr(ProvenanceRegistry, "claim_assessment", complacent_claim)
    report = run_conformance()
    verdicts = {c["condition"]: c["passed"] for c in report["conditions"]}
    assert verdicts[4] is False
    assert report["passed"] is False
    assert verdicts[1] and verdicts[8]


def test_suite_detects_leaky_fold_preparation(monkeypatch):
    # Second sensitivity probe: make every fold reuse a transformer fitted
    # on the full dev frame (the classic global-preprocessing mistake).
    import holdout.learn as learn_module
    from holdout.prepare import fit_transformer

    original = learn_module._fit_rotation

    def leaky_rotation(c, target, algorithm, seed, hyperparameters, recipe, reg):
        model = original(c, target, algorithm, seed, hyperparameters, recipe, reg)
        dev_state = fit_transformer(c._dev_frame, target or c.target, recipe).state
        model.fold_transformers_ = tuple(dev_state for _ in c.folds)
        return model

    monkeypatch.setattr(learn_module, "_fit_rotation", leaky_rotation)
    report = run_conformance()
    verdicts = {c["condition"]: c["passed"] for c in report["conditions"]}
    assert verdicts[5] is False

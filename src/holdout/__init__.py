"""Leakage-guarded machine-learning workflows.

Eight guarded verbs over immutable frames: split, cv, prepare, fit,
predict, evaluate, explain, assess. Partition identity is content-addressed
through a session registry, so guards survive column selection and tag
erasure, reject unregistered or test-tagged data at call time, and spend
each test holdout exactly once.

    import holdout as ml

    df = ml.from_csv("data.csv")
    s = ml.split(df, target="y", seed=42)
    c = ml.cv(s, folds=5, seed=42)
    model = ml.fit(c, "y", algorithm="logistic", seed=42)
    print(model.scores_["roc_auc"])
    metrics = ml.evaluate(model, s.valid)
    final = ml.assess(model, test=s.test)
"""

from .errors import (
    AlreadyAssessedModel,
    AmbiguousProvenance,
    ConfigError,
    CVError,
    GroupError,
    GuardError,
    HoldoutSpent,
    LineageMismatch,
    ParseError,
    PartitionError,
    RegistryError,
    SchemaError,
    StratifyError,
    TemporalTieError,
    WorkflowError,
)
from .frame import (
    DataFrame,
    FrameFingerprint,
    canonical_encode,
    fingerprint,
    from_csv,
    select_columns,
)
from .registry import (
    ProvenanceRecord,
    ProvenanceRegistry,
    default_registry,
    reset_session,
    set_guards,
)
from .split import Partition, split, split_group, split_temporal
from .rotate import CVResult, cv, cv_group, cv_temporal
from .prepare import PreparedData, Transformer, apply, prepare
from .learn import (
    Model,
    Predictions,
    StackedModel,
    fit,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    predict,
)
from .judge import Evidence, Explanation, Metrics, assess, evaluate, explain
from .strategy import Leaderboard, TuningResult, screen, stack, tune
from .workflow import RunReport, WorkflowSpec, execute_workflow, load_workflow, run_workflow
from .conformance import run_conformance
from .demo import demo_leakage

__version__ = "0.1.0"

__all__ = [
    # frames
    "DataFrame",
    "FrameFingerprint",
    "canonical_encode",
    "fingerprint",
    "from_csv",
    "select_columns",
    # registry
    "ProvenanceRecord",
    "ProvenanceRegistry",
    "default_registry",
    "reset_session",
    "set_guards",
    # splits and rotation
    "Partition",
    "split",
    "split_temporal",
    "split_group",
    "CVResult",
    "cv",
    "cv_temporal",
    "cv_group",
    # preparation
    "PreparedData",
    "Transformer",
    "prepare",
    "apply",
    # learning
    "Model",
    "Predictions",
    "fit",
    "predict",
    "model_to_dict",
    "model_from_dict",
    "model_to_json",
    "model_from_json",
    # judgment
    "Metrics",
    "Evidence",
    "Explanation",
    "evaluate",
    "assess",
    "explain",
    # strategies
    "Leaderboard",
    "TuningResult",
    "StackedModel",
    "screen",
    "tune",
    "stack",
    # workflows
    "WorkflowSpec",
    "RunReport",
    "load_workflow",
    "execute_workflow",
    "run_workflow",
    "run_conformance",
    "demo_leakage",
    # errors
    "WorkflowError",
    "ParseError",
    "SchemaError",
    "ConfigError",
    "PartitionError",
    "StratifyError",
    "TemporalTieError",
    "GroupError",
    "CVError",
    "RegistryError",
    "AmbiguousProvenance",
    "GuardError",
    "AlreadyAssessedModel",
    "HoldoutSpent",
    "LineageMismatch",
]

"""Software-vulnerability assessment workbench.

Turns SV descriptions, vulnerable functions, and commit diffs into
CVSS-style multi-task predictions, with drift-aware char+word features,
time-ordered evaluation protocols, and a PU-learning miner for security
Q&A corpora.

The submodules are importable directly; the names re-exported here are
the stable entry points most callers need.
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: E402
    CVSS_TASKS,
    CommitRecord,
    Dataset,
    FunctionRecord,
    QaPost,
    SchemaError,
    SvReport,
    load_dataset,
    parse_unified_diff,
    serialize_dataset,
)
from .features import (  # noqa: E402
    FeatureModel,
    NlpConfig,
    aggregate_char_word,
    build_char_vocab,
    build_word_vocab,
    standard_configs,
    transform,
    transform_many,
)
from .models import (  # noqa: E402
    CLASSIFIER_KINDS,
    ClassifierSpec,
    TrainedModel,
    predict,
    standard_classifier_grid,
    train_classifier,
)
from .evaluation import (  # noqa: E402
    POLICIES,
    PROTOCOLS,
    SplitPlan,
    SplitTuple,
    compute_metrics,
    grid_search,
    rounds10_wrap_splits,
    rounds12_splits,
    time_kfold_splits,
)
from .textprep import preprocess_text, tokenize_code  # noqa: E402
from .porter import porter_stem  # noqa: E402
from .drift import drift_report  # noqa: E402
from .reduce import lsa_fit, lsa_transform_many  # noqa: E402
from .scopes import (  # noqa: E402
    CONTEXT_MODES,
    ContextConfig,
    build_input,
    context_indices,
    extract_ces,
    extract_commit_ces,
    parse_scopes,
)
from .neural import (  # noqa: E402
    AcGruConfig,
    CommitInput,
    forward,
    backward,
    predict_acgru,
    train_acgru,
)
from .pumine import (  # noqa: E402
    ContentFilterConfig,
    KeywordSet,
    PuConfig,
    content_filter,
    load_keywords,
    pu_predict,
    pu_train,
    reliable_negatives,
)

__all__ = [
    "__version__",
    "CVSS_TASKS",
    "CommitRecord",
    "Dataset",
    "FunctionRecord",
    "QaPost",
    "SchemaError",
    "SvReport",
    "load_dataset",
    "parse_unified_diff",
    "serialize_dataset",
    "FeatureModel",
    "NlpConfig",
    "aggregate_char_word",
    "build_char_vocab",
    "build_word_vocab",
    "standard_configs",
    "transform",
    "transform_many",
    "CLASSIFIER_KINDS",
    "ClassifierSpec",
    "TrainedModel",
    "predict",
    "standard_classifier_grid",
    "train_classifier",
    "POLICIES",
    "PROTOCOLS",
    "SplitPlan",
    "SplitTuple",
    "compute_metrics",
    "grid_search",
    "rounds10_wrap_splits",
    "rounds12_splits",
    "time_kfold_splits",
    "preprocess_text",
    "tokenize_code",
    "porter_stem",
    "drift_report",
    "lsa_fit",
    "lsa_transform_many",
    "CONTEXT_MODES",
    "ContextConfig",
    "build_input",
    "context_indices",
    "extract_ces",
    "extract_commit_ces",
    "parse_scopes",
    "AcGruConfig",
    "CommitInput",
    "forward",
    "backward",
    "predict_acgru",
    "train_acgru",
    "ContentFilterConfig",
    "KeywordSet",
    "PuConfig",
    "content_filter",
    "load_keywords",
    "pu_predict",
    "pu_train",
    "reliable_negatives",
]

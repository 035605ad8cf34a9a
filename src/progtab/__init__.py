"""Conditional-probability encoding and progressive semi-supervised training
for high-cardinality tabular data."""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    ColumnSchema,
    DataSplit,
    SplitSpec,
    SyntheticSpec,
    TabularDataset,
    load_csv,
    make_split,
    synthesize_dataset,
)
from .encoding import CountTable, EncodedMatrix, encode, fit_cpr, update_counts  # noqa: F401
from .progressive import (  # noqa: F401
    ExperimentReport,
    PseudoLabelSet,
    RunConfig,
    compare_runs,
    refine_pseudo_labels,
    run_progressive,
    update_representation,
)

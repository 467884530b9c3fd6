"""Evaluation harness: downstream tasks and the paper's experiments.

This package reproduces the experimental protocol of Section VI:

* :mod:`repro.evaluation.methods` — a uniform interface over the two
  embedding algorithms (and their dynamic extenders);
* :mod:`repro.evaluation.baselines` — majority-class and flat-feature
  baselines;
* :mod:`repro.evaluation.static_experiment` — static classification with
  10-fold cross-validation (Table III);
* :mod:`repro.evaluation.dynamic_experiment` — the five-step dynamic
  protocol, the ratio sweep of Figure 5 and the 10 %-new comparison of
  Table IV, plus the timing numbers of Tables V and VI;
* :mod:`repro.evaluation.reporting` — ASCII renderings of every table and
  figure.
"""

from repro.evaluation.methods import (
    EmbeddingMethod,
    ForwardMethod,
    Node2VecMethod,
    SpecMethod,
    method_by_name,
    method_from_spec,
)
from repro.evaluation.baselines import FlatFeatureBaseline, majority_baseline_accuracy
from repro.evaluation.static_experiment import StaticResult, run_static_experiment
from repro.evaluation.dynamic_experiment import (
    ChurnResult,
    DynamicResult,
    RatioSweepResult,
    run_churn_experiment,
    run_dynamic_experiment,
    run_ratio_sweep,
)
from repro.evaluation.reporting import (
    format_dynamic_table,
    format_figure5_series,
    format_static_table,
    format_timing_table,
)

__all__ = [
    "EmbeddingMethod",
    "ForwardMethod",
    "Node2VecMethod",
    "SpecMethod",
    "method_by_name",
    "method_from_spec",
    "FlatFeatureBaseline",
    "majority_baseline_accuracy",
    "StaticResult",
    "run_static_experiment",
    "ChurnResult",
    "DynamicResult",
    "RatioSweepResult",
    "run_churn_experiment",
    "run_dynamic_experiment",
    "run_ratio_sweep",
    "format_static_table",
    "format_dynamic_table",
    "format_timing_table",
    "format_figure5_series",
]

"""Feature screening and classification for categorical data on networks.

The package ranks candidate features of networked observations by how much
each one improves a pseudo-likelihood that models both the response labels
and the directed adjacency, keeps the leaders by a data-driven cutoff, and
classifies with plug-in scores that can exploit the network. A simulation
layer generates the designed benchmark settings end to end.
"""

__version__ = "0.1.0"

from .classify import (ClassifierSpec, MetricsReport, NetworkClassifier,
                       evaluate, fit, predict, predict_scores,
                       screening_metrics)
from .dataset import FeatureSet, NodeDataset, discretize, validate
from .errors import DegeneracyError, ValidationError
from .experiment import (ExperimentReport, experiment, null_calibration,
                         run_replication)
from .io import read_dataset, read_json, write_dataset, write_json
from .plr import (PlrStat, batch_statistics, chi2_tail, degrees_of_freedom,
                  permutation_pvalue, plr_statistic)
from .screening import (ScreeningResult, hard_cutoff, interaction_expand,
                        max_ratio_cutoff, pc_sis, plr_sis)
from .simulate import (SimulationConfig, example_config, gen_network,
                       gen_nlr, gen_nnb, generate, noise_rates,
                       perturb_network)

__all__ = [
    "ClassifierSpec", "DegeneracyError", "ExperimentReport", "FeatureSet",
    "MetricsReport", "NetworkClassifier", "NodeDataset", "PlrStat",
    "ScreeningResult", "SimulationConfig", "ValidationError",
    "batch_statistics", "chi2_tail", "degrees_of_freedom", "discretize",
    "evaluate", "example_config", "experiment", "fit", "gen_network",
    "gen_nlr", "gen_nnb", "generate", "hard_cutoff", "interaction_expand",
    "max_ratio_cutoff", "noise_rates", "null_calibration", "pc_sis",
    "permutation_pvalue", "perturb_network", "plr_sis", "plr_statistic",
    "predict", "predict_scores", "read_dataset", "read_json",
    "run_replication", "screening_metrics", "validate", "write_dataset",
    "write_json",
]

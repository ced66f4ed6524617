"""Zeroth-order optimization toolkit: adaptive-momentum method, six baselines,
randomized-smoothing verification oracles, and a query-counted benchmark
harness."""

from .errors import ConfigError, NumericError
from .estimators import (EstimatorConfig, averaged_estimator,
                         coordinate_estimate, nes_antithetic_estimate,
                         two_point_uniform)
from .geometry import (Box, DiagonalMetric, L2Ball, SymmetricBand,
                       Unconstrained, gradient_mapping, mahalanobis_measure,
                       vi_violation)
from .metrics import (RunResult, Trace, TraceRecord, average_regret,
                      first_success, parse_csv, serialize_csv, write_envelope)
from .numkit import RngStream, sample_unit_ball, sample_unit_sphere
from .optimizers import (AdaMMState, OptConfig, default_config, run_optimizer,
                         zo_adamm_step, zo_scd_step, zo_sgd_step,
                         zo_signsgd_step, zo_smd_step)
from .oracle import ProblemMetadata, StochasticObjective
from .problems import (ProblemSpec, TinyMlp, cw_loss, load_victim,
                       make_attack_problem, make_counterexample_lp,
                       make_logistic, make_nonconvex, make_quadratic,
                       tanh_reparam)
from .smoothing import (SmoothingProbe, analytic_smooth_quadratic,
                        smooth_grad_mc, smooth_value_mc)

__version__ = "0.1.0"

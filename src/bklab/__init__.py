"""bklab: a simulation lab for quantile/empirical process residuals of
weakly dependent linear processes.

The package simulates one-sided moving averages X_i = sum_k c_k eps_{i-k},
computes the empirical and quantile processes and their density-corrected
residual f(Q(y)) q_n(y) - alpha_n(y), splits the empirical process into
its martingale and smooth parts, estimates the long-run covariance of the
smooth part, and runs replicated scans that check the residual's scaling
against its classical normalizers.
"""

__version__ = "0.1.0"

from .bk import (ResidualSeries, csr_nu_min, rate_b, rate_kiefer_pointwise,
                 rate_lambda, residual_pointwise, residual_sup,
                 weighted_residual_sup)
from .coefficients import (CoefficientSequence, make_coefficients,
                           make_finite_coefficients,
                           make_geometric_coefficients,
                           make_power_law_coefficients, truncation_horizon)
from .decomp import (CovarianceEstimate, DecompositionAt, TruncatedMarginals,
                     covariance_gamma, decompose, gaussian_limit_sample,
                     truncated_summands)
from .empirical import (EmpiricalSummary, alpha_process, beta_process, edf,
                        equantile, jump_grid, q_process, sup_abs_beta,
                        sup_abs_u, u_process)
from .errors import ConfigError, ModelError, NumericalError
from .harness import (ExperimentConfig, config_from_dict, config_from_file,
                      fit_rate, increment_modulus, run_covariance_check,
                      run_increment_check, run_lil_scan, run_rate_scan)
from .innovations import InnovationModel, get_innovation
from .model import (LinearProcessModel, MarginalOracle,
                    build_marginal_oracle, check_dependence_condition,
                    exact_marginal_oracle, validate_innovation)
from .paths import SamplePath, pit_transform, simulate_path, truncate_path
from .seeds import mix_seed, splitmix64

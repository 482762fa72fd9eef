"""Stein's-method toolkit for the half-normal limit of simple random walk.

Exact arbitrary-precision laws of the walk's maximum, returns to the origin
and sign changes; solutions and certified bounds for the half-normal Stein
equation; discrete Stein characterizations; and exact Kolmogorov and
Wasserstein distances checked against closed-form n^{-1/2} error bounds.
"""

from .characterization import (CharacterizationSpec, indicator_residuals,
                               indicator_sequence, make_spec, recover_pmf,
                               stein_residual)
from .metrics import (AuxiliaryReport, DistanceReport, RateRow,
                      auxiliary_bounds, bound_check, bound_sweep,
                      kolmogorov_exact, rate_table, theorem_bound,
                      wasserstein_exact, wasserstein_quantile)
from .normal import (HALF_NORMAL, HalfNormal, cap_phi, inv_cap_phi,
                     mill_bounds, phi)
from .simulate import EmpiricalReport, WalkSummary, empirical_check, simulate_walk
from .stein import (BoundCheck, BoundReport, HalfLineIndicator,
                    LipschitzFunction, aux_eval, fz, fz_prime, mu_h,
                    solve_fh, sup_search, verify_lemma_bounds,
                    verify_monotone_xfz)
from .walks import (DomainError, ExactPMF, FloatLaw, ScaledLaw,
                    brute_force_pmf, float_law, half_length, mean_exact,
                    moment_bounds_check, pmf_halfmax, pmf_max, pmf_returns,
                    pmf_signchanges, position_prob, scaled_law)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"

"""Stein's-method toolkit for the half-normal limit of simple random walk.

Exact arbitrary-precision laws of the walk's maximum, returns to the origin
and sign changes; solutions and certified bounds for the half-normal Stein
equation; discrete Stein characterizations; and exact Kolmogorov and
Wasserstein distances checked against closed-form n^{-1/2} error bounds.
"""

import os as _os

# Loading OpenBLAS, in numpy's import, starts a worker thread that spins
# for about 60 ms of CPU, slowing the import itself and, on a short run,
# what comes after it. The package makes no BLAS call, so it asks for no
# worker; this must run before numpy's first import, and a value the
# caller set is kept.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .characterization import (CharacterizationSpec, indicator_residuals,
                               make_spec, recover_pmf)
from .metrics import (AuxiliaryReport, DistanceReport, RateRow,
                      auxiliary_bounds, bound_check, distances, rate_table,
                      theorem_bound, wasserstein_exact, wasserstein_quantile)
from .normal import mill_bounds, phi
from .simulate import EmpiricalReport, empirical_check
from .stein import (BoundCheck, BoundReport, CappedIdentity, HalfLineIndicator,
                    LipschitzFunction, fz, fz_prime, mu_h,
                    solve_fh, sup_search, verify_lemma_bounds,
                    verify_monotone_xfz)
from .walks import (DomainError, ExactPMF, ScaledLaw, brute_force_pmf,
                    exact_pmf, half_length, mean_exact, moment_bounds_check,
                    scaled_law, walk_length)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"

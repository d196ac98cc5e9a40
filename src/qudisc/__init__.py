"""Optimal programmable discrimination of two unknown qudit states.

Closed-form unambiguous and minimum-error optima for the Haar-averaged
multi-copy discrimination problem, with a dense-matrix oracle that
certifies every formula from first principles.
"""

from .combinatorics import (
    Partition,
    binomial,
    hook_lengths,
    unitary_dim,
)
from .discrimination import (
    AsymptoticBounds,
    Branch,
    MinErrorResult,
    UnambiguousResult,
    asymptotic_bounds,
    bound_p0,
    bound_q0,
    minerror_probability,
    total_failure,
)
from .errors import OracleError, PreconditionError, QudiscError
from .spectrum import (
    JordanBlock,
    JordanSpectrum,
    ProblemConfig,
    canonicalize,
    jordan_spectrum,
    overlap_via_6j,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticBounds", "Branch", "JordanBlock", "JordanSpectrum",
    "MinErrorResult", "OracleError", "Partition", "PreconditionError",
    "ProblemConfig", "QudiscError", "UnambiguousResult", "asymptotic_bounds",
    "binomial", "bound_p0", "bound_q0", "canonicalize", "hook_lengths",
    "jordan_spectrum", "minerror_probability", "overlap_via_6j",
    "total_failure", "unitary_dim",
]

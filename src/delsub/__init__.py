"""Error-ball combinatorics and sequence reconstruction for the q-ary
single-deletion single-substitution channel.

The package has four layers: q-ary word primitives (:mod:`.sequence`),
brute-force ball materialization used as the testing oracle
(:mod:`.balls`), the mismatch structure and structural intersection
computation (:mod:`.diffs`, :mod:`.intersect`), and the operational
channel/decoder layer (:mod:`.reconstruct`).  ``delsub.cli`` exposes all
of it as a command line tool.
"""

from .sequence import (
    Sequence,
    alternating,
    delete,
    hamming,
)
from .balls import (
    BallSpec,
    BudgetExceededError,
    DEFAULT_BUDGET,
    ball_intersection,
    deletion_ball,
    ds_ball,
    sub_intersection_size,
    substitution_ball,
    substitution_ball_size,
)
from .diffs import (
    DiffProfile,
    lambda_enumerate,
)
from .intersect import (
    CheckResult,
    IntersectionReport,
    bound_applicable,
    claims_lambda,
    constant_regime_bound,
    coverage_bound,
    extremal_pair,
    intersection_size_fast,
    min_valid_length,
    verify_claims,
    verify_lemmas,
)
from .reconstruct import (
    Codebook,
    CoverageReport,
    ReadSet,
    ReconResult,
    ball_membership,
    channel_transmit,
    read_coverage,
    reconstruct,
    required_reads,
)

__version__ = "0.1.0"

__all__ = [
    "BallSpec",
    "BudgetExceededError",
    "CheckResult",
    "Codebook",
    "CoverageReport",
    "DEFAULT_BUDGET",
    "DiffProfile",
    "IntersectionReport",
    "ReadSet",
    "ReconResult",
    "Sequence",
    "alternating",
    "ball_intersection",
    "ball_membership",
    "bound_applicable",
    "channel_transmit",
    "claims_lambda",
    "constant_regime_bound",
    "coverage_bound",
    "delete",
    "deletion_ball",
    "ds_ball",
    "extremal_pair",
    "hamming",
    "intersection_size_fast",
    "lambda_enumerate",
    "min_valid_length",
    "read_coverage",
    "reconstruct",
    "required_reads",
    "sub_intersection_size",
    "substitution_ball",
    "substitution_ball_size",
    "verify_claims",
    "verify_lemmas",
]

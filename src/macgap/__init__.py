"""macgap: exact Macaulay index calculus, hyperplane restriction bounds, and
gap intervals for maps between generalized balls."""

from .binom_core import (
    MacaulayRep,
    binom,
    macaulay_rep,
    op_lower,
    op_minus,
    op_upper,
    verify_lemma_binom,
)
from .gap_calc import (
    NabForm,
    classify_gap,
    comparison_intervals,
    dim_prop_bound,
    dim_prop_bounds,
    gap_intervals,
    plane_chain,
    plane_step,
    verify_gap_argument,
)
from .hermitian import (
    SignedMap,
    Signature,
    format_map,
    null_prolongation,
    orthogonality_certificate,
    parse_map,
    sharpness_map,
)
from .polyspace import (
    GRat,
    Hyperplane,
    Poly,
    exact_rank,
    image_span_dim,
    restrict,
    verify_green,
    verify_restriction_theorem,
)

__all__ = [
    "GRat",
    "Hyperplane",
    "MacaulayRep",
    "NabForm",
    "Poly",
    "Signature",
    "SignedMap",
    "binom",
    "classify_gap",
    "comparison_intervals",
    "dim_prop_bound",
    "dim_prop_bounds",
    "exact_rank",
    "format_map",
    "gap_intervals",
    "image_span_dim",
    "macaulay_rep",
    "null_prolongation",
    "op_lower",
    "op_minus",
    "op_upper",
    "orthogonality_certificate",
    "parse_map",
    "plane_chain",
    "plane_step",
    "restrict",
    "sharpness_map",
    "verify_gap_argument",
    "verify_green",
    "verify_lemma_binom",
    "verify_restriction_theorem",
]

__version__ = "0.1.0"

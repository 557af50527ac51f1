"""Structured inversion of Hermitian PD Toeplitz-block-Toeplitz matrices.

Fast half-table solver built on generalized reflection coefficients, a
dense reference recursion it is verified against, a block-Levinson
baseline, and the closed-form operation-count model comparing the two.
"""

from .core import (
    BandVector,
    DomainError,
    FactorizationMismatch,
    InternalIndexError,
    NotPositiveDefinite,
    NumericalBreakdown,
    OpCounter,
    SingularP,
    TbtGenerator,
    assemble_dense,
    band_to_dense,
    column_accessor,
    column_inner,
    conj_band,
    index_exchange,
    mod_op,
    reverse_support,
    sec_op,
    shift,
    tbt_entry,
    unit_band,
)
from .costmodel import (
    CostReport,
    comparison_table,
    opc_closed_form,
    opc_triple_sum,
    opcwwr,
)
from .fast import CanonicalTables, fetch, fetch_strip, tbt_factorization, \
    tbt_grc
from .instances import gaussian_kernel, generate_pd_tbt, splitmix64
from .oracle import (
    CoeffTables,
    GrcEntry,
    GrcStrip,
    InverseFactor,
    apply_inverse,
    build_factorization,
    grc_full,
    grc_step,
    grc_strip_step,
    inverse_dense,
)
from .wwr import WwrState, wwr_recurse, wwr_residual

__version__ = "0.1.0"

__all__ = [
    "BandVector",
    "CanonicalTables",
    "CoeffTables",
    "CostReport",
    "DomainError",
    "FactorizationMismatch",
    "GrcEntry",
    "GrcStrip",
    "InternalIndexError",
    "InverseFactor",
    "NotPositiveDefinite",
    "NumericalBreakdown",
    "OpCounter",
    "SingularP",
    "TbtGenerator",
    "WwrState",
    "apply_inverse",
    "assemble_dense",
    "band_to_dense",
    "build_factorization",
    "column_accessor",
    "column_inner",
    "comparison_table",
    "conj_band",
    "fetch",
    "fetch_strip",
    "gaussian_kernel",
    "generate_pd_tbt",
    "grc_full",
    "grc_step",
    "grc_strip_step",
    "index_exchange",
    "inverse_dense",
    "mod_op",
    "opc_closed_form",
    "opc_triple_sum",
    "opcwwr",
    "reverse_support",
    "sec_op",
    "shift",
    "splitmix64",
    "tbt_entry",
    "tbt_factorization",
    "tbt_grc",
    "unit_band",
    "wwr_recurse",
    "wwr_residual",
]

"""Two-point Brill-Noether computations with independent verification oracles.

The package computes the adjusted Brill-Noether number and the sharp
two-point nonemptiness inequality, enumerates limit-series strata on
two-component curves, constructs witness chains of elliptic components, and
cross-checks the genus-0/1 base cases against brute-force finite-field
oracles.
"""

from .chains import (
    ChainComponent,
    ChainWitness,
    ConstructionFailed,
    build_chain,
    chain_violations,
    split_once,
    verify_chain,
)
from .core import (
    BNProblem,
    InfeasibleSize,
    RamSeq,
    VanishingSeq,
    all_problems,
    all_ram_seqs,
    criterion_sum,
    from_vanishing,
    nonempty_criterion,
    problem,
    rho,
    to_vanishing,
    zero_ram,
)
from .oracle import (
    EllipticModel,
    FlagProfile,
    NoFit,
    count_series,
    dim_fit,
    ec_g1_nonempty,
    ec_order_diff,
    load_fixture,
    profile_complementary,
    profile_g1,
)
from .realize import (
    DegenerateBasis,
    G0Series,
    LineBundleDescriptor,
    classify_g1_vanishing,
    g0_vanishing_check,
    realize_g0,
    realize_g1,
    richardson_dim,
)
from .strata import (
    Stratum,
    TwoComponentProblem,
    eh_compatible,
    eh_nonempty_two_component,
    enumerate_refined_strata,
    fiber_dim_bound,
    refined_complement,
    stratum_expected_dim,
)

__version__ = "0.1.0"

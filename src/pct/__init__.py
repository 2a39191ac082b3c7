"""Compositional probabilistic assume/guarantee contracts over finite traces.

Components promise guarantees under environment assumptions; attaching a
probability distribution to selected uncontrolled ports turns boolean
satisfaction into an exact rational satisfaction level.  Composition and
refinement come with multiplicative level bounds, which the bundled
verification suites check against an independent brute-force oracle.
"""

from .contracts import (
    Contract,
    canonicalize,
    compose,
    compose_impl,
    contract,
    maximal_implementation,
    refines,
    satisfaction_formulas,
    satisfies,
)
from .errors import (
    CapacityError,
    ComposeError,
    ControlledOverlapError,
    DistributionError,
    DomainMismatchError,
    HorizonMismatchError,
    MarginalMismatchError,
    ParseError,
    PctError,
    PortRoleError,
    ProbPortControlledError,
    ProbPortOverlapError,
    ResolveError,
    RoleConflictError,
    SemanticError,
    SignatureError,
    SpecLangError,
)
from .probabilistic import (
    Distribution,
    ProbContract,
    RefineReport,
    SatReport,
    bernoulli_iid,
    compose_prob,
    from_contract,
    from_table,
    marginal,
    point_mass_empty,
    prob_contract,
    product_dist,
    refine_level,
    rename_prob,
    renamed_dist,
    sat_level,
    uniform,
    wrap,
)
from .speclang import (
    Document,
    build_contract,
    build_impl,
    build_probcontract,
    denote,
    parse,
    parse_expr,
    print_document,
)
from .traces import (
    BOOL,
    Assertion,
    Port,
    Run,
    Signature,
    complement,
    empty,
    enumeration_cap,
    from_runs,
    included_in,
    lift,
    product,
    project,
    renamed,
    run_at,
    run_index,
    runs,
    set_enumeration_cap,
    union,
    universe,
)

__version__ = "0.1.0"

"""Compositional probabilistic assume/guarantee contracts over finite traces.

Components promise guarantees under environment assumptions; attaching a
probability distribution to selected uncontrolled ports turns boolean
satisfaction into an exact rational satisfaction level.  Composition and
refinement come with multiplicative level bounds, which the bundled
verification suites check against an independent brute-force oracle.
"""

from .contracts import (
    Contract,
    compose,
    compose_impl,
    contract,
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
    from_table,
    marginal,
    point_mass_empty,
    product_dist,
    refine_level,
    sat_level,
    uniform,
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
    Signature,
    complement,
    empty,
    from_runs,
    included_in,
    lift,
    product,
    project,
    run_at,
    run_index,
    runs,
    union,
    universe,
)

__version__ = "0.1.0"

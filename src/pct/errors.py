"""Exception hierarchy for the pct library."""


class PctError(Exception):
    """Base class for all library errors."""


class CapacityError(PctError):
    """An enumeration would exceed the configured run-space cap."""


class SignatureError(PctError):
    """Port sets, domains, or horizons of two objects do not line up."""


class DomainMismatchError(SignatureError):
    """A shared port is declared with two different value domains."""


class RoleConflictError(SignatureError):
    """A shared port is controlled on one side and uncontrolled on the other."""


class HorizonMismatchError(SignatureError):
    """Operands were built against different horizons."""


class ComposeError(PctError):
    """A composition precondition is violated."""


class ControlledOverlapError(ComposeError):
    """Both contracts claim control of the same port."""


class ProbPortOverlapError(ComposeError):
    """The probabilistic port sets of two contracts overlap."""


class ProbPortControlledError(ComposeError):
    """A port one contract treats as probabilistic is controlled by its peer."""


class DistributionError(PctError):
    """A probability table is malformed."""


class MarginalMismatchError(DistributionError):
    """A refinement requires one distribution to be the marginal of the other."""


class PortRoleError(PctError):
    """An implementation's controlled/uncontrolled split does not match the contract's."""


class SpecLangError(PctError):
    """A `.pct` document problem, carrying a source location when it has one.

    A name asked for from outside the document (say, on the command line)
    has no location: ``line`` and ``col`` are None then.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ParseError(SpecLangError):
    """Lexical or syntactic error."""


class ResolveError(SpecLangError):
    """A referenced name is not declared."""


class SemanticError(SpecLangError):
    """A declaration or expression is inconsistent (types, domains, horizon)."""

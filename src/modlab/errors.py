"""Exception hierarchy shared by all modlab modules."""


class ModlabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ModlabError):
    """Invalid input: a malformed or out-of-range run configuration, or (the
    subclasses below) an argument a computation refuses where it is defined.
    The command line exits 2 for all of them."""


# --- dense linear algebra ---------------------------------------------------

class NonHermitian(ModlabError):
    """Input matrix violates the Hermitian symmetry tolerance."""


class NonConvergence(ModlabError):
    """Eigensolver exhausted its iteration budget."""


class DomainViolation(ModlabError):
    """Scalar function applied to an eigenvalue outside its domain."""


class DimensionMismatch(ModlabError):
    """Operand shapes are inconsistent."""


# --- modular theory over density matrices -----------------------------------

class RankDeficient(ModlabError):
    """State is not full rank where full rank is required."""


class SingularS(ModlabError):
    """Relative Tomita map is numerically singular."""


class NonUnitary(ModlabError):
    """Matrix violates the unitarity tolerance."""


# --- truncated Fock space ----------------------------------------------------

class TruncationBudgetExceeded(ModlabError):
    """Requested amplitude or sector use exceeds the truncation guard."""


# --- quadrature ---------------------------------------------------------------

class QuadratureBudgetExceeded(ModlabError):
    """Adaptive quadrature hit its panel budget before reaching the target."""


# --- scalar field geometry ----------------------------------------------------

class MassNotZero(ConfigError):
    """Operation is only defined for massless data."""


class GeometryViolation(ConfigError):
    """Region, cutoff and data supports are mutually inconsistent."""


class FlowSingularity(ConfigError):
    """Point flow left the domain of the conformal map."""


class ScheduleViolation(ConfigError):
    """Squeeze schedule violates its monotonicity or parameter constraints."""


# --- cutoff functional ----------------------------------------------------------

class ParameterViolation(ConfigError):
    """Cutoff family parameters outside the admissible range."""


class SingularSystem(ModlabError):
    """Normal equations of the discrete minimizer are singular."""


# --- truncated shift models ------------------------------------------------------

class DimensionTooSmall(ConfigError):
    """Truncated space too small to host the requested branching."""

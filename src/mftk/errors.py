"""Exception types shared across the toolkit."""


class DimensionMismatchError(ValueError):
    """Operands live on Hilbert spaces of incompatible dimension."""


class NonHermitianError(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPositiveSemidefiniteError(ValueError):
    """A matrix required to be PSD has an eigenvalue below tolerance."""


class UnsupportedDimensionError(ValueError):
    """No built-in SIC fiducial exists for the requested dimension."""


class NonQuantumProbabilityError(ValueError):
    """A reference-measurement probability vector admits no valid state."""


class InconsistentPairError(ValueError):
    """A (state probabilities, conditional) pair yields negative predictions."""


class OutcomeCountMismatchError(ValueError):
    """Paired measurements do not have the same number of outcomes."""


class TuningRequiredError(ValueError):
    """Incorporation was attempted without a valid tuning certificate."""


class SolverError(ValueError):
    """A numerical solver returned without success.

    Carries the solver's status code and message, so a numerical failure
    is reported as such instead of being read as a verdict.
    """

    def __init__(self, solver, status, message):
        self.solver = str(solver)
        self.status = status
        self.message = str(message)
        super().__init__(f"{self.solver} failed (status {status}): {self.message}")


class SchemaError(ValueError):
    """A JSON file does not conform to its expected schema.

    Carries the offending path and the first violated requirement.
    """

    def __init__(self, path, message):
        self.path = str(path)
        super().__init__(f"{self.path}: {message}")

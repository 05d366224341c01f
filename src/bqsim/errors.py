"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An operation rejected its input.

    Raised for non-finite samples or coefficients, spectral data whose
    conjugate symmetry is broken beyond tolerance, vorticity with a nonzero
    mean fed to the velocity reconstruction, and out-of-range band indices.
    """


class NonFiniteError(InvalidInputError):
    """Physical samples contain NaN or inf; the time stepper reports a blow-up."""


class ConfigurationError(ValueError):
    """A parameter or configuration file is malformed or out of range.

    Messages name the offending key or argument.
    """


class CheckpointError(ValueError):
    """A checkpoint file is unreadable: bad magic, version, size or values, or truncated."""


class BlowUpError(RuntimeError):
    """The time stepper produced non-finite data or an unphysically large velocity.

    Carries the last finite state so a forensic checkpoint can be written.
    """

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state

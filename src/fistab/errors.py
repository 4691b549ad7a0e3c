"""The exceptions that `fistab` maps to exit codes.

They live here, apart from the modules that raise them, so the command
line can name them without importing the library.  Each stays reachable
under its old path as well (`fi_core.WindowError`,
`splitbases.FeasibilityError`, ...), as the same class.

    ValidationError           2   a consistency identity failed
    WindowError               2   the window is too short for the request
    FitError                  1   the fitted polynomial does not fit
    FeasibilityError          3   a size guard refused the computation
    InternalConsistencyError  4   two routes that must agree did not
"""


class ValidationError(Exception):
    """A consistency identity failed; message names level and identity."""


class WindowError(Exception):
    """Requested computation does not fit in the stored window."""


class FitError(Exception):
    """Stored dimensions do not agree with the fitted polynomial in the
    expected onset range."""


class FeasibilityError(Exception):
    """The requested computation exceeds the configured size guards."""


class InternalConsistencyError(Exception):
    """Two routes that must agree produced different answers."""

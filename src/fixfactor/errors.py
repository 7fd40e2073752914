"""Error types shared across the package.

Every error carries a stable ``code`` string so the CLI can map failures
to exit codes and machine-readable diagnostics.
"""

from __future__ import annotations


class FixfactorError(Exception):
    code = "E_INTERNAL"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class InternalError(FixfactorError):
    """An internal invariant failed: a fault in fixfactor, not in the input.

    Keeps the default code ``E_INTERNAL``.
    """


class UnknownNameError(FixfactorError):
    """Duplicate or unknown point identifier."""

    code = "E_NAME"


class ContinuityError(FixfactorError):
    """Assignment is not monotone; carries a witness pair."""

    code = "E_CONTINUITY"

    def __init__(self, x: str, y: str):
        super().__init__(
            f"map is not continuous: {x} specializes to {y} "
            f"but the images are not related"
        )
        self.witness = (x, y)


class CoverError(FixfactorError):
    """A covering member does not contain its own index point."""

    code = "E_COVER"


class SizeLimitError(FixfactorError):
    """Input exceeds a configured enumeration bound."""

    code = "E_SIZE"


class InvarianceError(FixfactorError):
    """A partition class is not forward-invariant under the map."""

    code = "E_INVARIANCE"


class OrdinalError(FixfactorError):
    """Malformed or out-of-range ordinal literal."""

    code = "E_ORDINAL"


class TermError(FixfactorError):
    """Malformed ladder term."""

    code = "E_TERM"


class DepthError(FixfactorError):
    """Ladder term nests deeper than the configured cap."""

    code = "E_DEPTH"


class LocatorError(FixfactorError):
    """Locator does not name a point of the ladder space."""

    code = "E_LOCATOR"


class DegreeCapError(FixfactorError):
    """Trace did not become stationary by the requested degree."""

    code = "E_DEGREE_CAP"


class FormatError(FixfactorError):
    """Malformed input file; carries field diagnostics in the message."""

    code = "E_FORMAT"

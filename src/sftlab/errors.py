"""Exception types shared across the library."""


class SftlabError(Exception):
    pass


class DomainError(SftlabError, ValueError):
    """An argument is outside the operation's domain."""


class DegenerateGeometryError(DomainError):
    """Geometry parameters too small for the construction (e.g. k <= 2n)."""


class ResourceBudgetError(SftlabError, RuntimeError):
    """An enumeration or state-space budget would be exceeded."""


class PreconditionError(SftlabError, ValueError):
    """A stated precondition fails; carries a witness where available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CertificateError(SftlabError):
    """A result failed the independent check that certifies it."""

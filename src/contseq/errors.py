"""Exception types shared across the package."""


class ContseqError(Exception):
    """Base class for all package-specific errors."""


class TableFormatError(ContseqError):
    """A continent or alias table row is structurally malformed."""


class TableValidationError(ContseqError):
    """A table row carries an unknown continent name or an inconsistent alias."""


class SequenceFormatError(ContseqError):
    """A rendered continent sequence cannot be parsed back."""


class ContractViolationError(ContseqError):
    """A record with a missing or unresolvable country reached mapping.
    :func:`contseq.ingest.classify` turns it into COUNTRY_UNIDENTIFIABLE."""


class UnknownAuthorError(ContseqError):
    """An author id is not present in the publication store."""


class UnknownPublicationError(ContseqError):
    """A publication id is not present in the publication store."""


class EmptyInputError(ContseqError):
    """An operation that needs at least one record received none."""


class InsufficientDataError(ContseqError):
    """Too few usable points remain for a fit."""

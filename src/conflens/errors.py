"""Exception hierarchy. Exit codes: 1 usage, 2 data/validation, 3 I/O or
out of memory."""


class ConflensError(Exception):
    exit_code = 2


class UsageError(ConflensError):
    exit_code = 1


class DataError(ConflensError):
    """Invalid values, shapes, or contents."""


class SegtFormatError(DataError):
    """Malformed SEGT tensor file."""


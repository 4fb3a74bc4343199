"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError (and
subclasses) -> 3, anything else -> 4.
"""


class ColorbasisError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ColorbasisError):
    """Invalid or incomplete pipeline configuration."""


class DataError(ColorbasisError):
    """Input data violates a documented contract."""


class EmptyLexiconError(DataError):
    """A lexicon file yielded zero valid rows."""


class DependencyError(DataError):
    """A stage was invoked before its upstream artifacts exist."""


class UndefinedGammaError(ColorbasisError):
    """Every index pair is tied, so the rank association is undefined."""


class StageError(ColorbasisError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause

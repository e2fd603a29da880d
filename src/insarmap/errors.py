"""Exception hierarchy shared by the whole pipeline.

The CLI maps these onto exit codes: ConfigError -> 2, DataFormatError -> 3,
DomainError -> 4.
"""


class InsarError(Exception):
    """Base class for all insarmap errors."""


class ConfigError(InsarError):
    """Invalid configuration value or unparseable config/scene/trajectory text."""


class DataFormatError(InsarError):
    """Corrupt or inconsistent binary artifact (bad magic, truncation, mismatch)."""


class DomainError(InsarError):
    """Numerical-domain failure (out-of-range query, degenerate input, ...)."""

"""Exception types shared across the package."""


class RankOneError(Exception):
    """Base class for all package-specific failures."""


class DepthTooShallow(RankOneError):
    """A tower of depth K cannot resolve the requested shift or orbit range.

    Callers should rebuild with a larger K.
    """


class OdometerCase(RankOneError):
    """Operation undefined for odometer-like parameters (the rational
    eigenvalue group is infinite, no finite order d exists)."""


class NotBounded(RankOneError):
    """Construction parameters exceed the supplied bound on the horizon."""


class ConsistencyFailure(RankOneError):
    """An order d does not fit the data it is applied to: a column offset
    that restacks the cyclic factor's levels is not divisible by d, or an
    orbit value f(T^i x) that the telescoping identity needs to vanish is
    nonzero at a time i not divisible by d."""


class StageUnavailable(RankOneError):
    """An explicit stage list was exhausted before the requested stage."""


class ConfigError(RankOneError):
    """Malformed run configuration (CLI exit code 2)."""

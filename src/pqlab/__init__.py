"""pqlab: conditional diffusion path generation, exotic pricing, and a
trader vs market-maker quoting game, in plain numpy."""

from .errors import ConfigError, DataError, NumericError, PQLabError

__all__ = ["ConfigError", "DataError", "NumericError", "PQLabError"]
__version__ = "0.1.0"

"""Exception hierarchy shared across the package."""


class QmetricError(Exception):
    """Base class for all qmetric errors."""


class GroupError(QmetricError):
    """Malformed group data: bad Cayley table, wrong element shape, bad generators."""


class BallRadiusError(QmetricError):
    """An element was queried outside the enumerated ball."""


class ResourceError(QmetricError):
    """A configured size cap (ball elements, Gram dimension) was exceeded."""


class StateError(QmetricError):
    """Invalid state data: non-unit character, non-normalized vector, zero density generator."""


class ConfigError(QmetricError):
    """Invalid experiment configuration or JSON specification."""


def check_fields(spec: dict, allowed: frozenset, where: str) -> None:
    """Refuse a JSON object with a field outside allowed, so a misspelt field is not ignored."""
    unknown = sorted(str(key) for key in spec.keys() - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown field {unknown[0]!r}; "
                          f"expected one of {', '.join(sorted(allowed))}")

"""Exception types shared across the package, and the size check that
raises one."""


class ClusterBoundsError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(ClusterBoundsError, ValueError):
    """Bad input: dimension mismatch, malformed file, invalid parameter."""


class CommutativityError(ValidationError):
    """A pair of stabilizer generators anticommutes."""

    def __init__(self, i: int, j: int):
        super().__init__(f"generator rows {i} and {j} anticommute")
        self.rows = (i, j)


class ResourceCapError(ClusterBoundsError):
    """A configured memory or work budget would be exceeded."""


def check_at_least_one(**sizes: int | None) -> None:
    """Refuse any given size below 1 with ValidationError."""
    for name, value in sizes.items():
        if value is not None and value < 1:
            raise ValidationError(f"{name} must be at least 1, got {value}")

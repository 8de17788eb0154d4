"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for simulator errors."""


class ConfigError(SimError):
    """Invalid or conflicting configuration."""


class BoundaryError(SimError):
    """A shift would push track contents past a physical track end."""


class PortRangeError(SimError):
    """Port index outside the track's port set."""


class DoubleInjectError(SimError):
    """Inject issued on a cell that already holds a skyrmion."""


class CapacityError(SimError):
    """Track pool, group, or node capacity exhausted."""


class ArenaFullError(SimError):
    """No free slot left in the value arena."""


class StructureError(SimError):
    """Tree structural corruption detected by an audit."""

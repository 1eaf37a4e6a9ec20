"""Exception types, and the base of the immutable value classes, shared
across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain (bad curve type, bad lambda, ...)."""


class MalformedPartitionError(DomainError):
    """Partition parts overlap or fail to cover the index set."""


class NotFreeSubgroupError(DomainError):
    """A subgroup required to act freely has an element with fixed points.

    The offending element is kept in ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceLimitError(RuntimeError):
    """An enumeration exceeded its configured work budget."""


class VerificationError(RuntimeError):
    """A numeric verification check failed."""


class Frozen:
    """Base of the immutable value classes (curve types, group elements,
    subgroups, Moebius maps, models, curves): assignment and deletion raise
    AttributeError.  A subclass lists its fields in ``__slots__`` in the
    order its constructor takes them, sets each once in ``__init__`` through
    ``object.__setattr__``, and writes its own ``==``, hash and repr; an
    ordered one writes ``<`` and ``<=``, to which Python reflects ``>`` and
    ``>=``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which sets the
        # slots that __setattr__ refuses
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

"""Exception types, and the bases of the value classes, shared across the
package."""

from operator import attrgetter

_set = object.__setattr__  # sets the slots that Frozen.__setattr__ refuses


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
    """Base of the value classes (curve types, group elements, subgroups,
    Moebius maps, models, curves, fiber points and reports): ``==``, hash
    and repr are those of the fields named in ``_compared``, which defaults
    to the class's ``__slots__``, and a value equals only a value of its own
    class.  Assignment and deletion raise AttributeError.

    A subclass lists its fields in ``__slots__`` in the order its
    constructor takes them, and sets each once in ``__init__`` through
    ``_set``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "_compared" not in vars(cls):
            cls._compared = cls.__slots__
        if cls._compared:
            cls._fields = attrgetter(*cls._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._compared, self._fields(self)))
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which sets the
        # slots that __setattr__ refuses
        return type(self), tuple(map(self.__getattribute__, self.__slots__))


class Ordered(Frozen):
    """A frozen value ordered as the tuple of its compared fields; Python
    reflects ``<`` and ``<=`` to ``>`` and ``>=``."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) < self._fields(other)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) <= self._fields(other)
        return NotImplemented

"""Plain record classes: the fields are the names in ``_fields``, which
is ``__slots__`` unless a record stores its fields in another form.

Each record writes its own ``__init__``, taking its fields in order as
ordinary parameters with defaults, so nothing is generated at import.
It inherits field-wise ``==`` within one type, a ``repr`` listing the
fields, and pickling and copying by positional construction.
``Record`` is mutable and unhashable.  ``FrozenRecord`` refuses
assignment and hashes the tuple of its field values, so a frozen record
holding a mapping is unhashable like the mapping; its ``__init__``
stores fields with ``set_field``, a mapping as a read-only
``MappingProxyType`` view, which pickles and copies as a plain dict.
"""

from types import MappingProxyType

set_field = object.__setattr__


class Record:
    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        values = (dict(v) if type(v) is MappingProxyType else v for v in self._values())
        return self.__class__, tuple(values)

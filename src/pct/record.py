"""The base of pct's immutable records.

A record names its fields in ``__slots__`` and sets them in its own
``__init__``, one by one with ``setfield`` or all at once with
``_assign``; assigning to a field afterwards raises ``AttributeError``.
The public fields (slots not starting with ``_``, base class first) are
the record's ``_fields``, unless its class body lists them itself.  The
base gives every record a ``repr`` of those fields and, where the record
does not define its own, equality and a hash over them, leaving out
``loc`` (a node's source location).  The records built in hot loops
define their own ``__init__``, ``__eq__`` and ``__hash__``: the generic
ones are several times slower.  ``_assign`` sets each field through its
slot's own descriptor (``_setters``), and so do the ``__init__``s of the
records a parse builds: that skips ``object.__setattr__``'s checks.
"""

setfield = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()
    _setters = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            own = cls.__dict__.get("__slots__", ())
            cls._fields = cls._fields + tuple(n for n in own if not n.startswith("_"))
        # a slot's own descriptor sets it faster than setfield does
        cls._setters = tuple(getattr(cls, n).__set__ for n in cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _assign(self, *values) -> None:
        """Set the fields to ``values``, in ``_fields`` order: the ``__init__``
        of a record that is not built in a hot loop."""
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields if n != "loc")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

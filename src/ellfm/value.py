"""``Value``, the base class of the package's immutable value types.

A subclass lists its fields in ``__slots__`` in ``__init__`` order (a
``"__dict__"`` slot holds ``cached_property`` values and is no field).
``Value`` adds ``==`` and ``hash`` over the fields (or ``compare=``), their
repr, frozen attributes, and pickling and copying by re-construction.
"""


class Value:
    __slots__ = ()

    def __init_subclass__(cls, compare: tuple[str, ...] = ()) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # Plain attribute reads: closures over operator.attrgetter are 1.25-1.6x slower.
        own = "".join(f"self.{name}, " for name in compare or cls._fields)
        cls.__eq__, cls.__hash__ = eval(
            f"lambda self, other: ({own}) == ({own.replace('self.', 'other.')}) "
            f"if other.__class__ is self.__class__ else NotImplemented, lambda self: hash(({own}))"
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

"""``Value``, the base class of the package's immutable value types.

A subclass's ``__slots__`` is its signature: ``Value`` generates the
constructor, which takes the fields in slot order (a ``"__dict__"`` slot
holds ``derived`` values and is no field), with trailing defaults
from the ``defaults=`` class keyword, stores them, and then calls
``__post_init__``, where the checks and any normalisation live, if the class
has one.  A subclass that writes its own ``__init__`` is refused with
``TypeError`` when the class is created.  ``Value`` adds ``==`` and ``hash``
over the fields (or ``compare=``), their repr, frozen attributes, and
pickling and copying by re-construction.

``derived`` caches a derivation in the instance ``__dict__``, outside the
fields; unlike ``functools.cached_property`` on CPython 3.11 it takes no lock.
"""


class derived:
    """A method read as an attribute: the first read stores its result in the
    instance ``__dict__``, which then shadows this non-data descriptor; a read
    that raises stores nothing."""

    def __init__(self, func) -> None:
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Value:
    __slots__ = ()

    def __init_subclass__(cls, compare: tuple[str, ...] = (), defaults: tuple = ()) -> None:
        if "__init__" in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} defines __init__: a Value builds from its __slots__")
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # Plain attribute reads: closures over operator.attrgetter are 1.25-1.6x slower.
        own = "".join(f"self.{name}, " for name in compare or cls._fields)
        cls.__eq__, cls.__hash__ = eval(
            f"lambda self, other: ({own}) == ({own.replace('self.', 'other.')}) "
            f"if other.__class__ is self.__class__ else NotImplemented, lambda self: hash(({own}))"
        )
        # The hook is looked up on the instance, so a __post_init__ patched later still runs.
        body = "".join(f"_set(self, {name!r}, {name}); " for name in cls._fields)
        post = "self.__post_init__()" if hasattr(cls, "__post_init__") else "None"
        scope = {"_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(cls._fields)}): {body}{post}", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__defaults__, cls.__init__.__qualname__ = defaults, f"{cls.__qualname__}.__init__"

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

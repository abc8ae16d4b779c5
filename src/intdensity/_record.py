"""The base of the immutable records: a frozen dataclass's behaviour without `dataclasses`."""


class _Record:
    """An immutable value whose fields are the parameters of its `__init__`.

    A subclass's `__init__` checks its arguments and passes them, in order,
    to `_freeze`.  Records of one class with equal fields are equal, and a
    record hashes as the tuple of its fields.  Assigning or deleting an
    attribute raises `AttributeError`; a `functools.cached_property` caches.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]

    def _freeze(self, *values) -> None:
        self.__dict__.update(zip(self.__match_args__, values))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __repr__(self) -> str:
        pairs = map("{}={!r}".format, self.__match_args__, self._values())
        return f"{type(self).__qualname__}({', '.join(pairs)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

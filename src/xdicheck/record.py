"""Immutable value records, without code generated at import.

A record class names its fields with class annotations, as a dataclass
does; a class attribute of a field's name is that field's default.
Records of one type are equal when their fields are, hash as the tuple
of their fields, print as ``Name(field=value, ...)`` and refuse
assignment. Instances keep a ``__dict__``, so ``functools.cached_property``
works on them. ``@dataclass(frozen=True)`` gives the same behaviour but
writes and compiles these methods for every class, which made up a third
of the package's import time.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]

_set = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*fields)  # a bare value, not a tuple, for one field
        cls._values = (lambda self: (get(self),)) if len(fields) == 1 else (lambda self: get(self))

    def __init__(self, *args, **kwargs) -> None:
        # Fields are set one by one, not through __dict__: an instance
        # whose __dict__ was never asked for keeps its values inline,
        # and reading them is then about twice as fast.
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            for name, value in zip(fields, args):
                _set(self, name, value)
            return
        values = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in type(self).__dict__:
                values[name] = type(self).__dict__[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing field {name!r}")
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
        for name in fields:
            _set(self, name, values[name])

    def _values(self) -> tuple:  # each subclass gets its own
        """The fields' values, in order."""

        return ()

    def _replace(self, **changes) -> Record:
        """A copy with the given fields changed."""

        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

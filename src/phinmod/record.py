"""Frozen value classes without code generation.

``@frozen`` turns a class whose body annotates its fields into an immutable
record, as ``@dataclass(frozen=True)`` does, but it installs plain closures
instead of compiling generated source.  Importing the standard dataclass
module (which pulls in ``inspect``, ``ast`` and ``dis``) and compiling a few
methods per class cost about 23 ms, a large share of every cold
command-line spawn.

Fields are the names in the class's own ``__annotations__``, in order; a
class attribute of the same name is its default.  What gets installed:

* ``__init__`` taking the fields positionally or by keyword, filling in
  defaults and then calling ``__post_init__`` when the class defines one
  (skipped with ``init=False``);
* ``__setattr__`` and ``__delattr__`` raising ``AttributeError``; a class
  that caches derived values on itself writes them with
  ``object.__setattr__``;
* ``__repr__`` as ``Name(field=value, ...)``;
* with ``eq=True`` only, ``__eq__`` and ``__hash__`` over the field tuple,
  equal only to instances of the very same class.

A method the class body defines itself is never replaced.  A body that
defines ``__eq__`` gets Python's implicit ``__hash__ = None`` and keeps it;
with ``eq=False`` equality and hashing stay by identity.
"""
from __future__ import annotations

import operator


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__qualname__}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__qualname__}")


def frozen(cls=None, *, eq: bool = True, init: bool = True):
    """Class decorator: ``@frozen`` or ``@frozen(eq=False, init=False)``."""
    if cls is None:
        return lambda c: _make_frozen(c, eq, init)
    return _make_frozen(cls, eq, init)


def _make_frozen(cls, eq: bool, init: bool):
    body = cls.__dict__
    names = tuple(body.get("__annotations__", {}))
    defaults = {name: body[name] for name in names if name in body}
    count = len(names)
    qualname = cls.__qualname__
    post_init = "__post_init__" in body

    def bind(args, kwargs):
        # the slow path: keywords, defaults, and the errors a call can make
        if len(args) > count:
            raise TypeError(f"{qualname}() takes {count} field arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{qualname}() missing field argument {name!r}")
        for name in kwargs:
            if name in names:
                raise TypeError(f"{qualname}() got multiple values for field {name!r}")
            raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        # per attribute, not through self.__dict__: materializing the dict
        # would make every later field read take the slower dict lookup
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({inner})"

    installed = {"__setattr__": _setattr, "__delattr__": _delattr, "__repr__": __repr__}
    if init:
        installed["__init__"] = __init__
    if eq:
        key = operator.attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return key(self) == key(other)

        def __hash__(self):
            return hash(key(self))

        installed["__eq__"] = __eq__
        installed["__hash__"] = __hash__
    for attr, fn in installed.items():
        if attr not in body:
            setattr(cls, attr, fn)
    return cls

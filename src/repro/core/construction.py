"""One construction path for the frozen slotted value classes.

``@dataclass(frozen=True, slots=True)`` generates an ``__init__`` that
stores each field with ``object.__setattr__(self, name, value)``, since
the class's own ``__setattr__`` refuses: a lookup of the name on the
type, per field, per construction.  The value classes the hot paths
build by the ten thousand (:class:`~repro.detect.engine.Match`, the
event instances, the physical observation, its time point and
location) take :func:`slot_init` instead: an ``__init__`` that stores
each field through its slot's member descriptor, bound once when the
class is made, then calls ``self.__post_init__()`` as the generated one
does.  ``timeit`` on a 2-core machine, the two ``__init__``s alternating
on one class in one process (best of 12): a ``Match`` 700 -> 438 ns, a
cyber-physical instance 2 230 -> 1 560 ns, an observation
1 550 -> 1 154 ns, a ``PointLocation`` 458 -> 331 ns and a ``TimePoint``
334 -> 272 ns.

Everything else is the dataclass's own: the parameters are the
generated ``__init__``'s names, defaults and annotations (so
``inspect.signature``, keyword calls and :func:`dataclasses.replace`
see no difference), a ``default_factory`` runs when its argument is
left out, ``__setattr__`` still refuses, and every check is the
class's ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
from types import MemberDescriptorType

__all__ = ["slot_init"]


def slot_init(cls: type) -> type:
    """Give a frozen ``slots=True`` dataclass an ``__init__`` that stores
    each field through its slot descriptor; returns ``cls``.

    Apply it above the ``@dataclass`` line, once per class: a subclass's
    generated ``__init__`` carries the subclass's own defaults, so it
    needs its own.  Raises ``TypeError`` for a class the rewrite does not
    cover (not frozen, not slotted, a keyword-only or ``InitVar``
    parameter, or an ``init=False`` field with a default).
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen or "__slots__" not in cls.__dict__:
        raise TypeError(f"{cls.__name__} is not a frozen slots=True dataclass")
    generated = cls.__init__
    code = generated.__code__
    names = code.co_varnames[1:code.co_argcount]
    fields = {f.name: f for f in dataclasses.fields(cls)}
    if code.co_kwonlyargcount or list(names) != [
        f.name for f in fields.values() if f.init
    ]:
        raise TypeError(f"{cls.__name__}'s __init__ is not one parameter per field")
    missing = dataclasses.MISSING
    if any(
        not f.init
        and (f.default is not missing or f.default_factory is not missing)
        for f in fields.values()
    ):
        raise TypeError(f"{cls.__name__} has an init=False field with a default")
    defaults = generated.__defaults__ or ()
    default_of = dict(zip(names[len(names) - len(defaults):], defaults))
    namespace: dict[str, object] = {}
    lines = []
    for name in names:
        descriptor = next(k.__dict__[name] for k in cls.__mro__ if name in k.__dict__)
        if type(descriptor) is not MemberDescriptorType:
            raise TypeError(f"{cls.__name__}.{name} is not a slot")
        namespace[f"_set_{name}"] = descriptor.__set__
        value = name
        factory = fields[name].default_factory
        if factory is not missing:
            # The generated __init__'s own "<factory>" default stands for
            # "left out".
            namespace[f"_factory_{name}"] = factory
            namespace[f"_left_out_{name}"] = default_of[name]
            value = f"_factory_{name}() if {name} is _left_out_{name} else {name}"
        lines.append(f"    _set_{name}(self, {value})")
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    body = "\n".join(lines or ["    pass"])
    source = f"def __init__(self, {', '.join(names)}):\n{body}\n"
    exec(compile(source, f"<slot_init {cls.__qualname__}>", "exec"), namespace)
    init = namespace["__init__"]
    init.__defaults__ = generated.__defaults__
    init.__annotations__ = dict(generated.__annotations__)
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__doc__ = generated.__doc__
    cls.__init__ = init
    return cls

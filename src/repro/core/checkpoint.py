"""Snapshot records and the one check every restore runs.

Every restorable part (the stream stages, the engines, the streaming
runtime, the replay observer) writes its state as a frozen dataclass
whose fields declare the :class:`Domain` of values a run can leave
there: ``count: int = declared(COUNT)``.  :func:`check` is the one
answer to "is this a valid snapshot", and its refusal names the record
and the field.  A :data:`CONFIG` field must equal the restoring part's
own setting of that name.  What relates two fields stays with the part,
in its ``ensure_restorable``, and :class:`Restorable` gives each part
the ``restore`` that installs only once that has passed.
"""

from __future__ import annotations

import reprlib
from dataclasses import field, fields
from numbers import Real
from typing import Callable, Mapping, NamedTuple

from repro.core.errors import ObserverError

__all__ = [
    "Domain",
    "Restorable",
    "declared",
    "check",
    "is_count",
    "COUNT",
    "TICK",
    "TICK_OR_NONE",
    "NAME",
    "NUMBER",
    "REAL",
    "CONFIG",
    "instance_of",
    "tuple_of",
    "shaped",
    "by_name",
    "counters",
]


def _is_int(value: object) -> bool:
    """An ``int`` itself: a bool or another ``int`` subclass is not one."""
    return type(value) is int


def is_count(value: object) -> bool:
    """Whether ``value`` is an int (see :func:`_is_int`) >= 0."""
    return _is_int(value) and value >= 0


class Domain(NamedTuple):
    """The values a snapshot field may hold, named for refusals."""

    text: str
    test: Callable[[object], bool]


def declared(domain: Domain, **options: object):
    """A record field (``options`` as for :func:`dataclasses.field`)
    whose values :func:`check` holds to ``domain``."""
    return field(metadata={"domain": domain}, **options)


COUNT = Domain("a count", is_count)
TICK = Domain("a tick", _is_int)
TICK_OR_NONE = Domain("a tick or None", lambda v: v is None or _is_int(v))
NAME = Domain("a name", lambda v: type(v) is str)
REAL = Domain(
    "a real number",
    lambda v: isinstance(v, Real) and not isinstance(v, bool),
)
NUMBER = Domain("an int or float", lambda v: type(v) in (int, float))
"""A value a run computes (bucket tokens, a histogram total): exactly an
``int`` or a ``float``, where a setting may be any :data:`REAL`."""
CONFIG = Domain("the part's setting", lambda v: True)


def instance_of(kind: type) -> Domain:
    return Domain(f"a {kind.__name__}", lambda v: isinstance(v, kind))


def tuple_of(item: Domain) -> Domain:
    test = item.test
    return Domain(
        f"a tuple, each item {item.text}",
        lambda v: type(v) is tuple and all(map(test, v)),
    )


def shaped(*parts: Domain, text: str | None = None) -> Domain:
    """A tuple of ``len(parts)`` items, each in its own part."""
    tests = [part.test for part in parts]
    return Domain(
        text or f"({', '.join(part.text for part in parts)})",
        lambda v: type(v) is tuple
        and len(v) == len(tests)
        and all(test(item) for test, item in zip(tests, v)),
    )


def by_name(value: Domain) -> Domain:
    """A mapping from names (sources, specs, roles) to ``value``."""
    test = value.test
    return Domain(
        f"a map from name to {value.text}",
        lambda v: isinstance(v, Mapping)
        and all(NAME.test(k) and test(x) for k, x in v.items()),
    )


def counters(kind: type) -> Domain:
    """A ``kind`` dataclass whose every field is a count."""
    names = [spec.name for spec in fields(kind)]
    return Domain(
        f"a {kind.__name__} of counts",
        lambda v: type(v) is kind
        and all(is_count(getattr(v, name)) for name in names),
    )


_SHORT = reprlib.Repr()
_SHORT.maxstring = _SHORT.maxother = 80


def check(record: object, kind: type, **config: object) -> None:
    """Raise :class:`ObserverError`, naming the record and the field,
    unless ``record`` is a ``kind`` whose every field lies in its declared
    domain; a :data:`CONFIG` field must equal ``config[its name]``."""
    name = kind.__name__
    if type(record) is not kind:
        raise ObserverError(f"not a {name}: {_SHORT.repr(record)}")
    for spec in fields(kind):
        domain, value = spec.metadata["domain"], getattr(record, spec.name)
        if domain is CONFIG:
            mine = config[spec.name]
            if type(value) is not type(mine) or value != mine:
                raise ObserverError(
                    f"{name}.{spec.name} is {value!r}, this part's is "
                    f"{mine!r}: a checkpoint restores only into a part "
                    f"configured the same"
                )
        elif not domain.test(value):
            raise ObserverError(
                f"{name}.{spec.name} is not {domain.text}: "
                f"{_SHORT.repr(value)}"
            )


class Restorable:
    """A part with ``ensure_restorable(snapshot)``, raising
    :class:`ObserverError` on a refusal, and ``install(snapshot)``."""

    __slots__ = ()

    def restore(self, snapshot: object) -> None:
        """Install ``snapshot`` once ``ensure_restorable`` passes."""
        self.ensure_restorable(snapshot)
        self.install(snapshot)

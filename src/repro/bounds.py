"""One bounds rule for every numeric input.

A config field declares its range with its default, and
``__post_init__`` checks every such field with one call::

    @dataclass
    class EdgeTopologyConfig:
        lan_ms: float = bounded(8.0, 0)            # [0, inf)
        regions: Optional[int] = bounded(None, 1)  # None or [1, inf)

        def __post_init__(self) -> None:
            check_bounds(self)

A constructor argument is checked in place with :func:`require`.  Both
refuse a value outside its interval with one message,
``"<name> must be in <interval>, got <value>"``, e.g.
``"lan_ms must be in [0, inf), got nan"``.  Each bound is a comparison
that NaN fails.  Ends are closed unless marked open, except that an
infinite upper end is open unless ``hi_open=False`` lets infinity in
(the basic protocol's infinite lease).  ``None`` passes only for a
field annotated ``Optional``.  Checks that relate two fields stay as
code beside the call.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any, Optional, Tuple

__all__ = ["bounded", "bounded_fields", "check_bounds", "require"]

inf = math.inf


def bounded(default: Any, lo: float, hi: float = inf, *, lo_open: bool = False,
            hi_open: Optional[bool] = None) -> Any:
    """A dataclass field with *default* whose value must lie between *lo*
    and *hi* (see the module docstring for the open and closed ends)."""
    if hi_open is None:
        hi_open = hi == inf
    return dataclasses.field(
        default=default, metadata={"bounds": (lo, hi, lo_open, hi_open)}
    )


def require(name: str, value: Any, lo: float, hi: float = inf, *,
            lo_open: bool = False, hi_open: Optional[bool] = None) -> None:
    """Raise ``ValueError`` naming *name* unless *value* lies between
    *lo* and *hi* (ends as in :func:`bounded`)."""
    if hi_open is None:
        hi_open = hi == inf
    try:
        inside = ((lo < value if lo_open else lo <= value)
                  and (value < hi if hi_open else value <= hi))
    except TypeError:  # None or a string where a number belongs
        inside = False
    if not inside:
        raise ValueError(
            f"{name} must be in {'(' if lo_open else '['}{lo:g}, {hi:g}"
            f"{')' if hi_open else ']'}, got {value!r}"
        )


@functools.cache
def bounded_fields(cls: type) -> Tuple[Tuple[Any, ...], ...]:
    """``(name, optional, lo, hi, lo_open, hi_open)`` for each
    :func:`bounded` field of the dataclass *cls*, computed once per class;
    *optional* is true when the field is annotated ``Optional``."""
    return tuple(
        (f.name, "Optional[" in str(f.type), *f.metadata["bounds"])
        for f in dataclasses.fields(cls) if "bounds" in f.metadata
    )


def check_bounds(obj: Any) -> None:
    """Check every :func:`bounded` field of the dataclass instance *obj*."""
    for name, optional, lo, hi, lo_open, hi_open in bounded_fields(type(obj)):
        value = getattr(obj, name)
        if value is not None or not optional:
            require(name, value, lo, hi, lo_open=lo_open, hi_open=hi_open)

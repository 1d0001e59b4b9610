"""Declarative, serializable quorum-system specifications.

A :class:`QuorumSpec` names a quorum *shape* without binding it to a
node set: ``majority:r=2,w=4``, ``grid:3x3``, ``rowa``, ``single``,
``weighted:votes=3-1-1,r=3,w=2``.  Calling :meth:`QuorumSpec.build`
with the node ids instantiates the matching concrete
:class:`~repro.quorum.system.QuorumSystem`.  This is the single
construction path for every quorum system in the repo: cluster
builders, the scenario/CLI layer, and the ``repro tune`` autotuner all
talk specs, so a shape chosen by the tuner can be replayed verbatim in
any runner.

Specs round-trip through their string form::

    QuorumSpec.parse(str(spec)) == spec

String grammar (``kind[:param,(param...)]``):

===========  ==========================================  ==============
kind         parameters                                  example
===========  ==========================================  ==============
majority     ``r=<int>`` / ``w=<int>`` (default: simple  ``majority:r=2,w=4``
             majorities)
grid         ``<rows>x<cols>`` (default: near-square     ``grid:3x3``
             ragged grid for the node count)
rowa         none                                        ``rowa``
single       none (first node is the quorum)             ``single``
weighted     ``votes=<v1>-<v2>-...`` (positional, one    ``weighted:votes=3-1-1,r=3,w=2``
             per node), ``r=<int>`` / ``w=<int>``
             thresholds
===========  ==========================================  ==============

Shape constraints that do not need a node count (integer parameters,
vote positivity, threshold intersection) are validated at construction;
the rest (``r + w > n``, grid dimensions vs node count, vote count vs
node count) by :meth:`build`, which is the only code that knows the
shapes: each kind is a pair of :mod:`~repro.quorum.system` expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..bounds import require
from .system import QuorumSystem, all_of, any_of, choose, node

__all__ = [
    "QuorumSpec",
    "SpecLike",
    "DEFAULT_IQS_SPEC",
    "DEFAULT_OQS_SPEC",
    "default_grid_shape",
]

_KINDS = ("majority", "grid", "rowa", "single", "weighted")

#: anything :meth:`QuorumSpec.parse` accepts
SpecLike = Union["QuorumSpec", str]


def default_grid_shape(n: int) -> Tuple[int, int]:
    """The near-square (possibly ragged) ``rows x cols`` layout for *n*
    nodes: ``rows = isqrt(n)``, ``cols = ceil(n / rows)`` — no
    degenerate ``1 x n`` strips for prime sizes."""
    rows = max(1, math.isqrt(n))
    return rows, math.ceil(n / rows)


@dataclass(frozen=True)
class QuorumSpec:
    """A declarative quorum shape (frozen, hashable, picklable).

    Only the fields relevant to ``kind`` may be set; the rest must stay
    ``None`` (enforced at construction, so equality and hashing are
    canonical).
    """

    kind: str = "majority"
    #: majority: explicit read/write quorum sizes (None = simple majority)
    read_size: Optional[int] = None
    write_size: Optional[int] = None
    #: grid: explicit layout (None/None = near-square ragged grid)
    rows: Optional[int] = None
    cols: Optional[int] = None
    #: weighted: per-node vote counts, positional over the build node list
    votes: Optional[Tuple[int, ...]] = None
    read_threshold: Optional[int] = None
    write_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown quorum kind {self.kind!r}; choose from {_KINDS}"
            )
        if self.votes is not None:
            object.__setattr__(self, "votes", tuple(self.votes))
        allowed = {
            "majority": ("read_size", "write_size"),
            "grid": ("rows", "cols"),
            "rowa": (),
            "single": (),
            "weighted": ("votes", "read_threshold", "write_threshold"),
        }[self.kind]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "kind" or value is None:
                continue
            if f.name not in allowed:
                raise ValueError(
                    f"{f.name} does not apply to kind={self.kind!r}"
                )
            # JSON numbers may be floats or booleans: neither is a size
            if not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in (value if f.name == "votes" else (value,))):
                raise ValueError(f"{f.name} takes integers, got {value!r}")
        if self.kind == "majority":
            for name in ("read_size", "write_size"):
                if getattr(self, name) is not None:
                    require(name, getattr(self, name), 1)
        elif self.kind == "grid":
            if (self.rows is None) != (self.cols is None):
                raise ValueError(
                    "grid needs both rows and cols (or neither, for the "
                    "near-square default)"
                )
            if self.rows is not None:
                require("rows", self.rows, 1)
                require("cols", self.cols, 1)
        elif self.kind == "weighted":
            if not self.votes:
                raise ValueError("weighted spec needs a non-empty votes tuple")
            for v in self.votes:
                require("votes", v, 1)
            if self.read_threshold is None or self.write_threshold is None:
                raise ValueError("weighted spec needs r=/w= vote thresholds")
            total = sum(self.votes)
            for name in ("read_threshold", "write_threshold"):
                require(name, getattr(self, name), 1, total)
            if self.read_threshold + self.write_threshold <= total:
                raise ValueError(
                    "read_threshold + write_threshold must exceed total votes "
                    f"({self.read_threshold} + {self.write_threshold} <= {total})"
                )

    # -- construction --------------------------------------------------------

    def build(self, nodes: Sequence[str]) -> QuorumSystem:
        """The quorum system of this shape over *nodes*.

        Node-count-dependent constraints (``r + w > n``, grid dims vs
        node count, vote count vs node count) are checked here.
        """
        nodes = list(nodes)
        n = len(nodes)
        if not nodes:
            raise ValueError("cannot build a quorum system over zero nodes")
        if self.kind == "majority":
            # any r nodes read, any w write
            r = n // 2 + 1 if self.read_size is None else self.read_size
            w = n // 2 + 1 if self.write_size is None else self.write_size
            if not (r <= n and w <= n and r + w > n):
                raise ValueError(
                    f"majority r={r}, w={w} over {n} nodes: sizes must be at "
                    f"most n and r + w must exceed n for intersection"
                )
            return QuorumSystem(nodes, choose(r, nodes), choose(w, nodes))
        if self.kind == "grid":
            # Cheung et al.: read one node per column; write one full
            # column plus one node from every other column (a write's
            # full column meets every read, and every other write's cover)
            columns, start = [], 0
            for height in self.column_heights(n):
                columns.append(nodes[start:start + height])
                start += height
            write = any_of(
                all_of([all_of(full)] + [any_of(col) for col in columns if col is not full])
                for full in columns
            )
            return QuorumSystem(nodes, all_of(any_of(col) for col in columns), write)
        if self.kind == "rowa":
            return QuorumSystem(nodes, any_of(nodes), all_of(nodes))
        if self.kind == "single":
            # the first node alone: the primary of a primary/backup scheme
            return QuorumSystem(nodes[:1], node(nodes[0]), node(nodes[0]))
        # Gifford weighted voting, over the node ids in sorted order
        if len(self.votes) != n:
            raise ValueError(
                f"weighted spec carries {len(self.votes)} vote counts "
                f"for {n} nodes"
            )
        ids, votes = zip(*sorted(zip(nodes, self.votes)))
        return QuorumSystem(ids, choose(self.read_threshold, ids, votes),
                            choose(self.write_threshold, ids, votes))

    def column_heights(self, n: int) -> List[int]:
        """A grid spec's column heights over *n* nodes, laid out
        column-major.  Columns differ in height by at most one: a greedy
        fill could leave a final column of a single node, whose
        availability would then dominate every read quorum."""
        rows, cols = default_grid_shape(n) if self.rows is None else (self.rows, self.cols)
        if not rows * (cols - 1) < n <= rows * cols:
            raise ValueError(
                f"grid {rows}x{cols} fits {rows * (cols - 1) + 1}.."
                f"{rows * cols} nodes, got {n}"
            )
        base, extra = divmod(n, cols)
        return [base + (c < extra) for c in range(cols)]

    # -- string form ---------------------------------------------------------

    def __str__(self) -> str:
        """Canonical string form; ``parse(str(spec)) == spec``."""
        params = []
        if self.kind == "majority":
            if self.read_size is not None:
                params.append(f"r={self.read_size}")
            if self.write_size is not None:
                params.append(f"w={self.write_size}")
        elif self.kind == "grid":
            if self.rows is not None:
                params.append(f"{self.rows}x{self.cols}")
        elif self.kind == "weighted":
            params.append("votes=" + "-".join(str(v) for v in self.votes))
            params.append(f"r={self.read_threshold}")
            params.append(f"w={self.write_threshold}")
        if not params:
            return self.kind
        return f"{self.kind}:{','.join(params)}"

    @classmethod
    def parse(cls, value: SpecLike) -> "QuorumSpec":
        """Parse a spec from its string form (a spec passes through, so
        config plumbing can accept either)."""
        if isinstance(value, cls):
            return value
        if not isinstance(value, str):
            raise TypeError(
                f"cannot parse a quorum spec from {type(value).__name__}"
            )
        text = value.strip()
        kind, _, param_text = text.partition(":")
        kind = kind.strip()
        if kind not in _KINDS:
            raise ValueError(
                f"unknown quorum kind {kind!r} in {value!r}; "
                f"choose from {_KINDS}"
            )
        kwargs: Dict[str, Any] = {}
        for raw in filter(None, (p.strip() for p in param_text.split(","))):
            try:
                parsed = cls._parse_param(kind, raw)
            except ValueError as exc:
                raise ValueError(f"bad quorum spec {value!r}: {exc}") from None
            if kwargs.keys() & parsed.keys():
                key = "<rows>x<cols>" if kind == "grid" else raw.partition("=")[0]
                raise ValueError(
                    f"bad quorum spec {value!r}: parameter {key!r} given twice"
                )
            kwargs.update(parsed)
        return cls(kind=kind, **kwargs)

    @staticmethod
    def _parse_param(kind: str, raw: str) -> Dict[str, Any]:
        if kind == "grid":
            rows, sep, cols = raw.partition("x")
            if not sep:
                raise ValueError(f"expected <rows>x<cols>, got {raw!r}")
            return {"rows": int(rows), "cols": int(cols)}
        key, sep, val = raw.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {raw!r}")
        if key == "votes":
            return {"votes": tuple(int(v) for v in val.split("-"))}
        names = {
            "majority": {"r": "read_size", "w": "write_size"},
            "weighted": {"r": "read_threshold", "w": "write_threshold"},
        }.get(kind, {})
        if key not in names:
            raise ValueError(f"parameter {key!r} does not apply to {kind!r}")
        return {names[key]: int(val)}


#: the paper's recommended shapes: majority IQS, read-one/write-all OQS
DEFAULT_IQS_SPEC = QuorumSpec(kind="majority")
DEFAULT_OQS_SPEC = QuorumSpec(kind="rowa")

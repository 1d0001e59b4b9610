"""Workload generation.

The paper's target workloads have three structural properties, each
modelled by a generator here:

1. **write ratio** — e.g. 5 % for the TPC-W profile object
   (:class:`BernoulliOpStream` draws each operation independently);
2. **read/write bursts** — "reads tend to be followed by other reads and
   writes tend to be followed by other writes"
   (:class:`MarkovBurstStream` is a two-state Markov chain whose mean
   burst lengths are configurable while preserving the stationary write
   ratio);
3. **access locality across nodes** — "at any given time access to a
   given element tends to come from a single node"; this is a property
   of *key choice*, modelled by :class:`PartitionedKeyChooser` (each
   client owns a key population, as customers are routed to their
   closest edge server) and perturbed by the redirection locality knob.

Streams yield :class:`OpSpec` records; the runner executes them
closed-loop against any protocol client.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import truediv
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..types import READ, WRITE

__all__ = [
    "OpSpec",
    "KeyChooser",
    "LazyKeys",
    "KeyUniverse",
    "UniformKeyChooser",
    "ZipfKeyChooser",
    "PartitionedKeyChooser",
    "FixedKeyChooser",
    "BernoulliOpStream",
    "MarkovBurstStream",
]

@dataclass(frozen=True)
class OpSpec:
    """One operation to execute."""

    kind: str  # "read" | "write"
    key: str
    value: Optional[str] = None  # writes only


# ---------------------------------------------------------------------------
# key populations
# ---------------------------------------------------------------------------


class LazyKeys(Sequence[str]):
    """Marker base for key populations generated on demand.

    Choosers copy plain lists defensively; a :class:`LazyKeys` sequence
    is kept as-is, so a million-object population costs O(1) memory.
    A :class:`ZipfKeyChooser` over it adds its popularity CDF: 8 bytes
    per key (8 MB at a million), shared by every chooser of that size
    and exponent.
    Subclasses must provide ``__len__`` and integer ``__getitem__``
    (which is all ``random.Random.choice`` needs).
    """

    def __getitem__(self, index: int) -> str:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class KeyUniverse(LazyKeys):
    """A contiguous, lazily formatted key population.

    Key *i* is ``fmt.format(start + i)`` — the scalable key-universe API
    behind the CDN scenarios (thousands of volumes, millions of objects)
    and the TPC-W per-customer key ranges.  Nothing is materialised:
    indexing formats one string.
    """

    def __init__(self, size: int, fmt: str = "obj:{:08d}", start: int = 0) -> None:
        if size < 1:
            raise ValueError("key universe must not be empty")
        self.size = size
        self.fmt = fmt
        self.start = start

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: int) -> str:
        if index < 0:
            index += self.size
        if not 0 <= index < self.size:
            raise IndexError(index)
        return self.fmt.format(self.start + index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyUniverse({self.size}, {self.fmt!r}, start={self.start})"


def _own_keys(keys: Sequence[str]) -> Sequence[str]:
    """Defensive copy for plain sequences; lazy populations as-is."""
    return keys if isinstance(keys, LazyKeys) else list(keys)


# ---------------------------------------------------------------------------
# key choosers
# ---------------------------------------------------------------------------


class KeyChooser:
    """Interface: pick the key for the next operation."""

    def pick(self, rng) -> str:
        raise NotImplementedError


class FixedKeyChooser(KeyChooser):
    """Always the same key — the single read/write register case."""

    def __init__(self, key: str) -> None:
        self.key = key

    def pick(self, rng) -> str:
        return self.key


class UniformKeyChooser(KeyChooser):
    """Uniform over a key population."""

    def __init__(self, keys: Sequence[str]) -> None:
        if not keys:
            raise ValueError("key population must not be empty")
        self.keys = _own_keys(keys)

    def pick(self, rng) -> str:
        return rng.choice(self.keys)


#: Zipf CDFs memoized by (population size, exponent): thousands of
#: per-PoP choosers over the same key universe share one CDF instead of
#: recomputing (and re-storing) an O(n) table each.  Each table is a flat
#: ``array("d")``, 8 bytes per key; the FIFO keeps at most 32 tables, so
#: a sweep over many population sizes cannot grow it without limit.
_ZIPF_CDF_CACHE: Dict[Tuple[int, float], array[float]] = {}
_ZIPF_CDF_CACHE_MAX = 32


def _zipf_cdf(n: int, s: float) -> array[float]:
    key = (n, float(s))
    cdf = _ZIPF_CDF_CACHE.get(key)
    if cdf is None:
        # Element for element the floats of ``accumulate(w / total for w
        # in [1.0 / rank**s ...])`` with the builtin ``sum`` as total (the
        # pinned draws and digests rest on them), with no full-size list
        # of boxed floats alive at any point.
        powers = map(pow, range(1, n + 1), repeat(s))
        weights = array("d", map(truediv, repeat(1.0), powers))
        total = sum(weights)
        cdf = array("d", accumulate(map(truediv, weights, repeat(total))))
        while len(_ZIPF_CDF_CACHE) >= _ZIPF_CDF_CACHE_MAX:
            _ZIPF_CDF_CACHE.pop(next(iter(_ZIPF_CDF_CACHE)))
        _ZIPF_CDF_CACHE[key] = cdf
    return cdf


class ZipfKeyChooser(KeyChooser):
    """Zipf-distributed popularity over a key population.

    Rank r (1-based) has probability proportional to ``1 / r**s`` —
    the classic web-object popularity model.  Sampling uses the inverse
    CDF over cumulative weights, shared across instances via
    :func:`_zipf_cdf` (keyed by size and exponent): one flat
    ``array("d")`` of 8 bytes per key, of which at most 32 are cached.
    """

    def __init__(self, keys: Sequence[str], s: float = 0.8) -> None:
        if not keys:
            raise ValueError("key population must not be empty")
        if not s >= 0:
            raise ValueError("zipf exponent must be non-negative")
        self.keys = _own_keys(keys)
        self.s = s
        self._cdf = _zipf_cdf(len(self.keys), s)

    def pick(self, rng) -> str:
        x = rng.random()
        index = bisect_left(self._cdf, x)
        # Float rounding can leave cdf[-1] fractionally below 1.0; a draw
        # in that tail must clamp to the last key, never index past it.
        if index >= len(self.keys):
            index = len(self.keys) - 1
        return self.keys[index]


class PartitionedKeyChooser(KeyChooser):
    """A client's own key population, with occasional foreign keys.

    Models per-customer data with request routing: client *c* mostly
    touches its own partition (probability ``affinity``) and sometimes a
    key owned by another client (a redirected customer) — the source of
    the rare cross-node concurrency the paper's workload analysis
    predicts.
    """

    def __init__(
        self,
        own_keys: Sequence[str],
        foreign_keys: Sequence[str],
        affinity: float = 0.95,
        own_chooser: Optional[KeyChooser] = None,
    ) -> None:
        if not own_keys:
            raise ValueError("own key population must not be empty")
        if not 0.0 <= affinity <= 1.0:
            raise ValueError("affinity must be in [0, 1]")
        self.own = own_chooser or UniformKeyChooser(own_keys)
        self.foreign = UniformKeyChooser(foreign_keys) if foreign_keys else None
        self.affinity = affinity

    def pick(self, rng) -> str:
        if self.foreign is None or rng.random() < self.affinity:
            return self.own.pick(rng)
        return self.foreign.pick(rng)


# ---------------------------------------------------------------------------
# operation streams
# ---------------------------------------------------------------------------


class _StreamBase:
    """Common value-tagging for write operations."""

    def __init__(self, rng, keys: KeyChooser, label: str = "w") -> None:
        self.rng = rng
        self.keys = keys
        self.label = label
        self._write_seq = 0

    def _write_value(self) -> str:
        self._write_seq += 1
        return f"{self.label}{self._write_seq}"


class BernoulliOpStream(_StreamBase, Iterator[OpSpec]):
    """IID operations: each is a write with probability *write_ratio*."""

    def __init__(self, rng, keys: KeyChooser, write_ratio: float, label: str = "w") -> None:
        if not 0.0 <= write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")
        super().__init__(rng, keys, label)
        self.write_ratio = write_ratio

    def __iter__(self) -> "BernoulliOpStream":
        return self

    def __next__(self) -> OpSpec:
        key = self.keys.pick(self.rng)
        if self.rng.random() < self.write_ratio:
            return OpSpec(WRITE, key, self._write_value())
        return OpSpec(READ, key)


class MarkovBurstStream(_StreamBase, Iterator[OpSpec]):
    """Bursty operations from a two-state Markov chain.

    Parameters
    ----------
    write_ratio:
        Stationary fraction of writes ``w``.
    mean_write_burst:
        Mean length of a run of consecutive writes, ``Lw``.  The mean
        read-burst length is derived as ``Lr = Lw * (1 - w) / w`` so the
        stationary ratio is exactly *write_ratio*.  ``mean_write_burst=1``
        with ``write_ratio=0.5`` degenerates to strict alternation — the
        paper's worst case for DQVL's communication overhead.
    """

    def __init__(
        self,
        rng,
        keys: KeyChooser,
        write_ratio: float,
        mean_write_burst: float = 4.0,
        label: str = "w",
    ) -> None:
        if not 0.0 < write_ratio < 1.0:
            raise ValueError("write_ratio must be strictly between 0 and 1")
        if not 1.0 <= mean_write_burst < math.inf:
            raise ValueError("mean burst length must be at least 1 and finite")
        super().__init__(rng, keys, label)
        self.write_ratio = write_ratio
        mean_read_burst = mean_write_burst * (1.0 - write_ratio) / write_ratio
        mean_read_burst = max(mean_read_burst, 1.0)
        # Geometric run lengths: P(stay) = 1 - 1/mean_length.
        self._stay_write = 1.0 - 1.0 / mean_write_burst
        self._stay_read = 1.0 - 1.0 / mean_read_burst
        self._state = WRITE if rng.random() < write_ratio else READ

    def __iter__(self) -> "MarkovBurstStream":
        return self

    def __next__(self) -> OpSpec:
        key = self.keys.pick(self.rng)
        op = (
            OpSpec(WRITE, key, self._write_value())
            if self._state == WRITE
            else OpSpec(READ, key)
        )
        stay = self._stay_write if self._state == WRITE else self._stay_read
        if self.rng.random() >= stay:
            self._state = READ if self._state == WRITE else WRITE
        return op

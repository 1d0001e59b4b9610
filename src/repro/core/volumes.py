"""Grouping objects into volumes.

DQVL amortises lease renewals by attaching the *short* lease to a
**volume** — a collection of objects — while per-object state is covered
by long-duration object leases (callbacks).  How objects map to volumes
is a deployment decision; the protocol only needs a stable, agreed-upon
``volume_of(object) -> volume`` function on every node.

:class:`HashVolumeMap` spreads objects over a fixed number of volumes by
a deterministic hash (the default).  :class:`ExplicitVolumeMap` pins
chosen objects to chosen volumes, e.g. "all profile fields of customer
42 live in volume ``cust-42``", which is the natural edge-service layout
(per-customer volumes keep a customer's lease traffic on one renewal
path).
md5 comes from CPython's built-in ``_md5``, not ``hashlib``, which loads
OpenSSL (~3.6 MB RSS); ``hashlib`` is only the fallback on a build
without ``_md5``, and both give the same digests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

__all__ = ["VolumeMap", "HashVolumeMap", "ExplicitVolumeMap", "SingleVolumeMap"]


class VolumeMap:
    """Interface: deterministic object → volume assignment."""

    def volume_of(self, obj: str) -> str:
        raise NotImplementedError


class HashVolumeMap(VolumeMap):
    """Assign objects to ``num_volumes`` buckets by a stable hash.

    Uses md5 rather than ``hash()`` so the mapping is identical across
    processes and runs (Python's string hashing is salted per-process).
    """

    def __init__(self, num_volumes: int, prefix: str = "vol") -> None:
        if num_volumes < 1:
            raise ValueError("num_volumes must be positive")
        self.num_volumes = num_volumes
        self.prefix = prefix
        global md5  # bound at deploy time, never inside a run (DESIGN.md §4)
        try:
            from _md5 import md5
        except ImportError:  # a CPython built without its own md5
            from hashlib import md5

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)  # an unpickled map binds md5 too

    def volume_of(self, obj: str) -> str:
        digest = md5(obj.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % self.num_volumes
        return f"{self.prefix}{bucket}"

    def volumes(self) -> List[str]:
        """All volume names this map can produce."""
        return [f"{self.prefix}{i}" for i in range(self.num_volumes)]


class ExplicitVolumeMap(VolumeMap):
    """Assign listed objects explicitly; others fall back to a default map."""

    def __init__(
        self,
        assignment: Dict[str, str],
        fallback: Optional[VolumeMap] = None,
    ) -> None:
        self.assignment = dict(assignment)
        self.fallback = fallback or SingleVolumeMap()

    def volume_of(self, obj: str) -> str:
        if obj in self.assignment:
            return self.assignment[obj]
        return self.fallback.volume_of(obj)


class SingleVolumeMap(VolumeMap):
    """Every object in one volume — maximal renewal amortisation, and the
    configuration under which a single volume-lease renewal revalidates
    the whole working set."""

    def __init__(self, name: str = "vol0") -> None:
        self.name = name

    def volume_of(self, obj: str) -> str:
        return self.name

"""Measurement archive (Appendix A).

The deployed system stores every reverse traceroute (user-driven and
NDT-triggered) to M-Lab's cloud storage; this is the in-process
equivalent with the query surface the examples and tests need.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.result import ReverseTracerouteResult, RevtrStatus
from repro.net.addr import Address


@dataclass
class StoredMeasurement:
    """One archived measurement with its request metadata."""

    result: ReverseTracerouteResult
    user: str
    requested_at: float
    label: str = ""


class MeasurementStore:
    """Append-only archive with simple per-key indexes."""

    def __init__(self) -> None:
        self._records: List[StoredMeasurement] = []
        self._by_source: Dict[Address, List[int]] = defaultdict(list)
        self._by_user: Dict[str, List[int]] = defaultdict(list)

    def append(
        self,
        result: ReverseTracerouteResult,
        user: str,
        requested_at: float,
        label: str = "",
    ) -> StoredMeasurement:
        record = StoredMeasurement(
            result=result,
            user=user,
            requested_at=requested_at,
            label=label,
        )
        index = len(self._records)
        self._records.append(record)
        self._by_source[result.src].append(index)
        self._by_user[user].append(index)
        return record

    def by_source(self, source: Address) -> List[StoredMeasurement]:
        return [self._records[i] for i in self._by_source.get(source, [])]

    def by_user(self, user: str) -> List[StoredMeasurement]:
        return [self._records[i] for i in self._by_user.get(user, [])]

    def all(self) -> List[StoredMeasurement]:
        return list(self._records)

    def complete(self) -> List[StoredMeasurement]:
        return [
            r
            for r in self._records
            if r.result.status is RevtrStatus.COMPLETE
        ]

    def completion_rate(self) -> float:
        if not self._records:
            return 0.0
        return len(self.complete()) / len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[StoredMeasurement]:
        return iter(self._records)

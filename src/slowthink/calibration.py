"""Budget-matching arithmetic: choose a Best-of-N sample count whose cost
matches a baseline tree search, from averaged expansion statistics or from
raw expansion traces.

Trace files are JSON Lines: one object per question with fields
``question_id`` (string), ``events`` (array of ``[depth, children]`` whole
number pairs, one per expansion), and ``ideal_path_length`` (positive whole
number).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import ValidationError, checked_number, text_lines


@dataclass(frozen=True)
class TraceStats:
    """Averaged expansion statistics of a tree-search run."""

    avg_b: float  # mean children per expansion
    avg_p: float  # mean expansions per question
    avg_L: float  # mean ideal reasoning-path length

    def __post_init__(self) -> None:
        for name in ("avg_b", "avg_p", "avg_L"):
            v = checked_number(getattr(self, name), name)
            if not v > 0:
                raise ValidationError(f"{name} must be strictly positive, got {v!r}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class ExpansionTrace:
    """Raw expansion record for one question."""

    question_id: str
    events: tuple[tuple[int, int], ...]  # (node depth, children sampled)
    ideal_path_length: int

    def __post_init__(self) -> None:
        where = f"trace {self.question_id!r}"
        if not self.events:
            raise ValidationError(f"{where} has no events")
        events = tuple(
            (checked_number(d, f"{where}: depth", int), checked_number(c, f"{where}: children", int))
            for d, c in self.events
        )
        for d, c in events:
            if d < 0:
                raise ValidationError(f"{where}: depth {d} < 0")
            if c < 1:
                raise ValidationError(f"{where}: children {c} < 1")
        object.__setattr__(self, "events", events)
        length = checked_number(self.ideal_path_length, f"{where}: ideal_path_length", int)
        if length < 1:
            raise ValidationError(f"{where}: ideal_path_length must be >= 1")
        object.__setattr__(self, "ideal_path_length", length)


class NRange(NamedTuple):
    """Reasonable Best-of-N interval; ``inverted`` warns that low > high."""

    low: float
    high: float
    inverted: bool


def n_call(stats: TraceStats) -> float:
    """N matching the baseline's total model calls: avg_p * avg_b."""
    return stats.avg_p * stats.avg_b


def n_res(stats: TraceStats) -> float:
    """N matching the baseline's total reasoning steps: avg_p * avg_b / avg_L."""
    return stats.avg_p * stats.avg_b / stats.avg_L


def reasonable_n_range(stats: TraceStats) -> NRange:
    """The (n_res, n_call) interval of budget-comparable N values."""
    low = n_res(stats)
    high = n_call(stats)
    return NRange(low=low, high=high, inverted=stats.avg_L < 1)


def integer_candidates(rng: NRange) -> tuple[int, int]:
    """Smallest and largest integer N inside the range (floor/ceil pair)."""
    return math.ceil(rng.low), math.floor(rng.high)


def parse_trace_record(text: str, where: str = "record") -> ExpansionTrace:
    """One JSON trace record; a ValidationError that starts with ``where``
    when it is malformed."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: not an object")
    try:
        qid = obj["question_id"]
        events = obj["events"]
        length = obj["ideal_path_length"]
    except KeyError as exc:
        raise ValidationError(f"{where}: missing field {exc}") from None
    if not isinstance(events, list) or not all(
        isinstance(e, list) and len(e) == 2 for e in events
    ):
        raise ValidationError(f"{where}: events must be an array of [depth, children] pairs")
    try:
        return ExpansionTrace(str(qid), events, length)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def read_traces(path) -> list[ExpansionTrace]:
    return [
        parse_trace_record(line, f"{path}:{lineno}")
        for lineno, line in enumerate(text_lines(path), start=1)
        if line.strip()
    ]


def traces_to_stats(traces: Iterable[ExpansionTrace]) -> TraceStats:
    traces = list(traces)
    if not traces:
        raise ValidationError("no trace records supplied")
    children = [c for t in traces for _, c in t.events]
    return TraceStats(
        avg_b=sum(children) / len(children),
        avg_p=sum(len(t.events) for t in traces) / len(traces),
        avg_L=sum(t.ideal_path_length for t in traces) / len(traces),
    )


def ingest_traces(path) -> TraceStats:
    """Read a JSON Lines trace file and average it into TraceStats."""
    return traces_to_stats(read_traces(path))


def complete_tree_stats(b: int, depth: int) -> TraceStats:
    """Averaged statistics of a complete b-ary search tree of the given depth:
    every node above the leaf layer is expanded once with b children, which
    is ``1 + b + ... + b**(depth-1)`` expansions."""
    if b < 1 or depth < 1:
        raise ValidationError(f"b and depth must be >= 1, got b={b}, depth={depth}")
    return TraceStats(float(b), float(sum(b**l for l in range(depth))), float(depth))

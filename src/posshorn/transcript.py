"""Append-only oracle event log with a stable JSON-lines serialization.

One record per oracle call:

    {"event": "mq"|"eq", "input": str, "valuation": str|null,
     "answer": "yes"|"no"|counterexample text, "instance": str, "index": int}

``input`` is the queried clause (mq) or the submitted hypothesis with its
clauses sorted and joined by "; " (eq).  ``valuation`` is the decimal of a
possibilistic membership query, null for classical queries and for eq.
``instance`` names the requester (a learner label or "orchestrator").
``index`` is the 1-based position in the session.  Keys, key order and
separators are fixed so replayed sessions compare byte-for-byte: the keys
are the fields of :class:`Event` in order, and the separators are json's
defaults, ``", "`` and ``": "``.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional


class Event(NamedTuple):
    event: str
    input: str
    valuation: Optional[str]
    answer: str
    instance: str
    index: int


class Transcript:
    """Ordered log of oracle events."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def record(
        self,
        event: str,
        input_text: str,
        valuation: Optional[str],
        answer: str,
        instance: str,
    ) -> Event:
        ev = Event(event, input_text, valuation, answer, instance, len(self.events) + 1)
        self.events.append(ev)
        return ev

    def to_jsonl(self) -> str:
        return "".join(json.dumps(ev._asdict()) + "\n" for ev in self.events)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

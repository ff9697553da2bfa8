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

Each line is written from that fixed template, with the string fields
quoted by json's own ASCII encoder, so it is byte-equal to
``json.dumps(event._asdict())`` with the default separators and is pure
ASCII: non-ASCII text is escaped as ``\\uXXXX``.  :meth:`Transcript.write`
streams the file line by line and never builds the whole text.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, NamedTuple, Optional


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

    def lines(self) -> Iterator[str]:
        """The JSON line of each event, newline included, in order."""
        for event, input_text, valuation, answer, instance, index in self.events:
            valuation_json = "null" if valuation is None else _quote(valuation)
            yield (
                f'{{"event": {_quote(event)}, "input": {_quote(input_text)}, '
                f'"valuation": {valuation_json}, "answer": {_quote(answer)}, '
                f'"instance": {_quote(instance)}, "index": {index}}}\n'
            )

    def to_jsonl(self) -> str:
        return "".join(self.lines())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self.lines())

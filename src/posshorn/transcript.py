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

Each line is rendered by :func:`render` from that fixed template, with the
string fields quoted by json's own ASCII encoder, so it is byte-equal to
``json.dumps(event._asdict())`` with the default separators and is pure
ASCII: non-ASCII text is escaped as ``\\uXXXX``.

A :class:`Transcript` either keeps its events in memory (the library
default) or, given a text file, writes each event's line to it as the event
is recorded and keeps nothing.  The CLI streams: its transcript file grows
during the session, so a session that fails part-way leaves the lines of
every query answered up to the failure.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple, Optional, TextIO


class Event(NamedTuple):
    event: str
    input: str
    valuation: Optional[str]
    answer: str
    instance: str
    index: int


def render(
    event: str,
    input_text: str,
    valuation: Optional[str],
    answer: str,
    instance: str,
    index: int,
) -> str:
    """The JSON line of one event, newline included; ``render(*ev)``."""
    valuation_json = "null" if valuation is None else _quote(valuation)
    return (
        f'{{"event": {_quote(event)}, "input": {_quote(input_text)}, '
        f'"valuation": {valuation_json}, "answer": {_quote(answer)}, '
        f'"instance": {_quote(instance)}, "index": {index}}}\n'
    )


class Transcript:
    """Ordered log of oracle events, kept in :attr:`events` or, given a
    text file ``out``, streamed to it line by line (``events`` stays empty)."""

    def __init__(self, out: Optional[TextIO] = None) -> None:
        self.events: list[Event] = []
        self.count = 0
        self._out = out

    def record(
        self,
        event: str,
        input_text: str,
        valuation: Optional[str],
        answer: str,
        instance: str,
    ) -> None:
        self.count += 1
        if self._out is None:
            self.events.append(
                Event(event, input_text, valuation, answer, instance, self.count)
            )
        else:
            self._out.write(
                render(event, input_text, valuation, answer, instance, self.count)
            )

    def to_jsonl(self) -> str:
        """The lines of the kept events, joined."""
        return "".join(render(*ev) for ev in self.events)

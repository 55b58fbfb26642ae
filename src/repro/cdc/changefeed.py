"""Changefeed sources: ordered streams of RDF deltas.

A **delta** is one atomic unit of source-database change: a batch of
added and removed triples stamped with a monotonically increasing
sequence number.  Two sources are provided:

* :class:`MemoryChangefeed` — an in-process async queue, for embedding
  the pipeline in another program (and for the tests/fuzzers);
* :class:`JsonlChangefeed` — a replayable JSON-lines delta log on disk,
  optionally tailed (``follow=True``) like a WAL.

The on-disk format is one JSON object per line::

    {"seq": 7, "add": ["<s> <p> <o> ."], "remove": ["<s> <q> \\"v\\" ."]}

with each triple encoded as a single N-Triples statement.  A line that
fails to decode is surfaced as a :class:`BadDelta` instead of aborting
the stream — the pipeline routes those straight to quarantine, so one
corrupt record never stalls ingest.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from ..errors import ChangefeedError, ParseError
from ..rdf.ntriples import parse_line
from ..rdf.terms import Triple

__all__ = [
    "BadDelta",
    "Delta",
    "JsonlChangefeed",
    "MemoryChangefeed",
    "append_delta",
    "delta_from_json",
    "delta_to_json",
    "read_delta_log",
    "write_delta_log",
]


@dataclass(frozen=True)
class Delta:
    """One unit of source change: triples added/removed at sequence ``seq``."""

    seq: int
    added: tuple[Triple, ...] = ()
    removed: tuple[Triple, ...] = ()

    def __len__(self) -> int:
        return len(self.added) + len(self.removed)


@dataclass(frozen=True)
class BadDelta:
    """A changefeed record that could not be decoded into a :class:`Delta`."""

    line_number: int
    text: str
    error: str


# --------------------------------------------------------------------- #
# JSONL codec
# --------------------------------------------------------------------- #

def _parse_statement(statement: str, context: str) -> Triple:
    triple = parse_line(statement.strip())
    if triple is None:
        raise ChangefeedError(f"{context}: empty N-Triples statement")
    return triple


def delta_to_json(delta: Delta) -> str:
    """Encode a delta as one JSON line (without trailing newline)."""
    return json.dumps(
        {
            "seq": delta.seq,
            "add": [t.n3() for t in delta.added],
            "remove": [t.n3() for t in delta.removed],
        },
        ensure_ascii=False,
    )


def delta_from_json(line: str) -> Delta:
    """Decode one JSON line into a :class:`Delta`.

    Raises:
        ChangefeedError: when the line is not valid JSON, lacks a
            usable ``seq``, or contains an unparsable statement.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ChangefeedError(f"invalid JSON in delta log: {exc}") from exc
    if not isinstance(record, dict):
        raise ChangefeedError("delta record is not a JSON object")
    seq = record.get("seq")
    if not isinstance(seq, int):
        raise ChangefeedError(f"delta record has no integer seq: {seq!r}")
    try:
        added = tuple(
            _parse_statement(s, f"delta {seq} add") for s in record.get("add", ())
        )
        removed = tuple(
            _parse_statement(s, f"delta {seq} remove")
            for s in record.get("remove", ())
        )
    except ParseError as exc:
        raise ChangefeedError(f"delta {seq}: {exc}") from exc
    return Delta(seq=seq, added=added, removed=removed)


def write_delta_log(deltas, path: str | Path) -> int:
    """Write a delta log file; returns the number of records written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for delta in deltas:
            handle.write(delta_to_json(delta))
            handle.write("\n")
            count += 1
    return count


def append_delta(path: str | Path, delta: Delta) -> None:
    """Append one record to a delta log file (creating it if needed)."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(delta_to_json(delta))
        handle.write("\n")


def read_delta_log(path: str | Path) -> list[Delta]:
    """Read a whole delta log strictly (raises on the first bad record)."""
    deltas = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                deltas.append(delta_from_json(line))
    return deltas


# --------------------------------------------------------------------- #
# Async sources
# --------------------------------------------------------------------- #

class MemoryChangefeed:
    """A bounded in-process changefeed backed by an async queue.

    Producers ``await put(delta)``; when the queue is full the producer
    blocks (backpressure) until the pipeline drains it.  ``close()``
    ends the stream after the enqueued deltas are consumed.
    """

    def __init__(self, maxsize: int = 0):
        self._items: deque = deque()
        self._maxsize = maxsize
        self._readable = asyncio.Event()
        self._writable = asyncio.Event()
        self._writable.set()
        self._closed = False
        #: Number of times a producer had to wait for queue space.
        self.backpressure_waits = 0

    def __len__(self) -> int:
        return len(self._items)

    async def put(self, delta: Delta | BadDelta) -> None:
        if self._closed:
            raise ChangefeedError("changefeed is closed")
        while self._maxsize and len(self._items) >= self._maxsize:
            self.backpressure_waits += 1
            self._writable.clear()
            await self._writable.wait()
        self._items.append(delta)
        self._readable.set()

    def close(self) -> None:
        self._closed = True
        self._readable.set()

    async def get(self, timeout: float | None = None):
        """The next item, or None once closed and drained.

        With ``timeout`` (seconds) it also returns None when no item
        arrives in time.  Waiting never takes an item off the queue, so
        a call that times out or is cancelled loses nothing.
        """
        while not self._items:
            if self._closed:
                return None
            self._readable.clear()
            try:
                await asyncio.wait_for(self._readable.wait(), timeout)
            except asyncio.TimeoutError:
                return None
        item = self._items.popleft()
        if not self._maxsize or len(self._items) < self._maxsize:
            self._writable.set()
        return item

    async def __aiter__(self):
        while (item := await self.get()) is not None:
            yield item


class JsonlChangefeed:
    """A replayable delta-log file source.

    Args:
        path: the JSONL delta log.
        start_after: skip records with ``seq <= start_after`` (resume
            from a checkpoint watermark).
        follow: keep polling the file for appended records after EOF
            (call :meth:`stop` to end the stream); when False the stream
            ends at EOF — the ``repro serve --once`` replay mode.
        poll_interval: seconds between polls in follow mode.
    """

    def __init__(
        self,
        path: str | Path,
        start_after: int = -1,
        follow: bool = False,
        poll_interval: float = 0.1,
    ):
        self.path = Path(path)
        self.start_after = start_after
        self.follow = follow
        self.poll_interval = poll_interval
        self._stopped = False

    def stop(self) -> None:
        """End a ``follow=True`` stream at the next poll."""
        self._stopped = True

    async def __aiter__(self):
        line_number = 0
        with open(self.path, encoding="utf-8") as handle:
            while True:
                position = handle.tell()
                line = handle.readline()
                if not line:
                    if not self.follow or self._stopped:
                        return
                    await asyncio.sleep(self.poll_interval)
                    continue
                if not line.strip():
                    line_number += 1
                    continue
                if self.follow and not line.endswith("\n"):
                    # A partially written record: rewind and retry once
                    # the writer finishes the line.
                    handle.seek(position)
                    await asyncio.sleep(self.poll_interval)
                    continue
                line_number += 1
                try:
                    delta = delta_from_json(line)
                except ChangefeedError as exc:
                    yield BadDelta(line_number, line.rstrip("\n"), str(exc))
                    continue
                if delta.seq <= self.start_after:
                    continue
                yield delta

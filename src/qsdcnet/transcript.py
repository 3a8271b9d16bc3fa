"""The session transcript and its JSON text: each line the bytes
``json.dumps`` gives its event, written only when a transcript is. A session
logs each event as the dict that line holds, and a detection round's
survivors as one ``DetectionBatch``. ``spliced_pieces`` writes the long bit
and hex strings of the transcript, the report and the scenario digest
without escaping them.
"""

from __future__ import annotations

import json
from itertools import groupby
from typing import Iterator, NamedTuple

import numpy as np

from . import analysis


# json.dumps writes _SPLICE_MARK % i as _SPLICE_TOKEN + f'{i}"'.
_SPLICE_MARK, _SPLICE_TOKEN = "\x00splice %d", '"\\u0000splice '


def _json_verbatim(value: str) -> bool:
    """Whether json writes the string as '"' + value + '"', escaping nothing:
    printable ASCII without quote or backslash."""
    if not value.isascii() or '"' in value or "\\" in value:
        return False
    codes = np.frombuffer(value.encode(), dtype=np.uint8)
    return codes.min() >= 0x20 and codes.max() < 0x7F


def _marked(doc: dict | list, spliced: list[str], verbatim: dict[int, str]) -> dict | list:
    """doc with each string to splice in its dicts and lists replaced by the
    next splice mark and appended to spliced, copying only the dicts and
    lists on the way to a replaced string. A subclass of either inside doc
    is left to json, as is every value but a str, dict or list."""
    copy = doc
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        kind = type(value)  # not isinstance: half the walk's time
        if kind is dict or kind is list:
            marked = _marked(value, spliced, verbatim)
        # Below 1,024 characters json's own escape scan beats the numpy check.
        elif kind is str and len(value) >= 1024 and (
            verbatim.get(id(value)) is value or _json_verbatim(value)
        ):
            verbatim[id(value)] = value  # holds it, so its id is not reused
            spliced.append(value)
            marked = _SPLICE_MARK % (len(spliced) - 1)
        else:
            continue
        if marked is not value:
            copy = doc.copy() if copy is doc else copy
            copy[key] = marked
    return copy


def spliced_pieces(
    doc: dict | list, end: str = "", verbatim: dict[int, str] | None = None, **options
) -> list[str]:
    """``json.dumps(doc, **options) + end`` as pieces that join to it, but
    each string value of at least 1,024 characters that json writes
    unescaped, such as bits and hex digits, is written as '"' + s + '"'
    without json's escape scan and is a piece of its own. A splice mark in
    the rest of doc raises ValueError. verbatim holds the strings found
    unescaped, by id: calls sharing it check a string they share once."""
    values: list[str] = []
    text = json.dumps(_marked(doc, values, {} if verbatim is None else verbatim), **options)
    head, *pieces = text.split(_SPLICE_TOKEN) if values else [text]
    if len(pieces) != len(values):
        raise ValueError("the document holds a splice mark outside the spliced strings")
    parts = [head]
    for piece in pieces:
        index, rest = piece.split('"', 1)
        parts += ('"', values[int(index)], '"', rest)
    return [*parts, end]


# What json.dumps writes between two events of a list, and nowhere inside a
# string, where it escapes each quote.
_EVENT_BOUNDARY = '}, {"timestamp_s": '


def events_jsonl(events: list[dict], verbatim: dict[int, str] | None = None) -> list[str]:
    """The events' lines, each json.dumps(event) and a newline, as the
    ``spliced_pieces`` of one json.dumps of their list split at the
    boundaries. A payload holding the boundary too (a list of objects keyed
    timestamp_s first) raises ValueError rather than being split in it."""
    # A detection_result's qber is its QberEstimate until here, so that only
    # a written transcript computes the interval.
    pieces = spliced_pieces(events, "\n", verbatim, default=analysis.QberEstimate.to_dict)
    pieces[0] = pieces[0][1:]  # the list's brackets
    pieces[-2] = pieces[-2][:-1]
    # json's own text is every fourth piece: a spliced string holds no quote.
    texts = range(0, len(pieces) - 1, 4)
    if sum(pieces[i].count(_EVENT_BOUNDARY) for i in texts) != len(events) - 1:
        raise ValueError("an event payload holds the text between two events")
    for i in texts:
        pieces[i] = pieces[i].replace(_EVENT_BOUNDARY, '}\n{"timestamp_s": ')
    return pieces


_BASIS_NAMES = ("Z", "X")

# The fixed parts of the line json.dumps gives a detection_record event (its
# payload keys sorted): head, timestamp, middle, position, tail. The middle
# holds the outcomes and basis and is indexed by the outcome code.
_RECORD_HEAD = '{"timestamp_s": '
_RECORD_MIDDLES = np.array([  # of objects: indexed by an array, it gives the strs
    f', "event_kind": "detection_record", "payload": {{"alice_outcome": {a}, '
    f'"basis": "{basis}", "bob_outcome": {b}, "position": '
    for basis in _BASIS_NAMES for a in (0, 1) for b in (0, 1)
], dtype=object)
_RECORD_TAIL = ', "published": true}}\n'


class DetectionBatch(NamedTuple):
    """One detection round's surviving photons as parallel arrays.

    Bob publishes each survivor's slot position, basis (0 = Z, 1 = X) and
    outcome; Alice's outcome in the same basis sits beside it, in the code
    4 * basis + 2 * alice + bob. In the transcript the batch stands for the
    round's ``detection_record`` events, one per survivor, and becomes their
    lines only when it is serialized: fixed text around each survivor's
    timestamp and position reprs.
    """

    send_start_s: float
    slot_s: float
    positions: np.ndarray
    outcomes: np.ndarray

    def counts(self) -> tuple[int, int, int, int]:
        """Matched-basis comparisons and errors: (n_z, errors_z, n_x, errors_x)."""
        z00, z01, z10, z11, x00, x01, x10, x11 = np.bincount(self.outcomes, minlength=8).tolist()
        return z00 + z01 + z10 + z11, z01 + z10, x00 + x01 + x10 + x11, x01 + x10

    def to_jsonl(self) -> str:
        """One detection_record line per survivor, in slot order, each with
        its newline: the fixed parts around json's float and int reprs."""
        # A photon is detected at the end of its slot.
        timestamps = self.send_start_s + (self.positions + 1) * self.slot_s
        stamps = _number_texts(timestamps)
        # orjson writes 0.00001 and 1e16 where repr (and json) write 1e-05 and
        # 1e+16 (and null for nan); inside [1e-4, 1e16) its shortest digits
        # are repr's.
        outside = ~((timestamps >= 1e-4) & (timestamps < 1e16))
        for index, stamp in zip(outside.nonzero()[0].tolist(), timestamps[outside].tolist()):
            stamps[index] = float.__repr__(stamp)
        parts = [_RECORD_TAIL + _RECORD_HEAD] * (4 * self.positions.size + 1)
        parts[0] = _RECORD_HEAD
        parts[1::4] = stamps
        parts[2::4] = _RECORD_MIDDLES[self.outcomes].tolist()
        parts[3::4] = _number_texts(self.positions)
        parts[-1] = _RECORD_TAIL
        return "".join(parts)


def _number_texts(values: np.ndarray) -> list[str]:
    """JSON texts of a non-empty 1-d float64 or integer array's elements, by
    orjson's shortest round-trip writer."""
    # Imported here, so that only a command writing detection records loads
    # orjson (with its uuid and zoneinfo imports).
    import orjson

    text = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)
    return text[1:-1].decode().split(",")


class SessionTranscript:
    """Ordered protocol events plus the end-of-session summary."""

    def __init__(self):
        self.events: list[dict | DetectionBatch] = []
        self.summary: dict = {}
        # Per detection round: (n_z, errors_z, n_x, errors_x).
        self.detection_counts: list[tuple[int, int, int, int]] = []

    def chunks(self, verbatim: dict[int, str] | None = None) -> Iterator[str]:
        """The transcript's text in chunks never joined: each run of events'
        pieces, and one chunk per detection batch."""
        for kind, events in groupby(self.events, type):
            if kind is DetectionBatch:
                yield from (batch.to_jsonl() for batch in events)
            else:
                yield from events_jsonl(list(events), verbatim)

    @property
    def pooled_qber(self) -> analysis.QberEstimate | None:
        """All detection rounds pooled into one estimate."""
        if not self.detection_counts:
            return None
        return analysis.qber_from_counts(*map(sum, zip(*self.detection_counts)))

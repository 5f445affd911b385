"""The compact, versioned packet-trace format.

A trace is the unit of exchange for trace-driven replay (ROADMAP item
3): a header describing named temporal *phases* plus one record per
packet — ``(t_ns, len, flow)`` — with nanosecond arrival offsets
relative to the trace start.  The on-disk form is JSONL: a single
header object followed by one compact ``[t_ns, len, flow]`` array per
record, optionally gzip-compressed (any path ending in ``.gz``).

Design contract:

* **versioned** — the header carries ``format``/``version``; loaders
  reject anything they do not understand rather than guessing, and
  every malformed input (non-integer fields, bad phases, non-object
  ``meta``, corrupt gzip, non-UTF-8 bytes) ends in :exc:`TraceError`;
* **deterministic identity** — :meth:`Trace.sha256` hashes the
  canonical serialization, so generators can be audited as pure
  functions of (spec, seed) and caches can key on content;
* **validated** — :meth:`Trace.validate` enforces monotonic arrival
  times, sane frame lengths, and ordered, non-overlapping phases, so
  every consumer (replay, figures, CLI) can assume a well-formed trace;
* **immutable** — ``records`` and ``phases`` are tuples fixed at
  construction, so what is derived from them (the validation verdict,
  replay schedules) is computed once per trace and shared by every
  consumer.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.units import SEC

#: on-disk format name; loaders reject anything else
TRACE_FORMAT = "repro-trace"
#: bump when the header or record layout changes
TRACE_VERSION = 1
#: largest acceptable frame (jumbo); guards against corrupt records
MAX_FRAME_LEN = 9216
#: largest arrival time, flow id or phase bound: the sim's signed 64-bit
#: ns clock; guards float conversions (duration, replay gaps) on any input
INT64_MAX = 2**63 - 1

#: one packet record: (arrival offset ns, frame length, flow id)
Record = Tuple[int, int, int]


class TraceError(ValueError):
    """A trace failed schema validation or could not be parsed."""


def _is_int(value: Any) -> bool:
    """An exact JSON integer: not a float, not a bool."""
    return type(value) is int


def _parse_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, nesting
        raise TraceError(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class Phase:
    """One named temporal phase: ``[start_ns, end_ns)`` within the trace."""

    name: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> Dict:
        return {"name": self.name, "start_ns": self.start_ns,
                "end_ns": self.end_ns}

    @classmethod
    def from_dict(cls, d: Any) -> "Phase":
        """Parse one header phase object; :exc:`TraceError` if malformed."""
        if not isinstance(d, dict):
            raise TraceError(f"phase {d!r} is not a JSON object")
        name = d.get("name")
        start, end = d.get("start_ns"), d.get("end_ns")
        if not (isinstance(name, str) and _is_int(start) and _is_int(end)):
            raise TraceError(f"phase {d!r} needs a string name and integer "
                             "start_ns/end_ns")
        return cls(name=name, start_ns=start, end_ns=end)


class Trace:
    """An ordered packet trace with named phases and JSON metadata.

    An immutable value: ``records`` and ``phases`` are read-only tuples,
    so :meth:`validate` runs its checks once, and a replay schedule
    derived from a trace stays valid for its lifetime
    (:mod:`repro.traffic.replay`).
    """

    def __init__(
        self,
        phases: Sequence[Phase] = (),
        records: Sequence[Record] = (),
        meta: Optional[Dict] = None,
    ):
        self._phases: Tuple[Phase, ...] = tuple(phases)
        self._records: Tuple[Record, ...] = tuple(
            (int(t), int(length), int(flow)) for t, length, flow in records
        )
        self.meta: Dict = dict(meta or {})
        self._valid = False

    @property
    def records(self) -> Tuple[Record, ...]:
        """``(t_ns, len, flow)`` per packet, in arrival order."""
        return self._records

    @property
    def phases(self) -> Tuple[Phase, ...]:
        return self._phases

    # -- derived ---------------------------------------------------------- #

    @property
    def packet_count(self) -> int:
        return len(self.records)

    @property
    def byte_count(self) -> int:
        return sum(r[1] for r in self.records)

    @property
    def duration_ns(self) -> int:
        """Trace length: the later of the last record and last phase end."""
        last_rec = self.records[-1][0] if self.records else 0
        last_phase = self.phases[-1].end_ns if self.phases else 0
        return max(last_rec, last_phase)

    def mean_rate_pps(self) -> float:
        dur = self.duration_ns
        if dur <= 0:
            return 0.0
        return len(self.records) * SEC / dur

    def phase_slices(self) -> List[Tuple[Phase, int, int]]:
        """Each phase with its ``[first, last)`` record index range.

        Records exactly at a phase's ``end_ns`` belong to the next
        phase; the final phase's end is inclusive (it is the trace end).
        """
        # a 1-tuple sorts before every record with that arrival time, so
        # bisecting the records themselves finds the first t >= bound
        records = self.records
        out: List[Tuple[Phase, int, int]] = []
        for i, phase in enumerate(self.phases):
            lo = bisect_left(records, (phase.start_ns,))
            if i == len(self.phases) - 1:
                hi = len(records)
            else:
                hi = bisect_left(records, (phase.end_ns,))
            out.append((phase, lo, hi))
        return out

    # -- validation ------------------------------------------------------- #

    def validate(self) -> None:
        """Raise :exc:`TraceError` unless the trace is well-formed.

        Success is remembered (the trace cannot change); a failure is
        not, so an invalid trace raises on every call.
        """
        if self._valid:
            return
        prev_t = 0
        for i, (t, length, flow) in enumerate(self.records):
            if t < 0:
                raise TraceError(f"record {i}: negative arrival time {t}")
            if t < prev_t:
                raise TraceError(
                    f"record {i}: arrival time {t} before previous {prev_t}"
                )
            if t > INT64_MAX:
                raise TraceError(f"record {i}: arrival time {t} exceeds "
                                 f"{INT64_MAX}")
            if not 1 <= length <= MAX_FRAME_LEN:
                raise TraceError(f"record {i}: frame length {length} "
                                 f"outside [1, {MAX_FRAME_LEN}]")
            if flow < 0:
                raise TraceError(f"record {i}: negative flow id {flow}")
            if flow > INT64_MAX:
                raise TraceError(f"record {i}: flow id {flow} exceeds "
                                 f"{INT64_MAX}")
            prev_t = t
        prev_end = 0
        for i, phase in enumerate(self.phases):
            if not phase.name:
                raise TraceError(f"phase {i}: empty name")
            if phase.end_ns <= phase.start_ns:
                raise TraceError(
                    f"phase {phase.name!r}: end {phase.end_ns} <= "
                    f"start {phase.start_ns}"
                )
            if phase.end_ns > INT64_MAX:
                raise TraceError(f"phase {phase.name!r}: end {phase.end_ns} "
                                 f"exceeds {INT64_MAX}")
            if phase.start_ns < prev_end:
                raise TraceError(
                    f"phase {phase.name!r}: starts at {phase.start_ns}, "
                    f"overlapping the previous phase (ends {prev_end})"
                )
            prev_end = phase.end_ns
        if self.phases and self.records:
            if self.records[-1][0] > self.phases[-1].end_ns:
                raise TraceError(
                    f"last record at {self.records[-1][0]} lies past the "
                    f"final phase end {self.phases[-1].end_ns}"
                )
        self._valid = True

    # -- identity --------------------------------------------------------- #

    def sha256(self) -> str:
        """Content digest of the canonical serialization."""
        return hashlib.sha256(self.dumps().encode()).hexdigest()

    # -- serialization ---------------------------------------------------- #

    def _header(self) -> Dict:
        return {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "count": len(self.records),
            "duration_ns": self.duration_ns,
            "phases": [p.to_dict() for p in self.phases],
            "meta": self.meta,
        }

    def dumps(self) -> str:
        """Canonical JSONL text: header line, then one record per line."""
        out = io.StringIO()
        json.dump(self._header(), out, sort_keys=True,
                  separators=(",", ":"))
        out.write("\n")
        for t, length, flow in self.records:
            out.write(f"[{t},{length},{flow}]\n")
        return out.getvalue()

    @classmethod
    def loads(cls, text: str) -> "Trace":
        lines = text.splitlines()
        if not lines:
            raise TraceError("empty trace file")
        header = _parse_json(lines[0], "unparseable trace header")
        if not isinstance(header, dict):
            raise TraceError("trace header is not a JSON object")
        fmt = header.get("format")
        if fmt != TRACE_FORMAT:
            raise TraceError(f"not a {TRACE_FORMAT} file (format={fmt!r})")
        version = header.get("version")
        if not _is_int(version) or version != TRACE_VERSION:
            raise TraceError(
                f"unsupported trace version {version!r} "
                f"(this build reads version {TRACE_VERSION})"
            )
        records: List[Record] = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            rec = _parse_json(line, f"line {lineno}: bad record")
            if not (isinstance(rec, list) and len(rec) == 3):
                raise TraceError(f"line {lineno}: record is not [t,len,flow]")
            t, length, flow = rec
            if not (_is_int(t) and _is_int(length) and _is_int(flow)):
                raise TraceError(
                    f"line {lineno}: record {line.strip()} has a "
                    "non-integer field"
                )
            records.append((t, length, flow))
        count = header.get("count")
        if count is not None and (not _is_int(count)
                                  or count != len(records)):
            raise TraceError(
                f"header count {count!r} != {len(records)} records "
                "(truncated?)"
            )
        phases = header.get("phases", [])
        if not isinstance(phases, list):
            raise TraceError(f"header phases {phases!r} is not a list")
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise TraceError(f"header meta {meta!r} is not a JSON object")
        trace = cls(
            phases=[Phase.from_dict(p) for p in phases],
            records=records,
            meta=meta,
        )
        trace.validate()
        return trace

    def dump(self, path: str) -> None:
        """Write the trace to ``path`` (gzip when it ends in ``.gz``)."""
        data = self.dumps().encode()
        if path.endswith(".gz"):
            # mtime=0 and an empty embedded filename keep the gzip
            # bytes a pure function of the trace content
            with open(path, "wb") as fh:
                with gzip.GzipFile(filename="", mode="wb", fileobj=fh,
                                   mtime=0) as gz:
                    gz.write(data)
        else:
            with open(path, "wb") as fh:
                fh.write(data)

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read and validate ``path``; a missing file raises
        :exc:`FileNotFoundError`, bad content :exc:`TraceError`."""
        with open(path, "rb") as fh:
            data = fh.read()
        if path.endswith(".gz"):
            try:
                data = gzip.decompress(data)
            except (OSError, EOFError, zlib.error) as exc:
                raise TraceError(f"not a readable gzip file: {exc}") from exc
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            raise TraceError(f"trace is not UTF-8 text: {exc}") from exc
        return cls.loads(text)

    # -- reporting -------------------------------------------------------- #

    def describe(self) -> str:
        """Human-readable summary (the ``repro traffic describe`` body)."""
        lines = [
            f"format: {TRACE_FORMAT} v{TRACE_VERSION}",
            f"packets: {len(self.records):,}  "
            f"bytes: {self.byte_count:,}  "
            f"duration: {self.duration_ns / 1e6:.3f} ms  "
            f"mean rate: {self.mean_rate_pps() / 1e6:.3f} Mpps",
            f"sha256: {self.sha256()}",
        ]
        if self.meta:
            meta = json.dumps(self.meta, sort_keys=True)
            lines.append(f"meta: {meta}")
        if self.phases:
            lines.append("phases:")
            for phase, lo, hi in self.phase_slices():
                n = hi - lo
                dur = phase.duration_ns
                rate = n * SEC / dur / 1e6 if dur else 0.0
                lines.append(
                    f"  {phase.name:<16} "
                    f"[{phase.start_ns / 1e6:9.3f}, {phase.end_ns / 1e6:9.3f}) ms  "
                    f"{n:>9,} pkts  {rate:7.3f} Mpps"
                )
        return "\n".join(lines)

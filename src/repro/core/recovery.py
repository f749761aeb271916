"""Crash recovery: write-ahead logging + checkpoints + exactly-once replay.

:class:`ResilientRunner` wraps any engine with the standard
stream-processing fault-tolerance recipe:

* **Write-ahead log** — every :meth:`ResilientRunner.feed` call appends
  its elements (one or a cohort; JSON-lines, one buffered write) to
  ``wal.jsonl`` *before* the engine sees any of them.  A crash can
  therefore lose at most the call whose append was interrupted — and
  none of it reached the engine, so re-feeding it is safe.
* **Checkpoints** — whenever a call carries the element count across a
  multiple of *checkpoint_every*, the engine's live deterministic state
  (:meth:`Engine.snapshot`) is written to ``checkpoint.bin`` with an
  atomic ``os.replace``, together with the WAL sequence number and the
  count of matches delivered so far.
* **Delivery log** — every match handed downstream is recorded in
  ``delivered.jsonl`` as a compact identity record
  ``(seq, start_ts, end_ts, key)``.  The runner *takes* each match from
  the engine once it is logged (:meth:`Engine.take_emissions`), so the
  log — not the checkpoint — is where history lives
  (:func:`delivered_keys` reads it back), and a checkpoint costs what is
  live however long the run.

Recovery composes the three: restore the last checkpoint, replay the
WAL suffix, and *suppress* the first ``delivered_total - delivered_at_
checkpoint`` re-emissions — verifying each suppressed match against the
logged identity (a mismatch means the logs disagree with the engine's
determinism and raises :class:`~repro.core.errors.RecoveryError`).
The delivered stream across any number of crash/recover cycles is
byte-identical to an uninterrupted run: exactly-once delivery.

The runner deliberately has **no opinion about what crashed it** — an
exception from a fault injector, a purge-time crash point, or a real
process death all recover the same way: build a fresh engine with the
same configuration, point a new runner at the same directory, and call
:meth:`run` with the same input.
"""
# The WAL append, delivery log, checkpoint and the gateway's operator
# records (:func:`write_lines`) are *deliberately* synchronous on the
# caller's thread: sync-before-ack is the durability contract (an acked
# frame is on disk), and the ingest gateway's group-commit batches one
# flush per socket batch to amortise it.  Moving these writes off-thread
# would ack frames the disk has not seen, so the test suite's check for
# blocking calls on a running event loop (tests/conftest.py) exempts
# this module.

from __future__ import annotations

import json
import os
import pickle
from collections import deque
from json.encoder import encode_basestring_ascii as _escape_json
from pathlib import Path
from typing import (
    Any, BinaryIO, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Set,
    TextIO, Tuple, Union,
)

from repro.core.engine import EmissionRecord, Engine
from repro.core.errors import ConfigurationError, RecoveryError
from repro.core.event import Event, Punctuation, StreamElement
from repro.core.pattern import Match
from repro.faultinject import CrashError

CHECKPOINT_FORMAT = 1

WAL_NAME = "wal.jsonl"
CHECKPOINT_NAME = "checkpoint.bin"
DELIVERED_NAME = "delivered.jsonl"


# -- element codec ------------------------------------------------------------------
#
# The one durable element encoding: a WAL line, and a line of a trace file
# (``repro.streams.replay``), which is a WAL segment with a header.


def encode_element(element: StreamElement) -> Dict[str, Any]:
    if isinstance(element, Event):
        return {
            "kind": "event",
            "etype": element.etype,
            "ts": element.ts,
            "eid": element.eid,
            "attrs": element.attrs,
        }
    if isinstance(element, Punctuation):
        return {"kind": "punct", "ts": element.ts}
    raise ConfigurationError(f"cannot WAL-encode {type(element).__name__}")


def _element_wal_line(element: StreamElement) -> str:
    """The WAL line for *element*: ``json.dumps(encode_element(e), sort_keys=True)``.

    Hand-assembled on the common path — the per-element dict build plus
    full-document ``json.dumps`` is the single largest cost of the WAL
    append (~3µs of a ~7µs budget), and events are almost always a flat
    string/int attribute map.  Anything else falls back to the real
    encoder, so the output is identical JSON either way.
    """
    if type(element) is Event:
        etype, ts, eid = element.etype, element.ts, element.eid
        if type(etype) is str and type(ts) is int and type(eid) is int:
            parts = []
            attrs = element._attrs  # read-only here: ``attrs`` would copy it
            for key in sorted(attrs):
                value = attrs[key]
                if type(key) is not str:
                    break
                if type(value) is int:
                    parts.append(f"{_escape_json(key)}: {value}")
                elif type(value) is str:
                    parts.append(f"{_escape_json(key)}: {_escape_json(value)}")
                else:
                    break
            else:
                return (
                    '{"attrs": {' + ", ".join(parts) + "}, "
                    f'"eid": {eid}, "etype": {_escape_json(etype)}, '
                    f'"kind": "event", "ts": {ts}}}'
                )
    return json.dumps(encode_element(element), sort_keys=True)


def decode_element(record: Dict[str, Any]) -> StreamElement:
    if record["kind"] == "event":
        return Event(
            record["etype"],
            record["ts"],
            record.get("attrs") or {},
            eid=record["eid"],
        )
    if record["kind"] == "punct":
        return Punctuation(record["ts"])
    raise RecoveryError(f"unknown record kind {record['kind']!r}")


def _match_record(match: Match, seq: int) -> Dict[str, Any]:
    """The delivery-log record of *match*, delivered as number *seq*."""
    return {
        "seq": seq,
        "start_ts": match.events[0].ts,
        "end_ts": match.events[-1].ts,
        "key": _jsonable(match.key()),
    }


def _delivery_line(match: Match, seq: int) -> str:
    """``json.dumps(_match_record(match, seq), sort_keys=True)``, newline ended.

    Formatted straight from the match key on the common path — a plain
    name, int event ids and no Kleene collections; anything else takes
    the real encoder, so the line is the same JSON either way.
    """
    name, eids, collections = match.key()
    start, end = match.events[0].ts, match.events[-1].ts
    if not collections and type(name) is str and type(start) is int and type(end) is int:
        for eid in eids:
            if type(eid) is not int:
                break
        else:
            return (
                f'{{"end_ts": {end}, "key": [{_escape_json(name)}, '
                f'[{", ".join(map(str, eids))}], []], "seq": {seq}, '
                f'"start_ts": {start}}}\n'
            )
    return json.dumps(_match_record(match, seq), sort_keys=True) + "\n"


def _jsonable(value: Any) -> Any:
    """Tuples -> lists, recursively, so records survive a JSON round-trip."""
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    return value


def _hashable(value: Any) -> Any:
    """Lists -> tuples, recursively: undoes :func:`_jsonable` on a match key."""
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    return value


def clear_state(directory: Union[str, Path]) -> None:
    """Delete any recovery state in *directory* (start a run from scratch)."""
    directory = Path(directory)
    for name in (WAL_NAME, CHECKPOINT_NAME, DELIVERED_NAME):
        try:
            (directory / name).unlink()
        except FileNotFoundError:
            pass


def _iter_jsonl(path: Path, label: str) -> Iterator[Dict[str, Any]]:
    """Stream a JSON-lines log line by line, repairing a torn final line.

    A crash can interrupt an append mid-line.  A final fragment without
    a trailing newline is the expected signature of that: if it still
    parses it is kept (and the newline re-appended so future appends do
    not concatenate onto it); otherwise it is truncated away — the write
    it belonged to never finished, so the element/match it described was
    never acted on.  A *complete* line that fails to parse is genuine
    corruption and raises :class:`RecoveryError`.
    """
    if not path.exists():
        return
    complete = 0  # bytes of newline-terminated lines so far
    fragment = b""
    with path.open("rb") as handle:
        for number, line in enumerate(handle, 1):
            if not line.endswith(b"\n"):
                fragment = line
                break
            complete += len(line)
            line = line[:-1]
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise RecoveryError(f"{label} corrupt at line {number}: {line[:80]!r}")
            yield record
    if fragment:
        try:
            record = json.loads(fragment)
        except ValueError:
            os.truncate(path, complete)
        else:
            with path.open("ab") as handle:
                handle.write(b"\n")
            yield record


def iter_wal_records(directory: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """*directory*'s WAL records, close sentinel included, streamed in order."""
    return _iter_jsonl(Path(directory) / WAL_NAME, WAL_NAME)


def read_wal_elements(directory: Union[str, Path]) -> List[StreamElement]:
    """The stream elements durably logged in *directory*'s WAL, in order.

    The whole log as one list (tests, benchmarks), close sentinels
    skipped; torn final lines are repaired as recovery repairs them.
    """
    wal = iter_wal_records(directory)
    return [decode_element(record) for record in wal if record["kind"] != "close"]


def delivered_keys(directory: Union[str, Path]) -> Set[Tuple]:
    """Identity set of every match delivered from *directory*, ever.

    Parsed from ``delivered.jsonl`` (torn tail repaired as recovery
    repairs it), across all incarnations — comparable with
    :meth:`Engine.result_set` and the oracle's ``evaluate_set``.
    """
    log = _iter_jsonl(Path(directory) / DELIVERED_NAME, DELIVERED_NAME)
    return {_hashable(record["key"]) for record in log}


def write_lines(path: Path, lines: Iterable[str], replace: bool = False) -> None:
    """Append *lines* (no terminators) to *path*, or replace its contents.

    Each line gets its newline.  The lines are on disk (a userspace flush, as :meth:`ResilientRunner.
    sync`) when this returns, so a caller that goes on to ack, crash or
    exit needs no barrier.  The gateway writes its journal and flight
    dump through here: a few records per run, written where it waits
    for them anyway.
    """
    with path.open("w" if replace else "a", encoding="utf-8") as handle:
        handle.writelines(line + "\n" for line in lines)


class ResilientRunner:
    """Checkpointed, write-ahead-logged driver around any engine.

    Parameters
    ----------
    engine:
        A *fresh or restored-compatible* engine.  On recovery the engine
        must have been constructed with the same configuration as the
        crashed incarnation (:meth:`Engine.restore` verifies this).
    directory:
        Where ``wal.jsonl`` / ``checkpoint.bin`` / ``delivered.jsonl``
        live.  If they already exist, construction performs recovery.
    checkpoint_every:
        Checkpoint interval in input elements (>= 1), tested once per
        :meth:`feed` call: a checkpoint lands on the first call boundary
        at or past each multiple, so recovery replays at most
        *checkpoint_every* elements plus one cohort.
    fault:
        Optional :class:`repro.faultinject.FaultInjector`; its crash
        points fire after a call's elements are durably logged and
        before the engine processes any of them.  Shared across
        incarnations, its one-shot crash points let tests script
        multi-crash schedules.

    An element the engine refuses (anything it raises but a
    :class:`~repro.faultinject.CrashError`) is taken back out of the WAL
    with the rest of its call, and the runner then refuses further work
    with :class:`~repro.core.errors.RecoveryError`: a fresh runner on
    the same directory recovers to the state before that call.
    """

    def __init__(
        self,
        engine: Engine,
        directory: Union[str, Path],
        checkpoint_every: int = 1000,
        fault: Optional[Any] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.engine = engine
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = checkpoint_every
        self.fault = fault
        self._wal_path = self.directory / WAL_NAME
        self._checkpoint_path = self.directory / CHECKPOINT_NAME
        self._delivered_path = self.directory / DELIVERED_NAME
        self._seq = 0  # input elements durably logged AND processed
        self._delivered = 0  # matches delivered downstream (log length)
        self._suppress: Deque[Dict[str, Any]] = deque()
        self._engine_closed = False
        self._failed: Optional[str] = None  # why this runner refuses work
        self._wal_handle: Optional[BinaryIO] = None
        self._wal_dirty = False
        self._delivered_handle: Optional[TextIO] = None
        #: matches delivered by THIS incarnation since the last take (suppressed
        #: re-emissions excluded — those were delivered by a predecessor).
        self.matches: List[Match] = []
        #: their emission records, taken from the engine on delivery.
        self.emissions: List[EmissionRecord] = []
        self.recovered = False
        self.replayed_elements = 0
        self.checkpoints_written = 0
        #: Optional ``(clock, report)`` pair installed by an operator
        #: layer (the ingest gateway's latency attribution): when set,
        #: :meth:`sync` times the WAL flush with *clock* and hands the
        #: duration in seconds to *report*.  None on the default path,
        #: which stays wall-clock free and byte-identical in behaviour.
        self.sync_probe: Optional[
            Tuple[Callable[[], float], Callable[[float], None]]
        ] = None
        # Runner-level metrics live in the engine's registry (when one is
        # attached), so they checkpoint/restore with the engine state.
        # Registered before _recover so restore finds live handles.
        self._c_wal = self._c_checkpoints = self._g_checkpoint_bytes = None
        self._c_recoveries = self._c_replayed = None
        obs = getattr(engine, "observability", None)
        if obs is not None and obs.registry is not None:
            registry = obs.registry
            self._c_wal = registry.counter(
                "repro_runner_wal_records_total", "elements appended to the WAL"
            )
            self._c_checkpoints = registry.counter(
                "repro_runner_checkpoints_total", "checkpoints written"
            )
            self._g_checkpoint_bytes = registry.gauge(
                "repro_runner_checkpoint_bytes", "size of the last checkpoint written"
            )
            self._c_recoveries = registry.counter(
                "repro_runner_recoveries_total", "crash recoveries performed"
            )
            self._c_replayed = registry.counter(
                "repro_runner_replayed_total", "WAL elements replayed during recovery"
            )
        if self._checkpoint_path.exists() or self._wal_path.exists():
            self._recover()

    # -- lifecycle ------------------------------------------------------------------

    def __enter__(self) -> "ResilientRunner":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[Any],
    ) -> bool:
        self._close_handles()
        return False

    def _close_handles(self) -> None:
        for handle in (self._wal_handle, self._delivered_handle):
            if handle is not None:
                handle.close()  # flushes any buffered WAL tail
        self._wal_handle = None
        self._wal_dirty = False
        self._delivered_handle = None

    # -- recovery -------------------------------------------------------------------

    def _recover(self) -> None:
        self.recovered = True
        checkpoint_seq = 0
        checkpoint_delivered = 0
        if self._checkpoint_path.exists():
            data = self._load_checkpoint()
            self.engine.restore(data["snapshot"])
            # A checkpoint written by a runner that did not take its
            # deliveries carries them as engine state; everything emitted
            # before a checkpoint was delivered before it, so drop them.
            self.engine.take_emissions()
            checkpoint_seq = data["seq"]
            checkpoint_delivered = data["delivered"]
            self._engine_closed = data["closed"]
        # Streamed: recovery keeps counts and the records past the checkpoint.
        delivered_total = 0
        for record in _iter_jsonl(self._delivered_path, DELIVERED_NAME):
            if delivered_total >= checkpoint_delivered:
                self._suppress.append(record)
            delivered_total += 1
        if delivered_total < checkpoint_delivered:
            raise RecoveryError(
                f"delivery log has {delivered_total} records but the "
                f"checkpoint claims {checkpoint_delivered} were delivered"
            )
        self._delivered = checkpoint_delivered
        logged = 0
        saw_close = False
        # The WAL tail is one cohort: replay is feed minus the logging.
        tail: List[StreamElement] = []
        for record in iter_wal_records(self.directory):
            if record["kind"] == "close":
                saw_close = True
                continue
            if logged >= checkpoint_seq:
                tail.append(decode_element(record))
            logged += 1
        if logged < checkpoint_seq:
            raise RecoveryError(
                f"WAL has {logged} elements but the checkpoint "
                f"claims {checkpoint_seq} were logged"
            )
        self._seq = checkpoint_seq
        # After engine.restore (above): the restored registry values are
        # the baseline this recovery adds to.
        if self._c_recoveries is not None:
            self._c_recoveries.inc()
        self.replayed_elements = len(tail)
        if self._c_replayed is not None:
            self._c_replayed.inc(len(tail))
        if tail:
            self._refuse_if_closed()  # a closed checkpoint has no tail
            self._apply(tail, 0)
        if saw_close and not self._engine_closed:
            self._replay_close()
        if self._suppress:
            raise RecoveryError(
                f"delivery log records {len(self._suppress)} matches the "
                "replayed engine never re-emitted"
            )

    def _load_checkpoint(self) -> Dict[str, Any]:
        try:
            data = pickle.loads(self._checkpoint_path.read_bytes())
        except Exception as exc:
            raise RecoveryError(f"checkpoint unreadable: {exc}") from exc
        if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
            raise RecoveryError(
                f"checkpoint format {data.get('format') if isinstance(data, dict) else data!r} "
                f"not supported (expected {CHECKPOINT_FORMAT})"
            )
        return data

    def _replay_close(self) -> None:
        # The close sentinel was logged but the final checkpoint never
        # landed: redo the close (flush emissions, suppress/deliver as
        # usual) without re-appending the sentinel.
        matches = self.engine.close()
        self._engine_closed = True
        self._deliver(matches)
        self.checkpoint()

    # -- feeding --------------------------------------------------------------------

    def feed(
        self, elements: Union[StreamElement, List[StreamElement]]
    ) -> List[Match]:
        """Durably log a cohort, feed the engine once, deliver its matches.

        *elements* is one element or a ``list`` of them; a lone element
        is the one-element cohort, and there is one path for any length:
        every WAL line in one buffered write, one ``engine.feed_batch``,
        one delivery-log append (WAL flushed first), one checkpoint test.
        The bytes on disk are those of feeding the same elements one by
        one; only where checkpoints land depends on the cuts.  Returns
        the cohort's delivered matches in emission order.

        The list form keeps the name ``feed`` because this method is
        where wrappers of the public surface (the E24 launcher's match
        tap) collect what the runner delivers.
        """
        cohort = elements if isinstance(elements, list) else [elements]
        self._refuse_if_closed()  # before logging: the WAL ends at its sentinel
        if not cohort:
            return []
        # Both encoders escape to ASCII; a line that is not fails here, unwritten.
        data = "".join([_element_wal_line(e) + "\n" for e in cohort]).encode("ascii")
        self._wal_write(data, len(cohort))
        return self._apply(cohort, len(data))

    def run(self, elements: Iterable[StreamElement]) -> List[Match]:
        """Feed every element not already covered by the WAL, then close.

        After recovery this transparently resumes: the first
        ``self._seq`` elements of *elements* were already logged and
        replayed, so only the tail is processed.  Returns the matches
        delivered by this call (recovery-time deliveries are in
        :attr:`matches`).
        """
        delivered: List[Match] = []
        skip = self._seq
        for index, element in enumerate(elements):
            if index < skip:
                continue
            delivered.extend(self.feed(element))
        delivered.extend(self.close())
        return delivered

    def _refuse_if_closed(self) -> None:
        if self._failed is not None:
            raise RecoveryError(self._failed)
        if self._engine_closed:
            raise RecoveryError("runner is closed; recovery found a close sentinel")

    def _apply(self, cohort: List[StreamElement], wal_bytes: int) -> List[Match]:
        """Run a logged cohort; *wal_bytes* is what this call appended for it."""
        before = self._seq
        self._seq += len(cohort)
        fault = self.fault
        if fault is not None:
            # Fires after the whole cohort is durable, before the engine
            # sees any of it — the worst moment: state and log maximally
            # disagree.
            self._flush_wal()
        try:
            if fault is not None:
                for index in range(before, self._seq):
                    fault.on_logged(index)
            matches = self.engine.feed_batch(cohort)
        except CrashError:
            # A simulated process death: the WAL keeps the cohort (flushed
            # above whenever an injector is installed), the files are let go.
            self._close_handles()
            raise
        except Exception as exc:
            self._unlog(wal_bytes, before, exc)
            raise
        delivered = self._deliver(matches)
        if self._seq // self.checkpoint_every > before // self.checkpoint_every:
            self.checkpoint()
        return delivered

    def _unlog(self, wal_bytes: int, seq: int, exc: Exception) -> None:
        """The engine refused the call: take it back out of the WAL.

        Nothing of a refused call may stay logged — replay would raise
        the same error from every later recovery.  *wal_bytes* is the
        byte length :meth:`feed` wrote, so the cut lands where the call
        began.  The engine may have consumed part of the cohort, so this
        runner is unusable; a fresh one recovers to the state before the
        call.
        """
        self._close_handles()
        os.truncate(self._wal_path, self._wal_path.stat().st_size - wal_bytes)
        self._seq = seq
        self._failed = (
            f"the engine refused an element ({type(exc).__name__}: {exc}); the "
            "call was taken back out of the WAL, so this runner's engine is "
            "ahead of the log — rebuild from the directory"
        )

    def close(self) -> List[Match]:
        """Flush the engine, deliver final matches, write a final checkpoint."""
        if self._failed is not None:
            raise RecoveryError(self._failed)
        if self._engine_closed:
            return []
        self._wal_write(b'{"kind": "close"}\n', 1)
        matches = self.engine.close()
        self._engine_closed = True
        delivered = self._deliver(matches)
        self.checkpoint()
        self._close_handles()
        return delivered

    # -- delivery -------------------------------------------------------------------

    def _deliver(self, matches: List[Match]) -> List[Match]:
        """Log and hand over *matches*, then take them from the engine.

        Once a match is in the delivery log (or verified against it) it
        is the log's, so the engine forgets it and the next checkpoint
        covers live state only.
        """
        delivered: List[Match] = []
        lines: List[str] = []
        suppress = self._suppress
        for match in matches:
            seq = self._delivered
            self._delivered = seq + 1
            if suppress:
                record = _match_record(match, seq)
                expected = suppress.popleft()
                if record != expected:
                    raise RecoveryError(
                        f"replay re-emitted {record} where the delivery "
                        f"log recorded {expected} — logs and engine "
                        "determinism disagree"
                    )
                continue
            lines.append(_delivery_line(match, seq))
            delivered.append(match)
        if lines:
            # WAL first: a delivery record must never be durable while
            # the element that triggered it is not.
            self._flush_wal()
            if self._delivered_handle is None:
                self._delivered_handle = self._delivered_path.open(
                    "a", encoding="utf-8"
                )
            self._delivered_handle.write("".join(lines))
            self._delivered_handle.flush()
            self.matches.extend(delivered)
        if matches:
            # Suppressed re-emissions come first, so the delivered ones
            # are the tail of what the engine just recorded.
            taken = self.engine.take_emissions()
            self.emissions.extend(taken[len(taken) - len(delivered):])
        return delivered

    def take_emissions(self) -> List[EmissionRecord]:
        """The runner-side :meth:`Engine.take_emissions`: the records of what
        was delivered since the last take; :attr:`matches` / :attr:`emissions`
        start over.  A runner nobody takes from keeps its incarnation's lists.
        """
        taken = self.emissions
        self.matches = []
        self.emissions = []
        return taken

    # -- durable writes ---------------------------------------------------------------

    def _wal_write(self, data: bytes, records: int) -> None:
        # Buffered: the flush is deferred until something downstream
        # depends on these records being on disk — a delivery-log append
        # (the WAL-never-behind-deliveries invariant recovery checks), a
        # checkpoint, or close.  A crash can lose at most the buffered
        # tail, and those elements are simply re-fed from the input —
        # they produced no durable delivery by construction.
        if self._wal_handle is None:
            self._wal_handle = self._wal_path.open("ab")
        self._wal_handle.write(data)
        self._wal_dirty = True
        if self._c_wal is not None:
            self._c_wal.inc(records)

    def _flush_wal(self) -> None:
        if self._wal_dirty and self._wal_handle is not None:
            self._wal_handle.flush()
            self._wal_dirty = False

    def sync(self) -> None:
        """Make the buffered WAL tail durable now.

        The deferred-flush contract (see :meth:`_wal_write`) assumes
        un-flushed elements can simply be re-fed from the input.  An
        ingestion gateway breaks that assumption the moment it *acks* a
        frame — an acked element will never be resent — so it must sync
        between feeding a group of frames and acknowledging them.
        """
        probe = self.sync_probe
        if probe is None:
            self._flush_wal()
            return
        clock, report = probe
        started = clock()
        self._flush_wal()
        report(clock() - started)

    def checkpoint(self) -> None:
        """Atomically persist the engine snapshot + log positions."""
        self._flush_wal()
        payload = pickle.dumps(
            {
                "format": CHECKPOINT_FORMAT,
                "seq": self._seq,
                "delivered": self._delivered,
                "closed": self._engine_closed,
                "snapshot": self.engine.snapshot(),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        tmp = self._checkpoint_path.with_name(CHECKPOINT_NAME + ".tmp")
        with tmp.open("wb") as handle:
            handle.write(payload)
        os.replace(tmp, self._checkpoint_path)
        self.checkpoints_written += 1
        if self._c_checkpoints is not None:
            self._c_checkpoints.inc()
        if self._g_checkpoint_bytes is not None:
            self._g_checkpoint_bytes.set(len(payload))

    # -- diagnostics ------------------------------------------------------------------

    @property
    def seq(self) -> int:
        """Input elements durably logged and processed so far."""
        return self._seq

    @property
    def delivered_count(self) -> int:
        """Matches delivered downstream across ALL incarnations."""
        return self._delivered

"""JSON-lines wire format and transport endpoints of the scheduler service.

One request or event per line, UTF-8 JSON with a mandatory discriminator:
requests carry ``op`` (``submit``, ``flush``, ``stats``, ``close``), events
carry ``event`` (``accepted``, ``decision``, ``flushed``, ``stats``,
``closed``, ``error``).  The format is line-oriented so any language — or
``socat`` in a terminal — can drive the service.  A request line longer
than :data:`MAX_LINE_BYTES` is answered with :data:`OVERLONG_LINE_ERROR`
and the connection is closed.

``accepted`` events carry an explicit ``accepted`` boolean: ``true`` once
the service has validated the submission — its ``task_type`` has a row in
the PET, its ``task_id`` is unused and its arrival is not behind the
engine's processed virtual-time frontier — and
sent *before* the engine advances on its behalf, so the ack never waits
for the scheduling that arrival releases.  An accepted task is injected:
a failure after the ack is internal and fatal (an ``error`` event with
``"fatal": true``, then EOF), never a per-task ``error`` for that id.
``false`` (with a ``reason``, currently ``"overloaded"``) means
backpressure rejected it at the door — a rejected submission never
touches the engine and never produces decisions.

Submissions already queued when the service turns to them are admitted
as one *run*: every member is answered — one write per client, its
``accepted``/``error`` replies in request order — before the run's
scheduling, and every decision the run released follows in one write
after it.  A queued submission joins a run only when one-at-a-time
admission would surely accept it too: it is admissible now, its id is
new to the run, and it arrives no earlier than any member.  Any other
submission heads the next run, so replies, their order per connection,
rejection counts and decisions are those of admitting one submission at
a time.

The same wire format runs over two transports, selected by an *endpoint*
string: a filesystem path or ``unix:PATH`` serves a local Unix socket;
``tcp:HOST:PORT`` serves TCP (``PORT`` ``0`` binds an ephemeral port).
:func:`parse_endpoint` normalises the notation and :func:`open_endpoint`
opens a client connection to either.

Task payloads mirror the recorded-trace schema
(:mod:`repro.workload.traces`): integral ``task_id``/``task_type``/
``arrival``/``deadline``, validated strictly on receipt so a malformed
submission is answered with an ``error`` event instead of corrupting the
live system.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from ..workload.spec import TaskSpec, integral_field

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio  # the codec runs without it; only ``open_endpoint`` imports it

    from .service import Decision  # avoids an import cycle

__all__ = [
    "MAX_LINE_BYTES",
    "OVERLONG_LINE_ERROR",
    "decode_line",
    "encode_line",
    "format_endpoint",
    "open_endpoint",
    "parse_endpoint",
    "spec_from_payload",
    "spec_to_payload",
    "decision_to_payload",
]

#: Longest request line a service reads (asyncio's default stream limit,
#: passed explicitly to the service's server).
MAX_LINE_BYTES = 2**16

#: The event answering a longer line, just before the connection closes.
OVERLONG_LINE_ERROR = {
    "event": "error",
    "message": f"request line longer than {MAX_LINE_BYTES} bytes; closing the connection",
}

#: Fields every submitted task must carry (the recorded-trace field set).
_TASK_FIELDS = ("task_id", "task_type", "arrival", "deadline")


# ----------------------------------------------------------------------
# Transport endpoints.
# ----------------------------------------------------------------------
def parse_endpoint(value: str | Path) -> tuple:
    """Normalise an endpoint string into ``("unix", path)`` or
    ``("tcp", host, port)``.

    Accepted notations: a bare filesystem path or ``unix:PATH`` (Unix
    socket), and ``tcp:HOST:PORT`` / ``tcp://HOST:PORT`` (TCP).  An empty
    host defaults to ``127.0.0.1``; port ``0`` is allowed for listeners
    (the OS picks an ephemeral port).
    """
    if isinstance(value, Path):
        return ("unix", str(value))
    text = str(value)
    if text.startswith("tcp:"):
        rest = text[4:]
        if rest.startswith("//"):
            rest = rest[2:]
        host, sep, port_text = rest.rpartition(":")
        if not sep:
            raise ValueError(f"tcp endpoint needs HOST:PORT, got {value!r}")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"tcp endpoint port must be an integer, got {port_text!r}") from None
        if not 0 <= port <= 65535:
            raise ValueError(f"tcp endpoint port out of range: {port}")
        return ("tcp", host or "127.0.0.1", port)
    if text.startswith("unix:"):
        text = text[5:]
    if not text:
        raise ValueError("endpoint must not be empty")
    return ("unix", text)


def format_endpoint(spec: tuple) -> str:
    """The canonical endpoint string for a parsed endpoint tuple."""
    if spec[0] == "unix":
        return spec[1]
    return f"tcp:{spec[1]}:{spec[2]}"


async def open_endpoint(
    value: str | Path,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a client stream to a service endpoint (Unix socket or TCP).

    asyncio is imported here, not at module level, so a process that only
    encodes or decodes wire lines never loads the network stack.
    """
    import asyncio

    spec = parse_endpoint(value)
    if spec[0] == "tcp":
        return await asyncio.open_connection(spec[1], spec[2])
    return await asyncio.open_unix_connection(spec[1])


def encode_line(payload: Mapping) -> bytes:
    """One wire line: compact JSON plus the newline terminator."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes | str) -> dict:
    """Parse one wire line into a payload dict.

    Raises
    ------
    ValueError
        If the line is not a JSON object.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("wire lines must be JSON objects")
    return payload


def spec_to_payload(spec: TaskSpec) -> dict[str, int]:
    """Serialise one task spec for a ``submit`` request."""
    return {
        "task_id": spec.task_id,
        "task_type": spec.task_type,
        "arrival": spec.arrival,
        "deadline": spec.deadline,
    }


def spec_from_payload(payload: Mapping) -> TaskSpec:
    """Validate and rebuild a submitted task.

    Validates exactly as the recorded-trace loader does
    (:func:`~repro.workload.spec.integral_field`): every field must be
    present and an exact integer in the signed 64-bit range, and
    :class:`TaskSpec` enforces the arrival/deadline ordering — errors name
    the offending field.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("task payload must be an object")
    values: dict[str, int] = {}
    for name in _TASK_FIELDS:
        try:
            raw = payload[name]
        except (KeyError, TypeError):
            raise ValueError(f"task payload is missing field {name!r}") from None
        values[name] = integral_field(raw, f"task field {name!r}")
    try:
        return TaskSpec(
            arrival=values["arrival"],
            task_id=values["task_id"],
            task_type=values["task_type"],
            deadline=values["deadline"],
        )
    except ValueError as exc:
        raise ValueError(str(exc)) from None


def decision_to_payload(decision: "Decision") -> dict[str, object]:
    """Serialise one streamed decision event."""
    payload: dict[str, object] = {
        "event": "decision",
        "seq": decision.seq,
        "task_id": decision.task_id,
        "action": decision.action,
        "time": decision.time,
        "latency_s": decision.latency_s,
    }
    if decision.machine is not None:
        payload["machine"] = decision.machine
    if decision.reason is not None:
        payload["reason"] = decision.reason
    if decision.on_time is not None:
        payload["on_time"] = decision.on_time
    return payload

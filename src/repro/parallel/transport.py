"""Worker transport for the portfolio race: one frame protocol for every slot.

The paper's Figure 1 sketch — "one instance of our heuristic on a separate
machine" — spans actual machines.  The supervised race in
:mod:`repro.parallel.pool` drives :class:`WorkerChannel` objects obtained
from a :class:`WorkerTransport`, and every channel speaks the same
length-prefixed JSON frame protocol, whether its worker is

* a **local slot**: a child process holding one end of a
  ``socket.socketpair()``.  It initialises its worker context once from
  the race's shared precompute (inherited under fork, rebuilt from the
  :class:`~repro.parallel.precompute.PrecomputeSpec` under spawn) and then
  serves its socket with :meth:`WorkerServer.serve_connection`, the loop
  ``stsyn worker`` runs;
* a **remote endpoint**: a ``stsyn worker --listen`` server reached over
  TCP, which rebuilds the protocol from the shipped builder reference.

Failure detection is the same for both.  A crash is EOF (or, for a local
slot, a dead process).  Silence is not: a partitioned network or a wedged
worker delivers nothing, so every dispatched job carries a **lease** — the
worker heartbeats while it computes, and the supervisor re-dispatches a
config whose lease misses its heartbeats (see ``pool.py``).  A late result
from the original worker is then a *duplicate*: accepted only if its
convergence certificate independently re-checks, discarded otherwise.
When an endpoint is lost and cannot be replaced the transport degrades to
local slots (``transport.degraded_to_local``), so the race still completes
with zero live remotes.

Wire protocol (both directions): a 4-byte big-endian length prefix, then
that many bytes of UTF-8 JSON.  Coordinator→worker frames: ``job``,
``cancel``, ``shutdown``.  Worker→coordinator: ``hello`` (on connect),
``heartbeat``, ``result``, ``error``.  Everything on the wire is plain
JSON — configs via :func:`config_to_payload`, outcomes via
:func:`outcome_to_payload`, exceptions via :func:`error_frame` (type name,
message and keyword fields); a remote job also carries the protocol as an
importable builder reference (:func:`builder_ref`) and the race's
:class:`~repro.faults.runtime.FaultPlan`, so one ``REPRO_FAULT_PLAN`` on
the coordinator drives a whole-cluster chaos drill.

Network fault injection hooks live in :mod:`repro.faults.runtime`
(``drop_frame``, ``delay_frame``, ``duplicate_result``, ``partition``,
``stale_lease``) and fire on the worker's send path — local and remote
alike — so every recovery path above is deterministically testable without
a flaky network.
"""

from __future__ import annotations

import builtins
import dataclasses
import importlib
import inspect
import json
import os
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core import exceptions as core_exceptions
from ..core.exceptions import TransportError
from ..core.heuristic import HeuristicOptions
from ..core.synthesizer import SynthesisConfig
from ..faults import runtime as fault_runtime
from ..faults.runtime import FaultPlan
from ..trace.tracer import NULL_TRACER

#: length-prefix format: 4-byte unsigned big-endian
_LEN = struct.Struct(">I")

#: refuse frames beyond this (a corrupt prefix must not allocate 4 GiB)
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: default TCP port for ``stsyn worker --listen`` when none is given
DEFAULT_WORKER_PORT = 9178


# ----------------------------------------------------------------------
# frame protocol
# ----------------------------------------------------------------------


def encode_frame(obj: dict) -> bytes:
    """Length-prefixed JSON frame bytes for one message."""
    body = json.dumps(obj, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {len(body)} bytes exceeds limit")
    return _LEN.pack(len(body)) + body


def send_frame(sock: socket.socket, obj: dict) -> None:
    """Send one frame; any socket failure surfaces as TransportError."""
    try:
        sock.sendall(encode_frame(obj))
    except (OSError, ValueError) as exc:
        raise TransportError(f"frame send failed: {exc}") from exc


class FrameBuffer:
    """Incremental frame parser: the one frame decoder, on both ends."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        """Append raw bytes; return every now-complete frame."""
        self._buf.extend(data)
        frames = []
        while True:
            if len(self._buf) < _LEN.size:
                return frames
            (length,) = _LEN.unpack(self._buf[: _LEN.size])
            if length > MAX_FRAME_BYTES:
                raise TransportError(f"frame length {length} exceeds limit")
            end = _LEN.size + length
            if len(self._buf) < end:
                return frames
            body = bytes(self._buf[_LEN.size:end])
            del self._buf[:end]
            try:
                obj = json.loads(body.decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise TransportError(f"malformed frame: {exc}") from exc
            if not isinstance(obj, dict):
                raise TransportError("frame payload is not a JSON object")
            frames.append(obj)


# ----------------------------------------------------------------------
# payload codecs: everything on the wire is plain JSON
# ----------------------------------------------------------------------


def config_to_payload(config: SynthesisConfig) -> dict:
    return {
        "schedule": list(config.schedule),
        "options": dataclasses.asdict(config.options),
    }


def config_from_payload(payload: dict) -> SynthesisConfig:
    return SynthesisConfig(
        schedule=tuple(payload["schedule"]),
        options=HeuristicOptions(**payload["options"]),
    )


def outcome_to_payload(outcome) -> dict:
    """JSON record of a :class:`~repro.parallel.ParallelOutcome` (config is
    NOT included — the coordinator reattaches it from the lease)."""
    return {
        "success": outcome.success,
        "pss_groups": (
            [sorted(g) for g in outcome.pss_groups]
            if outcome.pss_groups is not None
            else None
        ),
        "remaining_deadlocks": outcome.remaining_deadlocks,
        "timers": dict(outcome.timers),
        "counters": dict(outcome.counters),
        "cancelled": outcome.cancelled,
        "cancel_reason": outcome.cancel_reason,
        "duration": outcome.duration,
        "retries": outcome.retries,
        "certificate": outcome.certificate,
    }


def outcome_from_payload(config: SynthesisConfig, payload: dict):
    from .pool import ParallelOutcome

    pss = payload.get("pss_groups")
    return ParallelOutcome(
        config=config,
        success=bool(payload.get("success", False)),
        pss_groups=(
            [set(map(tuple, g)) for g in pss] if pss is not None else None
        ),
        remaining_deadlocks=int(payload.get("remaining_deadlocks", -1)),
        timers=dict(payload.get("timers", {})),
        counters=dict(payload.get("counters", {})),
        cancelled=bool(payload.get("cancelled", False)),
        cancel_reason=payload.get("cancel_reason"),
        duration=float(payload.get("duration", 0.0)),
        retries=int(payload.get("retries", 0)),
        certificate=payload.get("certificate"),
    )


def builder_ref(builder: Callable, builder_args: tuple) -> dict:
    """Importable reference to a protocol builder, shippable as JSON.

    A remote worker cannot receive a pickled closure over a JSON wire; it
    re-imports ``module:qualname`` and calls it with the (JSON-checked)
    arguments — exactly what the spawn start method already requires of
    builders, so every builder that works locally today qualifies.
    """
    module = getattr(builder, "__module__", None)
    qualname = getattr(builder, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise TransportError(
            f"builder {builder!r} is not importable (module-level callables "
            "only); remote workers re-import it by name"
        )
    try:
        json.dumps(list(builder_args))
    except (TypeError, ValueError) as exc:
        raise TransportError(
            f"builder args {builder_args!r} are not JSON-serialisable: {exc}"
        ) from exc
    ref = {"ref": f"{module}:{qualname}", "args": list(builder_args)}
    resolved, _ = resolve_builder(ref)  # fail fast on the coordinator
    if resolved is not builder:
        raise TransportError(
            f"builder {module}:{qualname} does not resolve back to itself"
        )
    return ref


def resolve_builder(ref: dict) -> tuple[Callable, tuple]:
    """Worker-side inverse of :func:`builder_ref`."""
    try:
        module_name, _, qualname = str(ref["ref"]).partition(":")
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        return obj, tuple(ref.get("args", ()))
    except (KeyError, ImportError, AttributeError, ValueError) as exc:
        raise TransportError(f"cannot resolve builder {ref!r}: {exc}") from exc


#: keyword fields of the typed synthesis exceptions, carried in error frames
_ERROR_FIELDS = (
    "violation",
    "state",
    "transition",
    "n_unreachable",
    "remaining_deadlocks",
    "reason",
)


def _json_default(value):
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON-serialisable")


def _encode_field(name: str, value):
    if name == "violation":  # its kind, message and counterexample
        return {
            "kind": value.kind,
            "message": str(value),
            "transition": value.transition,
            "group": value.group,
            "state": value.state,
        }
    return value


def _decode_field(name: str, value):
    if name == "violation":
        # local import: repro.cert imports repro.parallel.cache
        from ..cert import CertificateViolation

        fields = {
            key: tuple(item) if isinstance(item, list) else item
            for key, item in value.items()
        }
        return CertificateViolation(
            fields.pop("kind"), fields.pop("message"), **fields
        )
    return tuple(value) if name == "transition" else value


def error_frame(lease_id: str, exc: BaseException) -> dict:
    """Wire record of a worker-side exception: type name, message and the
    keyword fields of the typed synthesis exceptions (``violation`` travels
    as the :class:`~repro.cert.CertificateViolation`'s kind, message and
    counterexample)."""
    fields = {}
    for name in _ERROR_FIELDS:
        value = getattr(exc, name, None)
        if value is not None:
            try:
                fields[name] = json.loads(
                    json.dumps(_encode_field(name, value), default=_json_default)
                )
            except (TypeError, ValueError):
                pass  # an unserialisable field stays behind
    return {
        "t": "error",
        "lease_id": lease_id,
        "exc_type": type(exc).__name__,
        "message": str(exc),
        "fields": fields,
    }


def _exception_from_frame(frame: dict) -> BaseException:
    """Rebuild a worker-side exception from its wire record.

    Known synthesis exceptions (complete negative answers like
    ``NotClosedError``) and builtin exceptions reconstruct as their own
    type, with their keyword fields, so the parent's "answers re-raise,
    never retry" rule keeps working across the wire; anything else becomes
    a RuntimeError carrying the original type name.
    """
    exc_type = str(frame.get("exc_type", "RuntimeError"))
    message = str(frame.get("message", ""))
    cls = getattr(core_exceptions, exc_type, None) or getattr(
        builtins, exc_type, None
    )
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            params = inspect.signature(cls).parameters
        except ValueError:  # builtin types expose no signature
            params = {}
        try:
            kwargs = {
                name: _decode_field(name, value)
                for name, value in (frame.get("fields") or {}).items()
                if name in params
            }
            return cls(message, **kwargs)
        except (TypeError, ValueError):
            pass
    return RuntimeError(f"worker raised {exc_type}: {message}")


def parse_endpoint(spec: str) -> tuple[str, int]:
    """``"host:port"`` (or bare ``"host"`` with the default port) → tuple."""
    spec = spec.strip()
    host, sep, port = spec.rpartition(":")
    if not sep:
        return spec, DEFAULT_WORKER_PORT
    try:
        return host or "127.0.0.1", int(port)
    except ValueError as exc:
        raise TransportError(f"bad worker endpoint {spec!r}") from exc


# ----------------------------------------------------------------------
# the channel: one supervised worker slot
# ----------------------------------------------------------------------


@dataclass
class Message:
    """One normalised worker→supervisor message."""

    kind: str  # "heartbeat" | "result" | "error"
    lease_id: str
    #: outcome payload of a result (decoded once the config is known)
    payload: dict | None = None
    error: BaseException | None = None


class WorkerChannel:
    """One supervised worker slot speaking JSON frames over a socket.

    ``proc`` is the child process behind a local slot (None for a remote
    endpoint): ``kill``, ``alive``, ``exitcode`` and ``close`` act on it.
    A remote worker cannot be killed from here; dropping the connection
    makes it cancel its job and return to ``accept``.
    """

    def __init__(
        self,
        sock: socket.socket,
        template: dict,
        *,
        proc=None,
        endpoint: tuple[str, int] | None = None,
    ):
        self.sock = sock
        self.template = template
        self.proc = proc
        self.endpoint = endpoint
        self.remote = proc is None
        self.worker_id = (
            f"{endpoint[0]}:{endpoint[1]}" if endpoint else f"local-pid{proc.pid}"
        )
        #: a remote worker's hello was read at connect; a local one's
        #: arrives once its process has started (see ``pump``)
        self.greeted = self.remote
        self._buffer = FrameBuffer()
        self._closed = False
        sock.setblocking(False)

    # -- sending -------------------------------------------------------
    def _send(self, frame: dict) -> None:
        if self._closed:
            raise TransportError(f"channel to {self.worker_id} is closed")
        try:
            self.sock.setblocking(True)
            send_frame(self.sock, frame)
        finally:
            if not self._closed:
                self.sock.setblocking(False)

    def send_job(self, job: dict) -> None:
        frame = dict(self.template)
        frame.update(
            t="job",
            lease_id=job["lease_id"],
            index=job["index"],
            attempt=job["attempt"],
            config=config_to_payload(job["config"]),
            trace_path=job["trace_path"],
        )
        self._send(frame)

    def send_cancel(self) -> None:
        """Best-effort 'stop the running job' signal."""
        try:
            self._send({"t": "cancel"})
        except TransportError:
            pass

    def send_shutdown(self) -> None:
        """Best-effort graceful shutdown signal."""
        try:
            self._send({"t": "shutdown"})
        except TransportError:
            pass

    # -- receiving -----------------------------------------------------
    def wait_handle(self):
        """Object accepted by ``multiprocessing.connection.wait``."""
        return self.sock

    def pump(self) -> list[Message]:
        """Drain every available message; TransportError on a dead peer."""
        frames = []
        eof = False
        try:
            while True:
                data = self.sock.recv(65536)
                if not data:
                    eof = True  # deliver already-buffered frames first
                    break
                frames.extend(self._buffer.feed(data))
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            eof = True
        if eof:
            # a result that arrived just before the peer closed (e.g. a
            # worker exiting after --max-jobs) must not be lost: surface
            # the EOF only when there is nothing left to deliver
            self._closed = True
            if not frames:
                raise TransportError(
                    f"worker {self.worker_id} closed the connection"
                )
        messages = []
        for frame in frames:
            kind = frame.get("t")
            lease_id = str(frame.get("lease_id", ""))
            if kind == "hello":
                self.greeted = True
            elif kind == "heartbeat":
                messages.append(Message(kind="heartbeat", lease_id=lease_id))
            elif kind == "result":
                messages.append(
                    Message(
                        kind="result",
                        lease_id=lease_id,
                        payload=frame.get("outcome") or {},
                    )
                )
            elif kind == "error":
                messages.append(
                    Message(
                        kind="error",
                        lease_id=lease_id,
                        error=_exception_from_frame(frame),
                    )
                )
            # unknown frames are connection chatter, not results
        return messages

    # -- lifecycle -----------------------------------------------------
    def alive(self) -> bool:
        if self._closed:
            return False
        return self.proc is None or self.proc.is_alive()

    def kill(self) -> None:
        """Hard-stop the worker behind this channel (watchdog path)."""
        if self.proc is not None:
            self.proc.terminate()
        else:
            self.close()

    def close(self) -> None:
        # idempotent, and also reached after pump() observed EOF (where
        # _closed is already set but the descriptor is still open)
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        if self.proc is not None:
            self.proc.join(timeout=1.0)
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(timeout=2.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=2.0)

    def exitcode(self):
        return None if self.proc is None else self.proc.exitcode


# ----------------------------------------------------------------------
# the transport: where a race's slots come from
# ----------------------------------------------------------------------


class WorkerTransport:
    """The worker slots of one race: remote endpoints, else local processes.

    A local slot is ``local_main(sock, *local_args)`` in a child process of
    ``ctx``, holding one end of a ``socket.socketpair()``.  With
    ``endpoints`` given, ``open`` connects to every endpoint instead (a dead
    endpoint is skipped with an event and replaced by a local slot), and
    ``replace`` is the recovery policy:

    * a local slot is replaced by a new local slot;
    * ``reason="crash"`` (EOF / socket error) on a remote slot: one
      reconnect attempt to the same endpoint (``transport.reconnects``),
      then a local slot;
    * ``reason="lease"`` (missed heartbeats): no reconnect — the endpoint
      is either partitioned away or still busy computing the now-stale
      lease; go straight to a local slot so the re-dispatched config makes
      progress (``transport.degraded_to_local``);
    * ``reason="watchdog"``: same as crash (the kill dropped the
      connection, the worker server survives and accepts again).

    Every job frame asks its worker to heartbeat every
    ``heartbeat_interval`` seconds; one sent to a remote slot also carries
    ``remote_fields`` (builder reference, soft deadline and fault plan),
    which a local slot already holds from its process arguments.
    """

    def __init__(
        self,
        ctx,
        local_main: Callable,
        local_args: tuple,
        *,
        heartbeat_interval: float,
        endpoints: Sequence[str] = (),
        remote_fields: dict | None = None,
        tracer=NULL_TRACER,
        connect_timeout: float = 5.0,
        reconnect_timeout: float = 1.0,
    ):
        self.ctx = ctx
        self.local_main = local_main
        self.local_args = local_args
        self.template = {"heartbeat_interval": heartbeat_interval}
        self.endpoints = [parse_endpoint(e) for e in endpoints]
        self.remote_template = dict(self.template, **(remote_fields or {}))
        self.tracer = tracer
        self.connect_timeout = connect_timeout
        self.reconnect_timeout = reconnect_timeout

    def spawn_local(self) -> WorkerChannel:
        """Start one local worker process on a fresh socketpair."""
        parent_end, child_end = socket.socketpair()
        try:
            proc = self.ctx.Process(
                target=self.local_main,
                args=(child_end, *self.local_args),
                daemon=True,
            )
            proc.start()
        except BaseException:
            parent_end.close()
            raise
        finally:
            # the parent must not hold the child's end open, or a dead
            # worker would never surface as EOF
            child_end.close()
        return WorkerChannel(parent_end, self.template, proc=proc)

    # -- connection management ----------------------------------------
    def _connect(self, endpoint: tuple[str, int], timeout: float) -> WorkerChannel:
        try:
            sock = socket.create_connection(endpoint, timeout=timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to worker {endpoint[0]}:{endpoint[1]}: {exc}"
            ) from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # a server mid-job leaves the connect in its backlog: demand the
            # hello frame before trusting the channel, so a busy or wedged
            # endpoint fails fast instead of silently eating a job frame
            buffer, frames = FrameBuffer(), []
            while not frames:
                data = sock.recv(65536)
                if not data:
                    raise TransportError("connection closed before hello")
                frames = buffer.feed(data)
            if frames[0].get("t") != "hello":
                raise TransportError(
                    f"worker {endpoint[0]}:{endpoint[1]} sent "
                    f"{frames[0].get('t')!r} instead of hello"
                )
        except (OSError, TransportError) as exc:
            sock.close()
            raise TransportError(
                f"no hello from worker {endpoint[0]}:{endpoint[1]}: {exc}"
            ) from exc
        return WorkerChannel(sock, self.remote_template, endpoint=endpoint)

    def _degrade(self) -> WorkerChannel:
        self.tracer.count("transport.degraded_to_local")
        self.tracer.event("transport.degraded_to_local")
        return self.spawn_local()

    def open(self, n_slots: int) -> list[WorkerChannel]:
        if not self.endpoints:
            return [self.spawn_local() for _ in range(n_slots)]
        channels: list[WorkerChannel] = []
        for endpoint in self.endpoints:
            try:
                channels.append(self._connect(endpoint, self.connect_timeout))
            except TransportError as exc:
                self.tracer.event(
                    "transport.connect_failed",
                    endpoint=f"{endpoint[0]}:{endpoint[1]}",
                    error=str(exc),
                )
                channels.append(self._degrade())
        return channels

    def replace(self, channel: WorkerChannel, *, reason: str) -> WorkerChannel:
        if not channel.remote:
            return self.spawn_local()  # a local slot stays local
        if reason != "lease":
            try:
                replacement = self._connect(
                    channel.endpoint, self.reconnect_timeout
                )
            except TransportError:
                pass
            else:
                self.tracer.count("transport.reconnects")
                self.tracer.event(
                    "transport.reconnect", endpoint=replacement.worker_id
                )
                return replacement
        return self._degrade()


# ----------------------------------------------------------------------
# the worker side: one connection loop for local slots and ``stsyn worker``
# ----------------------------------------------------------------------


@dataclass
class _ActiveJob:
    lease_id: str
    cancel: threading.Event
    thread: threading.Thread | None = None
    #: set by the job thread once ``outcome`` or ``error`` is final
    done: threading.Event = field(default_factory=threading.Event)
    outcome: object | None = None
    error: BaseException | None = None


def _run_remote_job(frame: dict, config: SynthesisConfig, cancel) -> object:
    """A ``stsyn worker``'s job: rebuild the protocol from the shipped
    builder reference and run under the coordinator's fault plan."""
    from .pool import _worker

    builder, builder_args = resolve_builder(frame["builder"])
    plan_payload = frame.get("fault_plan")
    fault_runtime.install_fault_plan(
        FaultPlan(**plan_payload)
        if plan_payload is not None
        else FaultPlan.from_env()
    )
    context = {
        "soft_deadline": frame.get("soft_deadline"),
        "builder": builder,
        "builder_args": builder_args,
        "precompute": None,
    }
    # a remote worker cannot write into the coordinator's trace directory
    return _worker(
        context, config, int(frame.get("index", 0)), None,
        int(frame.get("attempt", 0)), cancel,
    )


class WorkerServer:
    """A single-tenant synthesis worker serving one coordinator at a time.

    :meth:`serve_connection` is the worker side of the frame protocol, for
    local slots and ``stsyn worker`` alike: it answers ``job`` frames by
    running the job in a thread, heartbeats every ``heartbeat_interval``
    while computing, honours ``cancel`` frames through the standard
    :class:`~repro.parallel.scheduler.CancelToken` path, and sends the
    outcome back as a ``result`` frame the moment the job returns.  A
    dropped connection cancels the running job and returns.

    As ``stsyn worker --listen``, :meth:`serve_forever` accepts one
    coordinator at a time and runs each job by rebuilding protocol and
    precompute from the shipped builder reference; a coordinator crash
    never wedges the fleet.

    All the network fault knobs of :class:`~repro.faults.runtime.FaultPlan`
    (frame drops/delays/duplication, partitions, stale leases) hook the
    send path here, and ``crash_worker_at`` still fires *inside* the job,
    taking the whole worker process down — the live-kill drill for a dead
    host.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_jobs: int | None = None,
        drain_timeout: float = 30.0,
        log: Callable[[str], None] | None = None,
    ):
        self.host = host
        self.port = port
        self.max_jobs = max_jobs
        self.drain_timeout = drain_timeout
        self.log = log or (lambda line: None)
        self.jobs_done = 0
        self._listener: socket.socket | None = None
        self._stop = threading.Event()
        self._drain = threading.Event()
        self._drain_deadline: float | None = None
        self._poke: socket.socket | None = None  # the serving loop's wake-up

    # -- lifecycle -----------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(4)
        listener.settimeout(0.2)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self.log(f"stsyn worker listening on {self.host}:{self.port}")
        return self.host, self.port

    def shutdown(self) -> None:
        self._stop.set()
        self._interrupt()

    def _interrupt(self) -> None:
        """Wake the connection loop so it sees a stop or drain now."""
        poke = self._poke
        if poke is not None:
            try:
                poke.send(b"!")
            except OSError:
                pass  # the loop already returned, or is awake anyway

    def request_drain(self) -> None:
        """Begin a graceful drain (SIGTERM path): stop accepting new
        coordinators, let the in-flight job finish — heartbeating all the
        while — up to ``drain_timeout`` seconds, deliver its result, then
        exit cleanly.  Today's alternative is a select loop dying mid-job
        and the coordinator paying a full lease timeout to notice."""
        if self._drain.is_set():
            return
        self._drain_deadline = time.monotonic() + max(0.0, self.drain_timeout)
        self._drain.set()
        self.log(
            f"drain requested: finishing in-flight work "
            f"(up to {self.drain_timeout:.0f}s), accepting no new jobs"
        )
        self._interrupt()

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def serve_forever(self) -> None:
        if self._listener is None:
            self.start()
        try:
            while not self._stop.is_set():
                if self._drain.is_set():
                    return  # no active coordinator: drained, exit now
                if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                    return
                try:
                    conn, addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                self.log(f"coordinator connected from {addr[0]}:{addr[1]}")
                try:
                    self.serve_connection(conn)
                finally:
                    try:
                        conn.close()
                    except OSError:
                        pass
                self.log("coordinator disconnected")
        finally:
            self._listener.close()
            self._listener = None

    # -- one connection ------------------------------------------------
    def serve_connection(
        self, conn: socket.socket, run_job: Callable = _run_remote_job
    ) -> None:
        """Serve one coordinator until shutdown, EOF or drain.

        ``run_job(frame, config, cancel)`` computes one job's
        :class:`~repro.parallel.ParallelOutcome`; the default rebuilds the
        protocol from the frame's builder reference (``stsyn worker``).
        """
        send_lock = threading.Lock()

        def ship(frame: dict, frame_kind: str) -> None:
            """Fault-hooked send: drop/delay/partition per the active plan."""
            if fault_runtime.should_drop_frame(frame_kind):
                return
            delay = fault_runtime.frame_delay(frame_kind)
            if delay > 0:
                time.sleep(delay)
            with send_lock:
                send_frame(conn, frame)

        try:
            with send_lock:
                send_frame(
                    conn,
                    {"t": "hello", "worker": f"pid{os.getpid()}", "max_jobs": self.max_jobs},
                )
        except TransportError:
            return

        # a remote job installs its coordinator's plan for this process;
        # a server embedded in another program hands the process back with
        # the plan it found
        previous_plan = fault_runtime.active_fault_plan()
        # the job thread pokes this pair when it finishes, so the result
        # leaves at once; ``shutdown`` and ``request_drain`` poke it too
        wake, poke = socket.socketpair()
        active: _ActiveJob | None = None
        heartbeat_interval = 1.0
        last_beat = 0.0
        buffer = FrameBuffer()
        # sends block until the peer has drained a large result frame;
        # reads only follow ``select``, so they never block
        conn.setblocking(True)
        wake.setblocking(False)
        self._poke = poke
        try:
            while not self._stop.is_set():
                # no polling: sleep until a frame, a poke or a deadline
                timeout = self._wait_for(active, last_beat + heartbeat_interval)
                try:
                    readable, _, _ = select.select([conn, wake], [], [], timeout)
                except (OSError, ValueError):
                    return
                if wake in readable:
                    try:
                        wake.recv(64)
                    except (BlockingIOError, InterruptedError):
                        pass
                frames = []
                if conn in readable:
                    try:
                        data = conn.recv(65536)
                    except OSError:
                        return
                    if not data:
                        return  # coordinator gone
                    frames = buffer.feed(data)
                for frame in frames:
                    kind = frame.get("t")
                    if kind == "job":
                        lease_id = str(frame.get("lease_id", ""))
                        if self._drain.is_set():
                            # draining: refuse, so the coordinator
                            # re-dispatches elsewhere instead of paying a
                            # lease timeout on a doomed assignment
                            ship(
                                error_frame(
                                    lease_id,
                                    TransportError("worker is draining"),
                                ),
                                "error",
                            )
                            continue
                        if active is not None:
                            ship(
                                error_frame(
                                    lease_id, TransportError("worker is busy")
                                ),
                                "error",
                            )
                            continue
                        active = self._start_job(frame, run_job, poke)
                        heartbeat_interval = float(
                            frame.get("heartbeat_interval", 1.0)
                        )
                        last_beat = time.monotonic()
                    elif kind == "cancel":
                        if active is not None:
                            active.cancel.set()
                    elif kind == "shutdown":
                        return
                now = time.monotonic()
                if active is not None and not active.done.is_set():
                    if now - last_beat >= heartbeat_interval:
                        # final heartbeats keep flowing during a drain, so
                        # the coordinator's lease stays fresh while the
                        # in-flight job wraps up
                        ship(
                            {"t": "heartbeat", "lease_id": active.lease_id},
                            "heartbeat",
                        )
                        last_beat = now
                    if (
                        self._drain.is_set()
                        and self._drain_deadline is not None
                        and now >= self._drain_deadline
                    ):
                        # drain budget exhausted: cancel cooperatively; the
                        # job returns a cancelled outcome at its next
                        # pass/rank boundary and is delivered below.  A job
                        # that ignores the token (hang drill) is abandoned
                        # another grace period later by the finally clause.
                        active.cancel.set()
                        if now >= self._drain_deadline + 5.0:
                            return
                elif active is not None:
                    # job finished: deliver its outcome (or error)
                    active.thread.join()
                    self._deliver(active, ship)
                    self.jobs_done += 1
                    active = None
                    if self._drain.is_set():
                        return  # drained: in-flight work delivered, exit
                    if (
                        self.max_jobs is not None
                        and self.jobs_done >= self.max_jobs
                    ):
                        return
                elif self._drain.is_set():
                    return  # idle and draining: nothing to wait for
        except TransportError:
            return
        finally:
            if active is not None:
                active.cancel.set()
                active.thread.join(timeout=30.0)
            self._poke = None
            wake.close()
            poke.close()
            fault_runtime.install_fault_plan(previous_plan)

    def _wait_for(self, active: _ActiveJob | None, next_beat: float):
        """Seconds until the loop has work of its own: deliver a finished
        job, heartbeat a running one, or act on its drain deadline (and the
        abandon point 5 s later); None when idle."""
        if active is None:
            return None
        now = time.monotonic()
        wake_at = now if active.done.is_set() else next_beat
        if self._drain_deadline is not None:
            deadline = self._drain_deadline
            wake_at = min(wake_at, deadline if now < deadline else deadline + 5.0)
        return max(0.0, wake_at - now)

    def _start_job(
        self, frame: dict, run_job: Callable, poke: socket.socket
    ) -> _ActiveJob:
        job = _ActiveJob(
            lease_id=str(frame.get("lease_id", "")), cancel=threading.Event()
        )

        def run() -> None:
            try:
                config = config_from_payload(frame["config"])
                self.log(f"job {job.lease_id}: {config.describe()}")
                job.outcome = run_job(frame, config, job.cancel)
            except BaseException as exc:  # travels back as an error frame
                job.error = exc
            finally:
                job.done.set()
                try:
                    poke.send(b"!")
                except OSError:
                    pass  # the connection loop already returned

        job.thread = threading.Thread(target=run, daemon=True)
        job.thread.start()
        return job

    def _deliver(self, job: _ActiveJob, ship) -> None:
        if job.error is not None:
            body = job.error
            self.log(f"job {job.lease_id}: error {type(body).__name__}: {body}")
            ship(error_frame(job.lease_id, body), "error")
            return
        # the stale-lease drill: sit on the finished result (no heartbeats
        # are flowing any more) until the coordinator's lease has expired
        delay = fault_runtime.stale_lease_delay()
        if delay > 0:
            time.sleep(delay)
        outcome = job.outcome
        frame = {
            "t": "result",
            "lease_id": job.lease_id,
            "outcome": outcome_to_payload(outcome),
        }
        self.log(
            f"job {job.lease_id}: done success={outcome.success} "
            f"cancelled={outcome.cancelled}"
        )
        ship(frame, "result")
        if fault_runtime.should_duplicate_result():
            ship(frame, "result")


def run_worker_server(
    listen: str,
    *,
    max_jobs: int | None = None,
    drain_timeout: float = 30.0,
    log: Callable[[str], None] | None = None,
) -> int:
    """Entry point of ``stsyn worker --listen host:port``; returns jobs done.

    SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish the
    in-flight job (heartbeats included) up to ``drain_timeout`` seconds,
    deliver its result, exit 0.  A second signal forces an immediate stop.
    The previous handlers are restored on return.
    """
    import signal

    host, port = parse_endpoint(listen)
    server = WorkerServer(
        host, port, max_jobs=max_jobs, drain_timeout=drain_timeout, log=log
    )

    def _on_signal(signum, frame):
        if server.draining:
            server.log("second signal: stopping immediately")
            server.shutdown()
        else:
            server.request_drain()

    previous = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _on_signal)
    except ValueError:
        pass  # not the main thread (embedded in tests): no signal hooks
    try:
        server.start()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        if server.draining:
            server.log("drained cleanly")
        return server.jobs_done
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

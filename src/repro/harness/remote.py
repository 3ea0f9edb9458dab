"""Distributed sweep execution: a TCP worker fleet for ``run_specs``.

Two halves, one wire protocol:

* **Server** -- :func:`serve` (CLI: ``tyr-repro worker-serve --port P
  --jobs N``) exposes this host's fork pool over TCP. Each connection
  is one sweep session: the client streams :class:`~repro.harness
  .pool.RunSpec` frames, the server fans them over ``N`` forked
  workers (the same ``_run_guarded`` path every local sweep uses,
  with per-run wall-clock timeouts and bounded crash retry), consults
  its **own** :class:`~repro.harness.cache.ResultCache` before
  running anything, and streams each outcome back the moment it
  lands.

* **Client** -- :class:`Fleet`, driven by
  :func:`repro.harness.pool._run_pool` when
  :class:`~repro.harness.pool.RunOptions` carries ``hosts``. Specs
  are ordered **longest-processing-time-first** by a
  :class:`CostModel` seeded from historical ``wall_s`` in JSON-lines
  run logs (fallback: static graph size x ``max_cycles``), then
  dispatched across the local pool and every connected host with
  work-stealing refill (each host is kept ``jobs + 1`` deep, so the
  next spec is queued behind the running ones and no host idles on
  round-trip latency). Results land in the client's cache
  incrementally and in spec order downstream, preserving the
  byte-identical serial-vs-distributed guarantee.

Wire format: every frame is an 8-byte big-endian length prefix plus a
payload. The first two frames of a connection (client hello, server
reply) are **JSON**, carrying ``PROTOCOL_VERSION`` plus the client's
``CACHE_VERSION`` and ``PLAN_VERSION``; a mismatched peer is rejected
with a clear error *before* any pickle is exchanged, so version skew
cannot explode inside ``pickle.loads``. Every later frame is a
pickle.

Failover: a host that drops its connection, fails a send, or (with a
``timeout``) goes silent with runs outstanding is declared lost; its
outstanding specs are re-queued at the front of the shared todo deque
and redispatched to the survivors -- the same outstanding-set
machinery that already guards against duplicate delivery after
worker-crash retries. ``host-connected`` / ``host-lost`` /
``remote-dispatched`` / ``remote-cache-hit`` events land in the run
log, and :class:`~repro.harness.runlog.ProgressLine` shows per-host
throughput.

.. warning::
   Job frames are pickles: a worker host executes what it is sent.
   Run ``worker-serve`` only on trusted networks (it binds
   ``127.0.0.1`` by default); there is no authentication layer.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import queue as queue_mod
import signal
import socket
import struct
import sys
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    HostLostError,
    RemoteProtocolError,
    RunTimeoutError,
    UnexpectedRunError,
    WorkerCrashError,
)
from repro.harness.cache import (
    CACHE_VERSION,
    PLAN_VERSION,
    CompileCache,
    ResultCache,
)

#: Bump on any incompatible change to the frame layout or the message
#: shapes below. Checked (with CACHE_VERSION and PLAN_VERSION) in the
#: JSON handshake before any pickle frame is read.
PROTOCOL_VERSION = 2

_MAGIC = "tyr-repro"
_HEADER = struct.Struct("!Q")
#: Refuse absurd frame lengths (a corrupt or hostile peer) before
#: allocating the buffer.
MAX_FRAME = 1 << 32


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise EOFError("connection closed")
        buf.extend(chunk)
    return bytes(buf)


def _send_blob(sock: socket.socket, blob: bytes) -> None:
    sock.sendall(_HEADER.pack(len(blob)) + blob)


def _recv_blob(sock: socket.socket) -> bytes:
    (n,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if n > MAX_FRAME:
        raise RemoteProtocolError(
            f"frame of {n} bytes exceeds the {MAX_FRAME}-byte bound")
    return _recv_exact(sock, n)


def send_frame(sock: socket.socket, obj: object) -> None:
    """Send one length-prefixed pickle frame."""
    _send_blob(sock, pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def recv_frame(sock: socket.socket) -> object:
    """Receive one length-prefixed pickle frame."""
    return pickle.loads(_recv_blob(sock))


def _send_json(sock: socket.socket, obj: dict) -> None:
    _send_blob(sock, json.dumps(obj, sort_keys=True).encode("utf-8"))


def _recv_json(sock: socket.socket) -> dict:
    return json.loads(_recv_blob(sock).decode("utf-8"))


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------

def hello_payload(timeout: Optional[float] = None) -> dict:
    """The client's JSON handshake frame."""
    return {
        "magic": _MAGIC,
        "protocol": PROTOCOL_VERSION,
        "cache_version": CACHE_VERSION,
        "plan_version": PLAN_VERSION,
        "timeout": timeout,
    }


def _hello_problem(hello: object) -> Optional[str]:
    """Why a client hello is unacceptable, or None if it matches."""
    if not isinstance(hello, dict) or hello.get("magic") != _MAGIC:
        return ("bad hello (expected a tyr-repro JSON handshake "
                "frame)")
    for field, ours in (("protocol", PROTOCOL_VERSION),
                        ("cache_version", CACHE_VERSION),
                        ("plan_version", PLAN_VERSION)):
        theirs = hello.get(field)
        if theirs != ours:
            return (f"{field} mismatch: client {theirs!r}, server "
                    f"{ours!r} -- results and cached plans would not "
                    f"be comparable across this fleet")
    return None


# ----------------------------------------------------------------------
# Cost model + LPT scheduling
# ----------------------------------------------------------------------

#: Unmeasured specs are assumed expensive: their heuristic estimate is
#: offset far above any plausible measured wall time, so they are
#: dispatched *before* every spec with history (pessimism shrinks the
#: makespan tail; optimism grows it).
_HEURISTIC_FLOOR = 1e6


def _family_of(desc: str) -> Tuple[Optional[str], Optional[str]]:
    """``(workload/scale, machine)`` parsed from a spec description
    (the ``spec`` field every run-log event carries)."""
    workload = machine = None
    for token in desc.split():
        if token.startswith("workload="):
            workload = token[len("workload="):]
        elif token.startswith("machine="):
            machine = token[len("machine="):]
    return workload, machine


class CostModel:
    """Wall-time estimates for specs, seeded from JSONL run logs.

    Estimation order for one spec:

    1. the mean ``wall_s`` of historical ``finished`` events whose
       ``spec`` description matches exactly;
    2. the mean over the spec's *family* (same workload/scale and
       machine, any configuration);
    3. a static heuristic, ``graph size x max_cycles`` (offset above
       every measured time -- unknown work is scheduled first).

    Only successful runs feed the model: failures say nothing about
    how long a healthy run takes.
    """

    def __init__(self) -> None:
        self._exact: Dict[str, List[float]] = {}
        self._family: Dict[Tuple, List[float]] = {}

    def record(self, desc: str, wall_s: float) -> None:
        self._exact.setdefault(desc, [0.0, 0])
        bucket = self._exact[desc]
        bucket[0] += wall_s
        bucket[1] += 1
        family = _family_of(desc)
        self._family.setdefault(family, [0.0, 0])
        fam = self._family[family]
        fam[0] += wall_s
        fam[1] += 1

    @property
    def n_observations(self) -> int:
        return sum(n for _, n in self._exact.values())

    @classmethod
    def from_run_logs(cls, paths: Sequence[str]) -> "CostModel":
        """Seed a model from ``finished`` events in JSONL run logs.

        Unreadable files and unparsable lines are skipped -- a stale
        or truncated log must never break a sweep, it only degrades
        the schedule.
        """
        model = cls()
        for path in paths:
            try:
                with open(path) as fh:
                    for line in fh:
                        try:
                            ev = json.loads(line)
                        except ValueError:
                            continue
                        if (ev.get("event") == "finished"
                                and ev.get("ok")
                                and isinstance(ev.get("wall_s"),
                                               (int, float))
                                and isinstance(ev.get("spec"), str)):
                            model.record(ev["spec"], float(ev["wall_s"]))
            except OSError:
                continue
        return model

    @classmethod
    def from_options(cls, opts) -> "CostModel":
        """Model seeded from ``opts.cost_logs`` plus ``opts.run_log``
        (when the latter is a filesystem path -- append-mode logs
        accumulate exactly the history wanted here)."""
        paths = [p for p in getattr(opts, "cost_logs", ()) or ()]
        run_log = getattr(opts, "run_log", None)
        if isinstance(run_log, (str, os.PathLike)):
            paths.append(os.fspath(run_log))
        return cls.from_run_logs([p for p in paths
                                  if os.path.exists(p)])

    def estimate(self, spec) -> float:
        """Relative cost of one :class:`RunSpec` (seconds when
        historical, heuristic units otherwise)."""
        desc = spec.describe()
        bucket = self._exact.get(desc)
        if bucket and bucket[1]:
            return bucket[0] / bucket[1]
        fam = self._family.get((f"{spec.workload}/{spec.scale}",
                                spec.machine))
        if fam and fam[1]:
            return fam[0] / fam[1]
        return self._heuristic(spec)

    @staticmethod
    def _heuristic(spec) -> float:
        from repro.harness.pool import workload_for

        try:
            size = (workload_for(spec).compiled.program
                    .static_instruction_count())
        except Exception:
            size = 1
        max_cycles = dict(spec.config).get("max_cycles", 50_000_000)
        return _HEURISTIC_FLOOR + float(size) * float(max_cycles)


def lpt_order(pending: Sequence[int], specs: Sequence,
              model: CostModel) -> List[int]:
    """``pending`` reordered longest-processing-time-first.

    Deterministic: equal estimates keep submission order. Downstream
    results are returned in *spec* order regardless, so the schedule
    only moves wall-clock, never bytes.
    """
    return sorted(pending,
                  key=lambda i: (-model.estimate(specs[i]), i))


def simulate_makespan(costs: Sequence[float], workers: int) -> float:
    """Makespan of greedy list scheduling: each job, in order, goes to
    the earliest-free of ``workers`` identical workers.

    This is the schedule both the local pool and the fleet implement
    (an idle worker immediately takes the head of the todo deque), so
    simulating it on a cost vector predicts -- and lets tests pin --
    the LPT-vs-submission-order makespan gap without wall-clock
    sleeps.
    """
    import heapq

    free = [0.0] * max(1, int(workers))
    heapq.heapify(free)
    makespan = 0.0
    for cost in costs:
        t = heapq.heappop(free) + float(cost)
        makespan = max(makespan, t)
        heapq.heappush(free, t)
    return makespan


# ----------------------------------------------------------------------
# Client: one connected host
# ----------------------------------------------------------------------

class HostConnection:
    """One live ``worker-serve`` peer of the fleet.

    The constructor performs the JSON version handshake synchronously
    (a rejection raises :class:`RemoteProtocolError`; a socket-level
    failure raises ``OSError`` so the fleet can fail over), then
    starts a reader thread that pushes every incoming frame -- or a
    ``None`` tombstone on disconnect -- onto the fleet's shared inbox
    queue tagged with this host.
    """

    def __init__(self, address: str, inbox: "queue_mod.Queue",
                 timeout: Optional[float] = None,
                 hello: Optional[dict] = None,
                 connect_timeout: float = 10.0):
        self.name = address
        host, _, port_text = address.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            port = -1
        if not host or not 0 < port < 65536:
            raise RemoteProtocolError(
                f"bad worker address {address!r} (expected host:port)")
        self.sock = socket.create_connection(
            (host, port), timeout=connect_timeout)
        try:
            _send_json(self.sock,
                       hello if hello is not None
                       else hello_payload(timeout))
            reply = _recv_json(self.sock)
        except OSError:
            self.sock.close()
            raise
        except (EOFError, ValueError) as err:
            self.sock.close()
            raise RemoteProtocolError(
                f"handshake with {address} failed before a reply "
                f"arrived ({type(err).__name__}: {err}) -- is that "
                f"really a tyr-repro worker?") from err
        if not (isinstance(reply, dict) and reply.get("ok")):
            reason = (reply.get("error", "no reason given")
                      if isinstance(reply, dict)
                      else f"malformed reply {reply!r}")
            self.sock.close()
            raise RemoteProtocolError(
                f"host {address} rejected the handshake: {reason}")
        self.sock.settimeout(None)
        self.jobs = max(1, int(reply.get("jobs", 1)))
        #: Work-stealing window: one spec queued behind the running
        #: ones hides the dispatch round-trip without hoarding tail
        #: work on a single host.
        self.window = self.jobs + 1
        #: index -> dispatch time (insertion-ordered, so failover can
        #: re-queue in dispatch order).
        self.inflight: Dict[int, float] = {}
        self.alive = True
        self.done_count = 0
        self.error: Optional[str] = None
        self.last_recv = time.monotonic()
        self._inbox = inbox
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True,
            name=f"tyr-host-{address}")
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            while True:
                msg = recv_frame(self.sock)
                self.last_recv = time.monotonic()
                self._inbox.put((self, msg))
        except Exception as err:
            if self.alive:
                self.error = f"{type(err).__name__}: {err}"
        self._inbox.put((self, None))

    def dispatch(self, index: int, spec) -> None:
        self.inflight[index] = time.monotonic()
        try:
            send_frame(self.sock, ("run", index, spec))
        except OSError:
            self.inflight.pop(index, None)
            raise

    def finished(self, index: int) -> None:
        self.inflight.pop(index, None)
        self.done_count += 1

    def close(self, goodbye: bool = False) -> None:
        self.alive = False
        try:
            if goodbye:
                send_frame(self.sock, ("bye",))
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Client: the fleet scheduler
# ----------------------------------------------------------------------

class Fleet:
    """Remote half of :func:`repro.harness.pool._run_pool`.

    Owns the host connections and the shared inbox their reader
    threads feed; the pool's dispatch loop calls :meth:`refill` /
    :meth:`poll` / :meth:`check_hung` each iteration, and this class
    re-queues a lost host's outstanding specs into the loop's own
    todo deque (bound via :meth:`bind`), so local crash-retry and
    remote failover share one outstanding-set.
    """

    def __init__(self, opts, log=None):
        self._opts = opts
        self._log = log
        self._inbox: "queue_mod.Queue" = queue_mod.Queue()
        self._hosts: List[HostConnection] = []
        self._todo: Optional[deque] = None
        self._attempts: Optional[Dict[int, int]] = None
        self._outstanding: Optional[set] = None

    # -- setup ---------------------------------------------------------
    def lpt_order(self, specs, pending) -> List[int]:
        model = CostModel.from_options(self._opts)
        return lpt_order(pending, specs, model)

    def bind(self, todo: deque, attempts: Dict[int, int],
             outstanding: set) -> None:
        self._todo = todo
        self._attempts = attempts
        self._outstanding = outstanding

    def connect(self) -> None:
        """Connect every configured host.

        A version-handshake rejection is fatal
        (:class:`RemoteProtocolError`); an unreachable host is logged
        as lost and skipped -- failover semantics start at connect
        time.
        """
        for address in self._opts.hosts:
            try:
                host = HostConnection(address, self._inbox,
                                      timeout=self._opts.timeout)
            except OSError as err:
                if self._log:
                    self._log.event("host-lost", host=address,
                                    error=f"connect failed: {err}",
                                    requeued=0)
                print(f"warning: worker host {address} unreachable "
                      f"({err}); continuing without it",
                      file=sys.stderr)
                continue
            self._hosts.append(host)
            if self._log:
                self._log.event("host-connected", host=address,
                                jobs=host.jobs)

    # -- steady state --------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total remote worker slots still alive."""
        return sum(h.jobs for h in self._hosts if h.alive)

    def refill(self, specs) -> None:
        """Top every live host up to its work-stealing window."""
        for host in self._hosts:
            if not host.alive:
                continue
            while self._todo and len(host.inflight) < host.window:
                index = self._todo.popleft()
                if index not in self._outstanding:
                    continue  # stale re-queue of a delivered spec
                self._attempts[index] += 1
                try:
                    host.dispatch(index, specs[index])
                except OSError as err:
                    self._attempts[index] -= 1
                    self._todo.appendleft(index)
                    self._fail_host(host, f"dispatch failed: {err}")
                    break
                if self._log:
                    self._log.event(
                        "remote-dispatched", index=index,
                        spec=specs[index].describe(), host=host.name,
                        attempt=self._attempts[index])

    def poll(self, block: float = 0.0) -> List[Tuple]:
        """Drain the inbox; returns ``(host, index, ok, blob, wall,
        cached)`` tuples and handles disconnect tombstones."""
        out: List[Tuple] = []
        first = True
        while True:
            try:
                if first and block > 0:
                    item = self._inbox.get(timeout=block)
                else:
                    item = self._inbox.get_nowait()
            except queue_mod.Empty:
                break
            first = False
            host, msg = item
            if msg is None:
                self._fail_host(host,
                                host.error or "connection closed")
                continue
            if (isinstance(msg, tuple) and msg
                    and msg[0] == "result" and len(msg) == 6):
                _, index, ok, blob, wall, cached = msg
                host.finished(index)
                out.append((host, index, ok, blob, wall, cached))
            # Unknown frame kinds are ignored: forward-compatible
            # within one PROTOCOL_VERSION.
        return out

    def check_hung(self) -> None:
        """Declare silent hosts with outstanding work lost.

        Only active with a per-run ``timeout``: the server enforces
        that bound itself and answers every run within it, so a host
        silent for twice the bound (plus slack) with runs outstanding
        is dead or partitioned, not slow.
        """
        timeout = self._opts.timeout
        if timeout is None:
            return
        bound = timeout * 2 + 15.0
        now = time.monotonic()
        for host in self._hosts:
            if (host.alive and host.inflight
                    and now - host.last_recv > bound):
                self._fail_host(
                    host, f"no response for {now - host.last_recv:.0f}s "
                          f"with {len(host.inflight)} run(s) "
                          f"outstanding")

    def _fail_host(self, host: HostConnection, reason: str) -> None:
        if not host.alive:
            return
        host.close()
        requeued = 0
        # Front of the deque, in dispatch order: under LPT these are
        # the longest still-missing runs, so survivors take them next.
        for index in reversed(list(host.inflight)):
            if index in self._outstanding:
                self._todo.appendleft(index)
                # A host loss is not the spec's fault: give the
                # attempt back so failover never eats the crash-retry
                # budget.
                self._attempts[index] -= 1
                requeued += 1
        host.inflight.clear()
        if self._log:
            self._log.event("host-lost", host=host.name,
                            error=str(reason), requeued=requeued)
        print(f"warning: worker host {host.name} lost ({reason}); "
              f"{requeued} run(s) redispatched to survivors",
              file=sys.stderr)

    def require_capacity(self, n_local_workers: int,
                         unfinished: int) -> None:
        if n_local_workers == 0 and self.capacity == 0:
            raise HostLostError(
                f"all remote worker hosts are gone and the local pool "
                f"has no workers (jobs=0); {unfinished} spec(s) "
                f"unfinished")

    def close(self) -> None:
        for host in self._hosts:
            if host.alive:
                host.close(goodbye=True)


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------

def _remote_worker(tasks, results, parent_pid: int) -> None:
    """Forked worker loop of a ``worker-serve`` host.

    Mirrors :func:`repro.harness.pool._pool_worker`, but pulls whole
    ``(token, spec)`` pairs (the spec set is open-ended: the client
    streams specs for the connection's lifetime) and polls the parent
    pid so a hard-killed server never leaks orphan workers.
    """
    from repro.harness.pool import _run_guarded

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    pid = os.getpid()
    while True:
        try:
            item = tasks.get(timeout=5.0)
        except queue_mod.Empty:
            if os.getppid() != parent_pid:
                return
            continue
        except (EOFError, OSError):
            return
        if item is None:
            return
        token, spec = item
        t0 = time.monotonic()
        ok, payload = _run_guarded(spec)
        wall = time.monotonic() - t0
        try:
            blob = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            ok = False
            blob = pickle.dumps(UnexpectedRunError(
                f"worker outcome could not be pickled back to the "
                f"server ({type(err).__name__}: {err}) "
                f"[{spec.describe()}]"))
        results.put((token, pid, wall, ok, blob))


def _conn_reader(conn: socket.socket, inbox: "queue_mod.Queue") -> None:
    try:
        while True:
            inbox.put(recv_frame(conn))
    except Exception:
        pass
    inbox.put(None)


def _serve_connection(conn: socket.socket, addr, jobs: int,
                      cache: Optional[ResultCache],
                      plan_cache: Optional[CompileCache],
                      fail_after: Optional[int],
                      quiet: bool) -> None:
    """One sweep session: handshake, then stream run/result frames."""
    from repro.harness.pool import cache_key, precompile_specs

    conn.settimeout(10.0)
    try:
        hello = _recv_json(conn)
    except (EOFError, OSError, ValueError, RemoteProtocolError):
        hello = None
    problem = _hello_problem(hello)
    if problem:
        if not quiet:
            print(f"worker-serve: rejected {addr[0]}:{addr[1]}: "
                  f"{problem}", flush=True)
        try:
            _send_json(conn, {"ok": False, "error": problem,
                              "protocol": PROTOCOL_VERSION})
        except OSError:
            pass
        return
    try:
        _send_json(conn, {"ok": True, "jobs": jobs,
                          "protocol": PROTOCOL_VERSION})
    except OSError:
        return
    conn.settimeout(None)
    timeout = hello.get("timeout")
    if not quiet:
        print(f"worker-serve: client {addr[0]}:{addr[1]} connected "
              f"(timeout={timeout})", flush=True)

    ctx = multiprocessing.get_context("fork")
    results_q = ctx.Queue()
    inbox: "queue_mod.Queue" = queue_mod.Queue()
    reader = threading.Thread(target=_conn_reader, args=(conn, inbox),
                              daemon=True)
    reader.start()

    workers: Dict[int, Tuple] = {}
    running: Dict[int, Tuple] = {}
    todo: deque = deque()
    keys: Dict[int, str] = {}
    attempts: Dict[int, int] = {}
    retries = 1
    sent = 0
    gone = False

    def spawn() -> None:
        tasks = ctx.Queue()
        proc = ctx.Process(target=_remote_worker,
                           args=(tasks, results_q, os.getpid()),
                           daemon=True)
        proc.start()
        workers[proc.pid] = (proc, tasks)

    def retire(pid: int):
        proc, _ = workers.pop(pid)
        if proc.is_alive():
            proc.terminate()
            proc.join(2.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        else:
            proc.join()
        return proc

    def send_result(token: int, ok: bool, blob: bytes, wall: float,
                    cached: bool) -> None:
        nonlocal sent
        send_frame(conn, ("result", token, ok, blob, wall, cached))
        sent += 1
        if fail_after is not None and sent >= fail_after:
            # Chaos hook for failover tests and drills: die *hard*
            # after N results, as an OOM-killed or power-cycled host
            # would -- but retire the forked workers first so the
            # half-open connection does not outlive the process.
            for worker_pid in list(workers):
                retire(worker_pid)
            os._exit(17)

    try:
        while True:
            # Intake: block briefly only when nothing is running.
            msgs: List[object] = []
            try:
                msgs.append(inbox.get(
                    timeout=0.0 if running else 0.2))
                while True:
                    msgs.append(inbox.get_nowait())
            except queue_mod.Empty:
                pass
            for msg in msgs:
                if msg is None:
                    gone = True
                    break
                if not isinstance(msg, tuple) or not msg:
                    continue
                if msg[0] == "bye":
                    gone = True
                    break
                if msg[0] != "run" or len(msg) != 3:
                    continue
                _, token, spec = msg
                attempts[token] = 0
                hit = None
                if cache is not None:
                    try:
                        keys[token] = cache_key(spec)
                        hit = cache.get(keys[token])
                    except Exception as err:
                        send_result(token, False, pickle.dumps(
                            UnexpectedRunError(
                                f"{type(err).__name__}: {err} while "
                                f"keying [{spec.describe()}]")),
                            0.0, False)
                        continue
                if hit is not None:
                    send_result(token, True,
                                pickle.dumps(
                                    hit, pickle.HIGHEST_PROTOCOL),
                                0.0, True)
                    continue
                if plan_cache is not None:
                    # Parent-side precompile: workers forked later
                    # inherit the lowering copy-on-write, and the
                    # plan store warms future sessions.
                    try:
                        precompile_specs([spec], plan_cache)
                    except Exception:
                        pass
                todo.append((token, spec))
            if gone:
                break

            # Keep the pool at strength and every worker busy.
            want = min(jobs, len(todo) + len(running))
            while len(workers) < want:
                spawn()
            for pid in [p for p in workers if p not in running]:
                if not todo:
                    break
                token, spec = todo.popleft()
                attempts[token] += 1
                workers[pid][1].put((token, spec))
                running[pid] = (token, spec, time.monotonic())

            # Collect and stream back.
            batch = []
            if running:
                try:
                    batch.append(results_q.get(timeout=0.05))
                    while True:
                        batch.append(results_q.get_nowait())
                except queue_mod.Empty:
                    pass
            for token, pid, wall, ok, blob in batch:
                if running.get(pid, (None,))[0] == token:
                    del running[pid]
                if ok and cache is not None and token in keys:
                    try:
                        cache.put(keys[token], pickle.loads(blob))
                    except Exception:
                        pass
                send_result(token, ok, blob, wall, False)

            # Crash detection (after draining, as in the local pool).
            dead = [pid for pid, (proc, _) in workers.items()
                    if not proc.is_alive()]
            for pid in dead:
                proc = retire(pid)
                token, spec, _ = running.pop(pid, (None, None, None))
                if token is None:
                    continue
                if attempts[token] <= retries:
                    todo.appendleft((token, spec))
                else:
                    send_result(token, False, pickle.dumps(
                        WorkerCrashError(
                            f"worker pid {pid} (exit code "
                            f"{proc.exitcode}) died running "
                            f"{spec.describe()}; giving up after "
                            f"{attempts[token]} attempt(s)")),
                        0.0, False)

            # Per-run wall-clock timeout, enforced server-side.
            if timeout is not None:
                now = time.monotonic()
                late = [(pid, token, spec, t0)
                        for pid, (token, spec, t0) in running.items()
                        if now - t0 > timeout]
                for pid, token, spec, t0 in late:
                    del running[pid]
                    retire(pid)
                    send_result(token, False, pickle.dumps(
                        RunTimeoutError(
                            f"run exceeded the {timeout:g}s "
                            f"wall-clock timeout: "
                            f"{spec.describe()}")),
                        now - t0, False)
    except (BrokenPipeError, ConnectionError, OSError):
        pass  # client vanished mid-send; teardown below
    finally:
        for pid in list(workers):
            retire(pid)
        if not quiet:
            print(f"worker-serve: client {addr[0]}:{addr[1]} done "
                  f"({sent} result(s) served)", flush=True)


def serve(port: int, jobs: Optional[int] = None,
          bind: str = "127.0.0.1",
          cache_dir: Optional[str] = None, use_cache: bool = True,
          ready=None, once: bool = False,
          fail_after: Optional[int] = None,
          quiet: bool = False) -> None:
    """Run a worker agent: accept sweep sessions forever.

    ``ready`` (any object with ``put``) receives the bound port --
    pass ``port=0`` to bind an ephemeral one. ``once`` serves a
    single connection then returns (tests/CI). ``fail_after=N`` makes
    the process hard-exit after streaming N results -- the chaos hook
    behind the failover tests.
    """
    jobs = jobs or max(1, (os.cpu_count() or 2) - 1)
    cache = ResultCache(cache_dir) if use_cache else None
    plan_cache = (CompileCache(os.path.join(cache.root, "plans"))
                  if cache is not None else None)
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((bind, port))
    srv.listen(8)
    actual_port = srv.getsockname()[1]
    if ready is not None:
        ready.put(actual_port)
    if not quiet:
        print(f"worker-serve: listening on {bind}:{actual_port} "
              f"(jobs={jobs}, cache="
              f"{cache.root if cache else 'off'})", flush=True)
    try:
        while True:
            conn, addr = srv.accept()
            try:
                _serve_connection(conn, addr, jobs, cache, plan_cache,
                                  fail_after, quiet)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
            if once:
                return
    except KeyboardInterrupt:
        if not quiet:
            print("worker-serve: interrupted", flush=True)
    finally:
        srv.close()

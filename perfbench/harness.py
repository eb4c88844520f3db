"""Process and HTTP plumbing: launching ``repro`` in fresh processes,
waiting for it to be ready, timing requests, and reaping children with
their peak resident set."""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Seconds a launch may take to print its ready banner / open its output.
READY_TIMEOUT = 120.0


class BenchError(RuntimeError):
    """The program did something the benchmark cannot continue past."""


def _tail(log: Path, lines: int = 15) -> str:
    try:
        text = log.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-lines:])


class Program:
    """How to start ``repro``: plainly, or under the span-recording
    launcher (``trace_dir`` set), which writes each process's spans to a
    file in that directory when the process ends or is asked to."""

    def __init__(self, work: Path, trace_dir: Path | None = None):
        self.work = work
        self.trace_dir = trace_dir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("REPRO_FEED_FAULT_PLAN", None)
        self._launches = 0
        self.procs: list[subprocess.Popen] = []

    def start(self, argv: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=self.env, cwd=self.work, stdin=subprocess.DEVNULL, **kwargs)
        self.procs.append(proc)
        return proc

    def close(self) -> None:
        """Kill and reap every process this program started that is still
        running (after an aborted round)."""
        for proc in self.procs:
            if proc.returncode is None:
                reap(proc, sig=signal.SIGKILL)

    def argv(self, args: list[str]) -> tuple[list[str], Path | None]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "repro", *args], None
        self._launches += 1
        spans = self.trace_dir / f"spans-{self._launches:03d}-{args[0]}.json"
        launcher = str(BENCH_DIR / "launch.py")
        return [sys.executable, launcher, str(spans), *args], spans


def exited(proc: subprocess.Popen) -> bool:
    """Whether ``proc`` has ended, without reaping it: only :func:`reap`
    may collect a child, since its resource usage goes with it. (Popen's
    ``poll``, ``wait``, ``send_signal`` and ``kill`` all reap.)"""
    if proc.returncode is not None:
        return True
    try:
        return os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None
    except ChildProcessError:  # reaped by reap() in another thread meanwhile
        return True


def reap(proc: subprocess.Popen, *, sig: int | None = None, timeout: float = 60.0) -> float:
    """Signal (optionally) and wait for ``proc``; returns its peak RSS in
    MiB. Kills it if it does not end within ``timeout``."""
    if sig is not None and proc.returncode is None:
        os.kill(proc.pid, sig)  # a child that has ended stays a zombie until reaped
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
        time.sleep(0.005)


class Server:
    """One ``repro serve`` process, ready to take requests."""

    def __init__(self, program: Program, args: list[str], log: Path):
        argv, self.spans = program.argv(["serve", *args])
        self.log = open(log, "ab")
        start = time.perf_counter()
        self.proc = program.start(argv, stdout=subprocess.PIPE, stderr=self.log)
        banner = _read_line(self.proc, READY_TIMEOUT)
        self.window = (start, time.perf_counter())
        self.ready_s = self.window[1] - start
        if b"serving feeds on http://" not in banner:
            self.stop(signal.SIGKILL)
            raise BenchError(f"repro serve did not come up: {banner!r}\n{_tail(log)}")
        self.port = int(banner.rsplit(b":", 1)[1].split(b" ", 1)[0].rstrip(b"/"))
        self.peak_rss_mb = 0.0

    def dump_spans(self) -> None:
        """Ask a traced server to write its spans now (before a SIGKILL)."""
        if self.spans is None:
            return
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 60.0
        while not self.spans.exists():
            if time.monotonic() > deadline:
                raise BenchError("traced server did not write its spans")
            time.sleep(0.01)

    def stop(self, sig: int = signal.SIGKILL) -> float:
        try:
            self.peak_rss_mb = reap(self.proc, sig=sig)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.log.close()
        return self.peak_rss_mb


def _read_line(proc: subprocess.Popen, timeout: float) -> bytes:
    deadline = time.monotonic() + timeout
    stream = proc.stdout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return b""
        ready, _, _ = select.select([stream], [], [], min(remaining, 1.0))
        if ready:
            return stream.readline()
        if exited(proc):
            return b""


def run_batch(program: Program, args: list[str], fifo: Path, log: Path) -> dict:
    """Run ``repro diversify ... --output <fifo>`` and time it from the
    outside: set-up ends when the program opens its output (it does so
    once the engine is built, just before reading posts), processing ends
    at end-of-file on the output. Returns timings, the output bytes,
    stdout and the peak RSS."""
    if fifo.exists():
        fifo.unlink()
    os.mkfifo(fifo)
    argv, spans = program.argv(["diversify", *args, "--output", str(fifo)])
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = program.start(argv, stdout=subprocess.PIPE, stderr=err)
        out_chunks: list[bytes] = []
        stdout_reader = threading.Thread(
            target=lambda: out_chunks.append(proc.stdout.read()), daemon=True
        )
        stdout_reader.start()
        opened = threading.Event()

        def unblock() -> None:
            # If the program dies before opening its output, open the
            # write end here so the blocking open below returns.
            while not opened.is_set() and not exited(proc):
                time.sleep(0.01)
            if not opened.is_set():
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:
                    pass

        watchdog = threading.Thread(target=unblock, daemon=True)
        watchdog.start()
        with open(fifo, "rb", buffering=0) as reader:
            ready = time.perf_counter()
            opened.set()
            chunks = []
            while True:
                chunk = reader.read(1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
            done = time.perf_counter()
        peak = reap(proc, timeout=120.0)
        stdout_reader.join(10.0)
        watchdog.join(10.0)
        proc.stdout.close()
    fifo.unlink()
    if proc.returncode != 0:
        raise BenchError(f"repro diversify exited {proc.returncode}\n{_tail(log)}")
    return {
        "setup_s": ready - start,
        "process_s": done - ready,
        "window": (ready, done),
        "output": b"".join(chunks),
        "stdout": b"".join(out_chunks).decode("utf-8", "replace"),
        "peak_rss_mb": peak,
        "spans": spans,
    }


class Client:
    """Times one HTTP request per call (the server speaks HTTP/1.0, so
    every request opens its own connection, as a real client's would)."""

    def __init__(self, port: int):
        self.port = port

    def call(self, method: str, path: str, payload=None) -> tuple[int, object, float]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            start = time.perf_counter()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        try:
            decoded = json.loads(raw) if raw else None
        except ValueError:
            decoded = raw.decode("utf-8", "replace")
        return response.status, decoded, elapsed


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / (1 << 20)

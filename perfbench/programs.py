"""The program's processes: pinned environment, start, health, memory, stop."""

from __future__ import annotations

import json
import os
import platform
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (listed in .gitignore).
OUT = os.path.join(ROOT, ".perfbench")

#: Variables that would move the program off its defaults.
UNSET = ("REPRO_BACKEND", "REPRO_RNG_CONTRACT", "REPRO_AUTO_THRESHOLD")
#: One BLAS/OpenMP thread: the two cores belong to the workloads' processes.
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def pin_environment() -> None:
    """Pin this process's environment; every program process inherits it."""
    for name in UNSET:
        os.environ.pop(name, None)
    for name in THREADS:
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.makedirs(OUT, exist_ok=True)


def environment_record(calib_ref_ms: float) -> Dict:
    """What every result is recorded with."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "calib_ref_ms": calib_ref_ms,
    }


def _commit() -> Optional[str]:
    """The checkout's commit, or ``None`` when it is not a git repository.

    Reads ``.git`` directly instead of running git, which would search the
    directories above the checkout.
    """
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def calibrate(repeats: int = 31, size: int = 1 << 16) -> float:
    """Median ms of a fixed ``standard_normal`` + ``rfft`` reference loop.

    It measures the machine, not the program: later runs can be compared
    after normalizing by it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        np.fft.rfft(rng.standard_normal(size))
        times.append(time.perf_counter() - began)
    times.sort()
    return 1e3 * times[len(times) // 2]


class Program:
    """One program process; its output lines are collected on threads.

    An ``interactive`` program reads one JSON command per stdin line and
    answers with one JSON line on stdout (see :meth:`ask`).
    """

    def __init__(self, argv: List[str], interactive: bool = False) -> None:
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            stdin=subprocess.PIPE if interactive else subprocess.DEVNULL,
            stdout=subprocess.PIPE if interactive else subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.replies: "queue.Queue[Optional[str]]" = queue.Queue()
        self.stderr: List[str] = []
        self._readers = [threading.Thread(target=self._pump, daemon=True)]
        if interactive:
            replies = threading.Thread(target=self._pump_replies, daemon=True)
            self._readers.append(replies)
        for reader in self._readers:
            reader.start()

    def _pump(self) -> None:
        for line in self.process.stderr:
            self.stderr.append(line)
            self.lines.put(line)
        self.lines.put(None)

    def _pump_replies(self) -> None:
        for line in self.process.stdout:
            self.replies.put(line)
        self.replies.put(None)

    def reply(self, timeout: float = START_TIMEOUT_S) -> Dict:
        """The next JSON line the program wrote on stdout."""
        try:
            line = self.replies.get(timeout=timeout)
        except queue.Empty:
            message = f"no reply within {timeout:g} s: {self.tail()}"
            raise RuntimeError(message) from None
        if line is None:
            raise RuntimeError(f"program exited: {self.tail()}")
        return json.loads(line)

    def ask(self, command: Dict, timeout: float = START_TIMEOUT_S) -> Dict:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self.reply(timeout)

    def wait_for(self, pattern: str, timeout: float = START_TIMEOUT_S) -> re.Match:
        """The first stderr line matching ``pattern``; raises if the process dies."""
        deadline = time.monotonic() + timeout
        regex = re.compile(pattern)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"timed out waiting for {pattern!r}: {self.tail()}")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(f"program exited before {pattern!r}: {self.tail()}")
            match = regex.search(line)
            if match:
                return match

    def tail(self) -> str:
        return "".join(self.stderr[-20:]).strip()

    def peak_rss_mb(self) -> float:
        """High-water resident set size of the process [MB] (Linux)."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> int:
        """End the program and wait for it.

        An interactive program gets end-of-input; any other is interrupted
        (SIGINT), which lets a traced program write its spans first.
        """
        if self.process.stdin is not None and not self.process.stdin.closed:
            try:
                self.process.stdin.close()
            except BrokenPipeError:
                pass
        elif self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for reader in self._readers:
            reader.join(timeout=STOP_TIMEOUT_S)
        if self.process.stdout is not None:
            self.process.stdout.close()
        return self.process.returncode

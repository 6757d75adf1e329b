"""Launching one `ccgraph` (or traced harness) process tree and measuring it
from the outside: report-line arrival times, CPU time and peak RSS, with
nothing enabled inside the program."""

import os
import pty
import signal
import threading
import time
import tty

POLL_S = 0.02


def clean_env():
    """The caller's environment without any CCG_* knob, so tracing, metrics
    export, the ops port and thread/SIMD overrides stay off."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CCG_")}


def _children(pid):
    out = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out.extend(int(c) for c in f.read().split())
    except OSError:
        pass
    return out


def _vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class Run:
    """Result of one launch."""

    def __init__(self):
        self.launch = 0.0
        self.exit = 0.0
        self.rc = None
        self.output = b""
        self.lines = []  # (monotonic arrival time, line bytes without "\n")
        self.cpu_s = 0.0
        self.peak_rss_kb = {}  # pid -> highest VmHWM seen
        self.timed_out = False

    @property
    def wall_s(self):
        return self.exit - self.launch

    @property
    def peak_rss_mb(self):
        return sum(self.peak_rss_kb.values()) / 1024.0


def run(argv, env, stderr_path, timeout_s):
    """Runs argv with stdout on a raw pty (so the program line-buffers it
    as it would on a terminal), stderr to a file, and stdin from /dev/null.

    Every process of the tree is polled for VmHWM while it runs. rusage's
    maxrss is not used: posix_spawn's vfork-style child inherits this
    Python process's high-water mark. CPU time is the root's rusage, which
    includes the children it reaped.
    """
    result = Run()
    master, slave = pty.openpty()
    tty.setraw(slave)
    err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    devnull = os.open(os.devnull, os.O_RDONLY)
    actions = [
        (os.POSIX_SPAWN_DUP2, devnull, 0),
        (os.POSIX_SPAWN_DUP2, slave, 1),
        (os.POSIX_SPAWN_DUP2, err, 2),
    ]
    result.launch = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions, setsid=True)
    for fd in (slave, err, devnull):
        os.close(fd)

    def read_output():
        pending = b""
        chunks = []
        while True:
            try:
                data = os.read(master, 65536)
            except OSError:
                break
            if not data:
                break
            now = time.monotonic()
            chunks.append(data)
            pending += data
            *complete, pending = pending.split(b"\n")
            result.lines.extend((now, line) for line in complete)
        if pending:
            result.lines.append((time.monotonic(), pending))
        result.output = b"".join(chunks)

    done = threading.Event()

    def monitor():
        known = {pid}
        while not done.is_set():
            for p in list(known):
                known.update(_children(p))
            for p in known:
                hwm = _vm_hwm_kb(p)
                if hwm is not None:
                    result.peak_rss_kb[p] = max(hwm, result.peak_rss_kb.get(p, 0))
            done.wait(POLL_S)

    def kill_on_timeout():
        if not done.wait(timeout_s):
            result.timed_out = True
            try:
                os.killpg(pid, signal.SIGKILL)
            except OSError:
                pass

    threads = [threading.Thread(target=f, daemon=True)
               for f in (read_output, monitor, kill_on_timeout)]
    for t in threads:
        t.start()
    _, status, rusage = os.wait4(pid, 0)
    result.exit = time.monotonic()
    done.set()
    # Workers the root did not reap (it crashed) must not outlive the run.
    try:
        os.killpg(pid, signal.SIGKILL)
    except OSError:
        pass
    for t in threads:
        t.join()
    os.close(master)
    result.rc = os.waitstatus_to_exitcode(status)
    result.cpu_s = rusage.ru_utime + rusage.ru_stime
    return result

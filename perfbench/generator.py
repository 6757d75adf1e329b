"""Open-loop generator for the k8s-live workload.

One thread writes one telemetry minute of a flow-log CSV into a FIFO per
fixed interval. Each minute is written when it is due whether or not the
reader kept up: a write that finishes late is never made up for by sleeping
less, so stalls in the system under test show as window latency, and the
generator's own lateness is reported next to it.

    python3 generator.py --csv FLOWS --offsets OFFSETS.json --fifo PATH
                         --pace-ms MS --out RESULT.json

It prints "ready" once the input is in memory, then blocks opening the
FIFO until the reader opens it; that moment is t0. RESULT.json holds t0,
the due time and the finish time of every minute (monotonic seconds).
"""

import argparse
import fcntl
import json
import os
import sys
import time

from stats import due_times


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--csv", required=True)
    ap.add_argument("--offsets", required=True)
    ap.add_argument("--fifo", required=True)
    ap.add_argument("--pace-ms", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(args.csv, "rb") as f:
        data = f.read()
    with open(args.offsets) as f:
        offsets = json.load(f) + [len(data)]
    chunks = [memoryview(data)[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1)]
    print("ready", flush=True)

    fd = os.open(args.fifo, os.O_WRONLY)
    t0 = time.monotonic()
    try:
        # A larger pipe decouples the writer from the reader's parse bursts.
        with open("/proc/sys/fs/pipe-max-size") as f:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, int(f.read()))
    except OSError:
        pass
    due = due_times(t0, args.pace_ms / 1e3, len(chunks))
    done = []
    status = 0
    try:
        for chunk, when in zip(chunks, due):
            wait = when - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            while chunk:
                chunk = chunk[os.write(fd, chunk):]
            done.append(time.monotonic())
    except BrokenPipeError:
        status = 1
    finally:
        os.close(fd)
    with open(args.out, "w") as f:
        json.dump({"t0": t0, "due": due, "done": done}, f)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Pure helpers for the benchmark's arithmetic, kept apart so tests can feed
them synthetic timestamps."""

# A tail percentile is only reported where at least this many samples lie
# beyond it, so one slow window cannot define it alone.
TAIL_BEYOND = 10


def due_times(t0, pace_s, minutes):
    """When the open-loop generator is due to have written each minute.

    Minute i is flushed at the end of its interval, so it is due at
    t0 + (i + 1) * pace.
    """
    return [t0 + (i + 1) * pace_s for i in range(minutes)]


def lateness_ms(due, done):
    """How late each write finished against its due time, in ms (never
    negative: a write that finished early was simply on time)."""
    return [max(0.0, (d_done - d_due) * 1e3) for d_due, d_done in zip(due, done)]


def tail_index(n, beyond=TAIL_BEYOND):
    """0-based index, in ascending order, of the highest-ranked sample that
    still has `beyond` samples above it; None when n is too small."""
    k = n - beyond - 1
    return k if k >= 0 else None


def tail_percentile(n, beyond=TAIL_BEYOND):
    """The percentile tail_index stands for: 83.3 for 60 samples."""
    k = tail_index(n, beyond)
    return None if k is None else 100.0 * (k + 1) / n


def tail_value(values, beyond=TAIL_BEYOND):
    k = tail_index(len(values), beyond)
    return None if k is None else sorted(values)[k]


def self_times(spans):
    """Span id -> duration minus the part of it its children cover.

    Spans are dicts with id, parent, start and end. Children are clipped to
    their parent and overlapping children are counted once.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out

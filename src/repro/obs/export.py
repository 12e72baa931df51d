"""Trace exporters: JSONL and Chrome ``trace_event`` format.

JSONL is the determinism format: one compact, key-sorted JSON object
per line, so byte-for-byte comparison across runs is meaningful.

The Chrome format targets ``chrome://tracing`` / Perfetto: each
simulated host becomes a "process" row, span events become async
``b``/``e`` pairs keyed by migration id (so concurrent migrations
nest cleanly on their own tracks), and everything else becomes an
instant event.
"""

import json


def to_jsonl(events):
    """Render events as canonical JSON Lines (byte-stable)."""
    if not events:
        return ""
    return "\n".join(
        json.dumps(event, sort_keys=True, separators=(",", ":"))
        for event in events) + "\n"


def write_jsonl(events, path):
    text = to_jsonl(events)
    with open(path, "w") as handle:
        handle.write(text)
    return len(events)


def to_chrome(events, metrics=None):
    """Render events as a Chrome ``trace_event`` document (a dict;
    ``json.dump`` it into a ``.json`` file for chrome://tracing).

    With ``metrics`` (a :meth:`~repro.obs.metrics.MetricsRegistry.
    snapshot` dict) the registry's counter series additionally appear
    as ``"ph": "C"`` counter events on a synthetic pid-0 "cluster"
    track, so metric values are visible on the Chrome timeline."""
    hosts = sorted({event["host"] for event in events})
    pids = {host: index + 1 for index, host in enumerate(hosts)}
    out = []
    for host in hosts:
        out.append({"ph": "M", "pid": pids[host], "tid": 0,
                    "name": "process_name",
                    "args": {"name": host}})
    for event in events:
        args = {key: value for key, value in event.items()
                if key not in ("ts", "cat", "name", "host", "span")}
        base = {"pid": pids[event["host"]], "tid": 0,
                "ts": event["ts"], "cat": event["cat"],
                "name": event["name"], "args": args}
        span = event.get("span")
        if span == "B":
            base.update(ph="b", id=event["mig"])
        elif span == "E":
            base.update(ph="e", id=event["mig"])
        else:
            base.update(ph="i", s="p")
        out.append(base)
    counters = (metrics or {}).get("counters") or {}
    if counters:
        out.append({"ph": "M", "pid": 0, "tid": 0,
                    "name": "process_name",
                    "args": {"name": "cluster"}})
        last_ts = max((event["ts"] for event in events), default=0)
        for name in sorted(counters):
            value = counters[name]
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                continue
            out.append({"ph": "C", "pid": 0, "tid": 0,
                        "ts": last_ts, "cat": "metric",
                        "name": name, "args": {"value": value}})
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def validate_chrome(doc):
    """Sanity-check a Chrome trace document: JSON round-trips, every
    event carries the required keys, and async spans nest (each ``e``
    closes a matching earlier ``b``).  Returns the event count;
    raises ``ValueError`` on malformed input."""
    doc = json.loads(json.dumps(doc))  # must survive a round trip
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents missing or not a list")
    open_spans = {}
    for event in events:
        for key in ("ph", "pid", "name"):
            if key not in event:
                raise ValueError("event missing %r: %r" % (key, event))
        ph = event["ph"]
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError("counter event without args: %r"
                                 % (event,))
            for value in args.values():
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    raise ValueError(
                        "counter value must be numeric: %r"
                        % (event,))
        elif ph == "b":
            open_spans.setdefault(
                (event["id"], event["name"], event["pid"]),
                []).append(event["ts"])
        elif ph == "e":
            key = (event["id"], event["name"], event["pid"])
            stack = open_spans.get(key)
            if not stack:
                raise ValueError("span end without begin: %r"
                                 % (key,))
            begin = stack.pop()
            if event["ts"] < begin:
                raise ValueError("span %r ends before it begins"
                                 % (key,))
    dangling = [key for key, stack in open_spans.items() if stack]
    if dangling:
        raise ValueError("unclosed spans: %r" % sorted(dangling))
    return len(events)

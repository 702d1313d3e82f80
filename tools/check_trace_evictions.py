#!/usr/bin/env python3
"""Check that every eviction in a Chrome trace names a resident line.

Usage:
    check_trace_evictions.py TRACE.json

Replays each run's (pid's) cache events per SM (tid; the L2 is one
track): l1_insert/l2_insert make arg0, a line's byte address, resident;
l1_write_inval/l2_write_inval and the evictions drop it. Every
l1_evict/l2_evict must name a line its track holds.

A ring that overflowed (a trace_dropped_events record) keeps only the
newest events, so lines resident when the window opened were inserted
unseen: an eviction of a line the window never mentioned is counted as
unverified instead. Evicting a line the window saw leave, or a window
whose evictions all go unverified, still fails.

Exit status 0 on success; 1 with a message on the first violation.
Standard library only.
"""

import json
import sys

INSERTS = {"l1_insert", "l2_insert"}
INVALS = {"l1_write_inval", "l2_write_inval"}
EVICTS = {"l1_evict", "l2_evict"}


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    path = sys.argv[1]
    with open(path) as f:
        events = json.load(f)
    if isinstance(events, dict):
        events = events["traceEvents"]

    dropped = {e["pid"] for e in events
               if e.get("name") == "trace_dropped_events"}
    # (pid, tid) -> {line: True while resident, False once it left}
    state = {}
    verified = unverified = 0
    for e in events:
        name = e.get("name")
        if name not in INSERTS and name not in INVALS and name not in EVICTS:
            continue
        lines = state.setdefault((e["pid"], e["tid"]), {})
        line = e["args"]["arg0"]
        if name in INSERTS:
            lines[line] = True
        elif name in INVALS:
            lines[line] = False
        elif lines.get(line):
            lines[line] = False
            verified += 1
        elif line not in lines and e["pid"] in dropped:
            lines[line] = False
            unverified += 1
        else:
            sys.exit(f"{path}: {name} at ts {e['ts']} (pid {e['pid']}, "
                     f"tid {e['tid']}) names line {line:#x}, which its "
                     f"track does not hold")
    if unverified > 0 and verified == 0:
        sys.exit(f"{path}: no eviction names a line inserted in the trace "
                 f"({unverified} unverified)")
    print(f"{path}: {verified} evictions paired with their inserts, "
          f"{unverified} of lines resident before the trace window")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The peak memory of one ``fit`` or ``predict``, run in this process.

Runs ``hazard2ts COMMAND ARGS...`` through ``cli.main`` in this process and prints one JSON
line: ``job_mb``, the peak resident set of this process (what it reads, folds and writes,
and the tasks of lane 0), and ``workers_mb``, the largest peak of the lane workers it forked
and reaped, both ``getrusage``'s ``ru_maxrss`` in MiB.  A benchmark harness that times the
command reads its own memory with the job's; this reads the job's alone.  Start it from a
small process such as a shell: Linux carries the peak of the process that starts it over
into its ``ru_maxrss``.

Usage:
    python scripts/peak_rss.py fit RECORDS_CSV --out DIR [--config YAML]
    python scripts/peak_rss.py predict --model MODEL_JSON --points CSV --out CSV [--coords ts]
"""

import json
import resource
import sys

from hazard2ts.cli import main


def peak_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0     # Linux reports KiB


if __name__ == "__main__":
    if sys.argv[1:2] not in (["fit"], ["predict"]):
        sys.exit(__doc__)
    main(sys.argv[1:], standalone_mode=False)
    print(json.dumps({"job_mb": peak_mb(resource.RUSAGE_SELF),
                      "workers_mb": peak_mb(resource.RUSAGE_CHILDREN)}))

"""Run one hazard2ts CLI command in this process and report what it cost.

    python3 bench/job.py RESULT_JSON TRACE_JSON -- <hazard2ts CLI arguments>

TRACE_JSON is ``-`` for an untraced job.  The job is timed from the CLI
command's entry (config, input CSV read) to its last artefact written, after
``hazard2ts.cli`` is already imported.  A command that exits nonzero ends this
process with the same code and writes no result.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main():
    result_path, trace_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    import hazard2ts.cli as cli

    tracer = None
    if trace_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    cli.main(cli_args, standalone_mode=False)
    job_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "job_s": job_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,   # Linux reports KiB
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(trace_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

"""Child process for the measurements that need a fresh interpreter.

Imports ``ergosum.cli`` and builds the configs of the CLI invocations
given on standard input as JSON ``{"invocations", "seed", "outroot"}``;
with ``pass`` it then runs every config once, at the CLI-default thread
count (the reference pass).  Prints one JSON line: the in-process import time, and
for a pass the process's peak RSS, the files written and any config that
raised.

Usage: PYTHONPATH=src python3 perfbench/probe.py [pass] < request.json
"""

import json
import resource
import sys
import time
from pathlib import Path

start = time.perf_counter()
import ergosum.cli as cli  # noqa: E402

report = {"import_s": time.perf_counter() - start}

from workloads import build_configs  # noqa: E402

request = json.load(sys.stdin)
configs = build_configs(cli, request["invocations"], request["seed"],
                        Path(request["outroot"]))
if sys.argv[1:] == ["pass"]:
    report["written"], report["errors"] = {}, {}
    for cfg in configs:
        try:
            paths = cli.run(cfg)
            report["written"][cfg.out] = [str(p) for p in paths]
        except Exception as exc:  # reported to the parent, which counts it
            report["errors"][cfg.out] = f"{type(exc).__name__}: {exc}"
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps(report))

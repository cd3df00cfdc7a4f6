"""Run one ``ellfm`` CLI invocation and report where its time went.

Usage: PYTHONPATH=src python3 perfbench/cli_child.py <ellfm arguments>

Behaves like ``python -m ellfm <arguments>`` (same stdout, stderr and exit
code) and appends one line ``perfbench-cli <import_s> <main_s>`` to stderr:
the seconds spent importing ``ellfm.cli`` and inside ``main(argv)``.  The
traced ``cli`` workload runs it in place of ``python -m ellfm``.
"""

import sys
import time

start = time.perf_counter()
import ellfm.cli  # noqa: E402  (the import is what is being timed)

imported = time.perf_counter()
code = ellfm.cli.main(sys.argv[1:])
done = time.perf_counter()
sys.stdout.flush()
sys.stderr.write(f"perfbench-cli {imported - start!r} {done - imported!r}\n")
sys.exit(code)

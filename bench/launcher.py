"""Starts child processes for run.py and reports their wall time and peak RSS.

The peak RSS that wait4 reports for a child also covers the process it was
forked from, up to the exec.  run.py holds numpy and scipy, so its children
would all read as large as it is; started from this small interpreter they
read as their own peak.  One instance serves a whole run.

Protocol: one JSON request per line on stdin, {"argv", "stdout", "stderr"};
one JSON reply per line on stdout, {"code", "wall", "maxrss_kib"}.  The
reply's wall time runs from just before the child starts to its reaping.
"""

import json
import os
import subprocess
import sys
import threading
import time

CHILD_LIMIT_S = 100.0  # a child still running after this is killed


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as so, open(request["stderr"], "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=so, stderr=se)
            timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall": wall, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

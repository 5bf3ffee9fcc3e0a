"""Starts the benchmark's child processes and reaps them with os.wait4.

    python3 perfbench/spawner.py < requests > replies

On Linux, the peak RSS that os.wait4 reports for a child includes the
high-water mark of the process that started it, as it was when the child
was started: exec carries it over. The runner imports numpy and parses
the outputs it checks, so its mark would hide the child's own peak. It
therefore starts every child through this small process, whose mark stays
far below that of any child.

Reads one JSON request per line: {"argv": [...], "log": path, "timeout": s}.
The child inherits this process's environment and working directory, and
its stdout and stderr go to the log. Writes one JSON reply per line:
{"t_spawn", "t_exit", "exit_code", "max_rss_kb", "cpu_s"}, times on the
system-wide monotonic clock, cpu_s the child's user + system time. A child still running after the timeout is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "w", encoding="utf-8") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(request["argv"], stdout=log, stderr=log)
            killer = threading.Timer(request["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"t_spawn": t_spawn, "t_exit": t_exit, "exit_code": proc.returncode,
                 "max_rss_kb": usage.ru_maxrss, "cpu_s": usage.ru_utime + usage.ru_stime}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

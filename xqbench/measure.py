"""Run one command and record its own wall time, CPU time and peak RSS.

    python3 xqbench/measure.py RESULT.json TIMEOUT_S -- <command ...>

On Linux a process's ru_maxrss starts from the resident size of the
process it was exec'd from, so a command started straight from the
harness would report the harness's own peak whenever that is larger.
This launcher imports only the standard library, so the command
inherits its small footprint instead. The command's output goes to
this process's standard output; the launcher exits with the command's
exit code, after killing the command if it runs past TIMEOUT_S.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    result_path, timeout_s, sep, *command = argv
    if sep != "--" or not command:
        raise SystemExit("usage: measure.py RESULT.json TIMEOUT_S -- <command ...>")
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    watchdog = threading.Timer(float(timeout_s), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "exit_code": proc.returncode,
        }, fh)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Spawns one process per request line and reports how it ran.

    python3 launch.py <cpu> <counter file>

Pins itself to <cpu> and starts calibrate.py there at a lower priority.
Then reads JSON lines {"argv", "stdout", "stderr"} on standard input; for
each, spawns argv (pinned to the same CPU) with its output sent to the two
files, reaps it with its resource usage and answers one JSON line
{"wall", "cpu", "rss_kb", "rc", "cal_chunks", "cal_cpu"}.  Wall time runs
from spawn to exit; cal_chunks and cal_cpu are the calibration loop's
chunks and CPU seconds over the same stretch.  At the end of its input it
stops the calibration process and waits for it.

It is a process of its own, importing next to nothing, because the peak
resident set the kernel reports for a child includes the memory of the
process that spawned it: spawned from the benchmark's main process, which
holds the reference computations, every child would read as that large.
"""

import json
import mmap
import os
import struct
import subprocess
import sys
import time

CAL_NICE = 10  # the loop gets about a tenth of the CPU beside an invocation

cpu, path = int(sys.argv[1]), sys.argv[2]
os.sched_setaffinity(0, {cpu})
with open(path, "wb") as fh:
    fh.write(bytes(16))
fd = os.open(path, os.O_RDONLY)
counter = mmap.mmap(fd, 16, prot=mmap.PROT_READ)
os.close(fd)


def snapshot() -> tuple:
    while True:
        a, b = counter[:16], counter[:16]
        if a == b:
            return struct.unpack("dd", a)


cal = subprocess.Popen([sys.executable, os.path.join(os.path.dirname(__file__),
                                                     "calibrate.py"),
                        path, str(cpu), str(CAL_NICE)])
try:
    while snapshot()[0] < 1000:
        if cal.poll() is not None:
            sys.exit(f"calibrate.py exited with {cal.returncode}")
        time.sleep(0.01)
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644)]
        n0, c0 = snapshot()
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                             file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        t1 = time.perf_counter()
        n1, c1 = snapshot()
        print(json.dumps({"wall": t1 - t0, "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_kb": usage.ru_maxrss,
                          "rc": os.waitstatus_to_exitcode(status),
                          "cal_chunks": n1 - n0, "cal_cpu": c1 - c0}), flush=True)
finally:
    cal.kill()
    cal.wait()

"""A fixed loop of interpreter work that publishes how fast it runs.

    python3 calibrate.py <counter file> <cpu> <nice>

Pins itself to one CPU, lowers its own priority by <nice> and then runs
fixed chunks of pure-Python work (dict reads, tuple building, calls) until
it is killed or its parent exits.  After every chunk it writes two doubles
to the first 16 bytes of the counter file: the chunks done so far and its
own CPU time.

`launch.py` starts it on the CPU where the CLI invocations run.  The
scheduler interleaves the two in slices of a few milliseconds, so over any
invocation the loop sees the same processor the invocation saw: the chunks
it did per CPU second measure how fast that processor ran meanwhile.
"""

import mmap
import os
import struct
import sys
import time

path, cpu, nice = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
os.sched_setaffinity(0, {cpu})
os.nice(nice)
fd = os.open(path, os.O_RDWR)
counter = mmap.mmap(fd, 16)
os.close(fd)

TABLE = {i: (i, i * 7) for i in range(1 << 14)}
MASK = (1 << 14) - 1


def step(acc: int, i: int) -> int:
    key = (i * 2654435761 + acc) & MASK
    return acc + TABLE[key][1] + len((i, key))


clock, pack = time.process_time, struct.pack
parent = os.getppid()
chunks, acc = 0, 0
while chunks % 4096 or os.getppid() == parent:
    for i in range(100):
        acc = step(acc, i) & 0xFFFF
    chunks += 1
    counter[:16] = pack("dd", float(chunks), clock())

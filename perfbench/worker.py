"""The process that runs a workload's operations, started by run.py.

    python3 perfbench/worker.py READ_FD WRITE_FD WORKLOAD SEED WORKDIR

It holds only rsvdlab and the operations' inputs, so its peak RSS and CPU
time are the program's.  It sets the workload up, then runs the operations
that run.py sends over READ_FD, one at a time, until it sends None; it
replies over WRITE_FD with each one's start, wall and CPU time, items and
outputs, and at the end with its peak RSS and the spans of the traced ones.
"""

from multiprocessing.connection import Connection
from pathlib import Path
import resource
import sys
import time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(read_fd, write_fd, name, seed, workdir):
    requests = Connection(int(read_fd), writable=False)
    replies = Connection(int(write_fd), readable=False)
    workload = WORKLOADS[name](name, int(seed), workdir)
    workload.setup()
    tracer = Tracer()
    replies.send(None)
    while (request := requests.recv()) is not None:
        i, traced = request
        begun = time.clock_gettime(time.CLOCK_BOOTTIME)
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        if traced:
            with tracer.installed():
                out = workload.run(
                    i, lambda fn, *a: tracer.call(i, workload.root, fn, *a))
        else:
            out = workload.run(i, lambda fn, *a: fn(*a))
        wall = time.perf_counter() - start
        replies.send((begun, wall, cpu_seconds() - cpu0, *out))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    replies.send((peak_mb, tracer.spans))


if __name__ == "__main__":
    main(*sys.argv[1:])

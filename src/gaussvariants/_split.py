"""One map split across the CPUs this process may run on, with the bits of a
plain list comprehension.

``split_map(fn, items)`` is ``[fn(x) for x in items]``.  With n workers,
worker w computes items w, w + n, w + 2n, ...: the parent is worker 0, and
workers 1..n-1 are forked children that pickle their results back through a
pipe.  Every value is computed by the same operations in some process, so no
bit depends on the CPU count.  One CPU, one item, or no ``os.fork`` runs the
comprehension in-process.  Threads would not help: the work is numpy calls
on small arrays, serialized by the GIL.
"""

from __future__ import annotations

import os
import pickle


def _serve(fn, share, fd):
    """Run in a forked child: send (True, results) or (False, exception) to
    fd, then leave without running anything the parent registered.  A
    payload that cannot be pickled sends nothing."""
    try:
        try:
            payload = (True, [fn(x) for x in share])
        except BaseException as exc:  # the parent re-raises it
            payload = (False, exc)
        data = pickle.dumps(payload)
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def split_map(fn, items):
    """[fn(x) for x in items], computed across the available CPUs."""
    items = list(items)
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n = min(len(os.sched_getaffinity(0)) if forks else 1, len(items))
    if n <= 1:
        return [fn(x) for x in items]
    pids, pipes = [], []
    try:
        for w in range(1, n):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    for pipe in pipes:  # the child only writes, to its own pipe
                        pipe.close()
                    _serve(fn, items[w::n], write_fd)  # never returns
                pids.append(pid)
            finally:
                os.close(write_fd)
        shares = [[fn(x) for x in items[::n]]]
        for pipe in pipes:  # every pipe is drained before any child is waited for
            payload = pipe.read()
            if not payload:
                raise RuntimeError("a worker process sent no results")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            shares.append(value)
    finally:
        for pipe in pipes:  # a child still writing gets EPIPE and leaves
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    return [shares[i % n][i // n] for i in range(len(items))]

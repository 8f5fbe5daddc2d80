"""Work split into shares, run side by side: one share in this process and
each other one in a forked child.

Training (`profiling.train_on_row_sets`) splits its models into one share
per usable CPU through `run_shares`. It redoes the whole work in one process
when it gets None back, so an error is the one a single process raises, and
a result never depends on the number of CPUs.
"""

from __future__ import annotations

import os
import pickle


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform
    cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def run_shares(work, shares) -> list | None:
    """``[work(share) for share in shares]``: the first share in this process
    and each other share at the same time in a forked child, which pickles
    its result straight into a pipe and exits 0 only once that pipe has
    closed cleanly.

    None if there are fewer than two shares, a fork failed, any share
    raised, a child exited non-zero or its pickle was cut short; the caller
    then does the whole work in one process. Every read end is closed, then
    every child reaped, before this returns: a child still working meets a
    closed pipe and exits non-zero by itself. A child inherits this process's
    open files, so the caller forks before it buffers anything a child could
    flush.
    """
    if len(shares) < 2:
        return None
    children = []  # (pid, read end of its pipe)
    try:
        try:
            for share in shares[1:]:
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_end)
                    os.close(write_end)
                    raise
                if pid == 0:
                    status = 1
                    try:
                        os.close(read_end)
                        with open(write_end, "wb") as pipe:
                            pickle.dump(work(share), pipe, pickle.HIGHEST_PROTOCOL)
                        status = 0
                    finally:
                        os._exit(status)
                os.close(write_end)
                children.append((pid, open(read_end, "rb")))
            results = [work(shares[0])]
            results += [pickle.load(pipe) for _, pipe in children]
        except Exception:
            return None  # the caller does the whole work again and raises what that raises
    finally:
        for _, pipe in children:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    return None if any(statuses) else results

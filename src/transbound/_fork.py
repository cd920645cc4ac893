"""One forked worker beside the caller, for jobs split across two CPUs.

``shared(jobs)`` runs a list of jobs in the caller and one forked worker,
which take job indices from one queue: ``hypergeom._envelopes`` hands it the
two halves of an envelope build, ``transduce.ensemble_sweep`` its sweeps.
Where the worker cannot start or dies, the caller runs its jobs too, so
results never depend on it.  Fork is safe for both: a worker reads the
queue, runs NumPy's elementwise kernels, sorts, scipy's linkage, pickling
and one pipe write, so it makes no BLAS call and takes no lock that another
thread of the caller could hold at the fork.
"""

import os
import signal
import sys
import traceback


def second_cpu() -> bool:
    """True on Linux when this process may run on two or more CPUs."""
    return sys.platform == "linux" and len(os.sched_getaffinity(0)) > 1


def _send_result(conn, func) -> None:
    """Body of a forked worker: send ``func()``, or the exception it raised and where."""
    try:
        error, result = None, func()
    except Exception as exc:  # raised again in the caller, chained to this traceback
        error, result = (exc, traceback.format_exc()), None
    conn.send((error, result))


def shared(jobs: list) -> list:
    """[job() for job in jobs], run by this process and a forked worker meanwhile.

    Before the fork every job index goes into a pipe as a 4-byte record;
    each process then runs the job of each record it reads, until the pipe
    is empty.  A read of one record is atomic, so each job is read once,
    and a list ordered longest first keeps both processes busy.  A job the
    worker read but never returned runs here last.  What a job raised in the
    worker is raised here, from a RuntimeError holding the worker's
    traceback.  Every job runs here, in order, if there are fewer than two,
    if the indices do not fit the empty pipe (16 384 at Linux's default
    64 KiB), if the fork fails (OSError: no pid or memory), or if this
    process is daemonic (a ``multiprocessing`` pool worker, which may not
    have children).  The worker is killed and reaped, and every pipe
    closed, on every path.
    """
    import multiprocessing  # here, on the only path that forks, not in every command's start

    if len(jobs) < 2 or multiprocessing.current_process().daemon:
        return [job() for job in jobs]
    records = b"".join(i.to_bytes(4, "little") for i in range(len(jobs)))
    read_end, write_end = os.pipe()
    with open(read_end, "rb", buffering=0) as queue, open(write_end, "wb", buffering=0) as feed:
        os.set_blocking(write_end, False)  # a write longer than the pipe comes back short
        whole = feed.write(records) == len(records)
        feed.close()  # so a read of the emptied queue meets end-of-file

        def take():
            done = {}
            while record := queue.read(4):
                i = int.from_bytes(record, "little")
                done[i] = jobs[i]()
            return done

        receiver, sender = multiprocessing.Pipe(duplex=False)
        with receiver, sender:  # closed here even if the fork raises a BaseException
            try:
                pid = os.fork() if whole else None
            except OSError:
                pid = None
            if pid == 0:  # the worker, which never returns into the caller's stack
                try:
                    _send_result(sender, take)
                finally:
                    os._exit(0)
            sender.close()  # with no worker holding it, recv meets end-of-file at once
            try:
                done = take()
                try:
                    reply = receiver.recv()
                except EOFError:  # no worker, or it died without sending
                    reply = None
            finally:
                if pid:  # killed before its pipe closes, so a send cannot fail loudly
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    if reply is not None:
        error, theirs = reply
        if error:
            raise error[0] from RuntimeError(f"in the forked worker:\n{error[1]}")
        done |= theirs
    return [done[i] if i in done else jobs[i]() for i in range(len(jobs))]

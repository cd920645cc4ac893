"""One forked worker beside the caller, for work split across two CPUs.

``hypergeom._envelopes`` runs one part of a pure computation in the worker
while the caller runs the other (``beside``); ``transduce.ensemble_sweep``'s
two processes take jobs from one list (``shared``).  Where the worker cannot
start or dies, the caller runs its part too, so results never depend on it.
Fork is safe for both: a worker runs NumPy's elementwise kernels, sorts,
scipy's linkage, pickling and one pipe write, so it makes no BLAS call and
takes no lock that another thread of the caller could hold at the fork.
"""

import os
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


def beside(local, remote):
    """(local(), remote()), with ``remote()`` run in a forked worker meanwhile.

    What ``remote`` raised in the worker is raised here, from a RuntimeError
    holding the worker's traceback.  ``remote()`` runs in this process
    instead, after ``local()``, if the fork fails (OSError: no pid or
    memory), if the worker dies without sending, or if this process is
    daemonic and so may not have children (a ``multiprocessing`` pool
    worker).  The worker is stopped and reaped before this returns or
    raises, on every path.
    """
    import multiprocessing  # here, on the only path that forks, not in every command's start

    if multiprocessing.current_process().daemon:
        return local(), remote()
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(target=_send_result, args=(sender, remote))
    try:
        worker.start()
    except OSError:
        worker = None
    sender.close()  # with no worker holding it, recv meets end-of-file at once
    try:
        mine = local()
        try:
            reply = receiver.recv()
        except EOFError:
            reply = None
    finally:
        if worker:  # stopped before its pipe closes, so a send cannot fail loudly
            worker.terminate()
            worker.join()
        receiver.close()
    if reply is None:
        return mine, remote()
    error, theirs = reply
    if error:
        raise error[0] from RuntimeError(f"in the forked worker:\n{error[1]}")
    return mine, theirs


# A claim holds the job counter's lock for microseconds, and a process killed
# in one never releases it: a wait this long means that its holder died.
_CLAIM_WAIT_S = 1.0


def shared(jobs: list) -> list:
    """[job() for job in jobs], run by this process and a forked worker (``beside``).

    Each takes the next job not yet taken, from a counter in memory shared
    across the fork, so a list ordered longest first keeps both busy.  A job
    the worker took but never returned runs here last, and so does every job
    where the counter's lock cannot be made (no POSIX semaphores or /dev/shm).
    """
    import multiprocessing

    try:
        taken = multiprocessing.get_context("fork").Value("q", 0)
    except OSError:
        return [job() for job in jobs]

    def take():
        done = {}
        while taken.get_lock().acquire(timeout=_CLAIM_WAIT_S):
            i, taken.value = taken.value, taken.value + 1
            taken.get_lock().release()
            if i >= len(jobs):
                break
            done[i] = jobs[i]()
        return done

    mine, theirs = beside(take, take)
    done = mine | theirs
    return [done[i] if i in done else jobs[i]() for i in range(len(jobs))]

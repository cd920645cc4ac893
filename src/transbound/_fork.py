"""One forked worker beside the caller, for work split across two CPUs.

``transduce.ensemble_sweep`` and ``hypergeom._envelopes`` each run one part
of a pure computation here while the caller runs the other part.  Both fall
back to running the part in-process when no second CPU is usable or the
worker cannot start or dies, so their results never depend on it.
"""

import contextlib
import os
import sys
import traceback


def second_cpu() -> bool:
    """True on Linux when this process may run on two or more CPUs."""
    return sys.platform == "linux" and len(os.sched_getaffinity(0)) > 1


def _send_result(conn, func, args) -> None:
    """Body of a forked worker: send ``func(*args)``, or the exception it raised and where."""
    try:
        error, result = None, func(*args)
    except Exception as exc:  # raised again in the caller, chained to this traceback
        error, result = (exc, traceback.format_exc()), None
    conn.send((error, result))


@contextlib.contextmanager
def forked(func, *args):
    """Run ``func(*args)`` in a forked process; yield a call that waits for its result.

    The call raises what ``func`` raised, from a RuntimeError holding the
    worker's traceback, and returns None if the worker died without
    sending.  If the fork fails (OSError: no pid or memory), or this process
    is daemonic and so may not have children (a ``multiprocessing`` pool
    worker), None is yielded instead of the call.  The worker is stopped and
    reaped on exit, on every path.
    """
    import multiprocessing  # here, on the only path that forks, not in every command's start

    if multiprocessing.current_process().daemon:
        yield None
        return
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(target=_send_result, args=(sender, func, args))
    try:
        worker.start()
    except OSError:
        worker = None
    sender.close()

    def result():
        try:
            error, out = receiver.recv()
        except EOFError:
            return None
        if error:
            raise error[0] from RuntimeError(f"in the forked worker:\n{error[1]}")
        return out

    try:
        yield result if worker else None
    finally:
        if worker:  # stopped before its pipe closes, so a send cannot fail loudly
            worker.terminate()
            worker.join()
        receiver.close()

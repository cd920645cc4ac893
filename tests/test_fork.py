"""``_fork.shared``'s job queue: its capacity, what it leaves open, and a killed worker."""

import errno
import fcntl
import functools
import io
import multiprocessing
import os
import signal
import sys
import time

import pytest

from children import no_child_left
from transbound import _fork

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="the worker is forked on Linux only")


def _pipe_size() -> int:
    """Bytes a fresh pipe holds: 65 536 by Linux's default."""
    read_end, write_end = os.pipe()
    try:
        return fcntl.fcntl(read_end, fcntl.F_GETPIPE_SZ)
    finally:
        os.close(read_end)
        os.close(write_end)


def _meeting_jobs(count, in_worker=int, in_caller=int):
    """``count`` jobs i, each ``in_worker(i)`` in the worker and ``in_caller(i)`` here.

    Each process's jobs wait, up to 10 s, until the other process has begun
    one (as ``TestKmeansWorker._meeting``), so each is sure to read a record:
    a worker that runs first can otherwise read every record.
    """
    context = multiprocessing.get_context("fork")
    began = {"caller": context.Event(), "worker": context.Event()}
    caller = os.getpid()

    def job(i):
        mine, other = ("caller", "worker") if os.getpid() == caller else ("worker", "caller")
        began[mine].set()
        began[other].wait(10)
        return (in_caller if mine == "caller" else in_worker)(i)

    return [functools.partial(job, i) for i in range(count)]


@pytest.fixture
def same_descriptors():
    """The same descriptors are open, and no child is left, after the test as before it."""
    before = sorted(os.listdir("/proc/self/fd"))
    yield
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert no_child_left()


class TestCapacity:
    def test_a_full_pipe_of_jobs_still_forks(self, same_descriptors, tmp_path, monkeypatch):
        # both processes log each job they run: one taken twice, or by
        # neither, would show there
        log = tmp_path / "jobs"
        forks = []

        def counted(fork=os.fork):
            forks.append(os.getpid())
            return fork()

        def job(i):
            with open(log, "a") as out:
                out.write(f"{i}\n")
            return i

        monkeypatch.setattr(os, "fork", counted)
        count = _pipe_size() // 4
        assert _fork.shared([functools.partial(job, i) for i in range(count)]) == list(range(count))
        assert len(forks) == 1
        assert sorted(map(int, log.read_text().split())) == list(range(count))

    def test_one_job_more_runs_in_the_caller(self, same_descriptors, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        count = _pipe_size() // 4 + 1
        assert _fork.shared([functools.partial(int, i) for i in range(count)]) == list(range(count))

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_jobs_run_in_the_caller(self, same_descriptors, monkeypatch, count):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert _fork.shared([functools.partial(int, i) for i in range(count)]) == list(range(count))


class _FailingWrite(io.FileIO):
    def write(self, data):
        raise OSError(errno.EIO, "Input/output error")


def _no_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def _raise(message):
    raise ValueError(message)


def _raise_type(stop):
    raise stop("stopped in os.fork")


class TestNoLeakedDescriptor:
    """The same descriptors are open before and after ``shared``, on every path.

    The oversized queue is ``TestCapacity.test_one_job_more_runs_in_the_caller``.
    """

    def test_results_returned(self, same_descriptors):
        assert _fork.shared([functools.partial(int, i) for i in range(50)]) == list(range(50))

    def test_job_raising_in_the_caller(self, same_descriptors):
        jobs = _meeting_jobs(20, in_caller=lambda i: _raise("in the caller"))
        with pytest.raises(ValueError, match="in the caller"):
            _fork.shared(jobs)

    def test_job_raising_in_the_worker(self, same_descriptors):
        jobs = _meeting_jobs(20, in_worker=lambda i: _raise("in the worker"))
        with pytest.raises(ValueError, match="in the worker") as err:
            _fork.shared(jobs)
        assert "in the forked worker" in str(err.value.__cause__)

    def test_failed_fork(self, same_descriptors, monkeypatch):
        monkeypatch.setattr(os, "fork", _no_fork)
        assert _fork.shared([functools.partial(int, i) for i in range(50)]) == list(range(50))

    @pytest.mark.parametrize("stop", [KeyboardInterrupt, pytest.fail.Exception])
    def test_fork_raising_past_oserror(self, same_descriptors, monkeypatch, stop):
        # no failed fork: it propagates, and while its traceback keeps
        # shared's frame alive (here through ``caught``), no pipe end is open
        before = sorted(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", lambda: _raise_type(stop))
        with pytest.raises(stop) as caught:
            _fork.shared([functools.partial(int, i) for i in range(50)])
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert "stopped in os.fork" in str(caught.value)

    def test_daemonic_process(self, same_descriptors, monkeypatch):
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert _fork.shared([functools.partial(int, i) for i in range(50)]) == list(range(50))

    def test_write_raising(self, same_descriptors, monkeypatch):
        def failing_open(fd, mode, buffering):
            return (_FailingWrite if "w" in mode else io.FileIO)(fd, mode)

        monkeypatch.setattr(_fork, "open", failing_open, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        with pytest.raises(OSError, match="Input/output error"):
            _fork.shared([functools.partial(int, i) for i in range(50)])


def test_killed_worker_leaves_every_result(same_descriptors):
    # the worker kills itself in the job of the first record it reads; the
    # caller reads the rest and runs the lost job last
    jobs = _meeting_jobs(20, in_worker=lambda i: os.kill(os.getpid(), signal.SIGKILL))
    start = time.monotonic()
    assert _fork.shared(jobs) == list(range(20))
    assert time.monotonic() - start < 10

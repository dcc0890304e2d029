"""One child forked alongside this process: the fork rule, the process steps and the queue.

The check rows' child in `checks` and the long-table child in `csvio` both
fork here, so each takes its work, leaves, sends back its value and is killed and reaped one way.
"""

import os
import pickle


def runs_alongside() -> bool:
    """Whether fork exists and this process may run on two CPUs.

    On one CPU the two processes take turns, so the fork and the copy are pure cost.
    """
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def fork(work, *args):
    """A Child that runs work(*args) and sends back its value as one pickle.

    None, with nothing forked, if no pipe or process is to spare: the caller does the work.
    """
    try:
        back, out = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(back)
        os.close(out)
        return None
    if pid == 0:
        # os._exit on every path: no exception unwinds into the caller's
        # code and no buffer inherited from this process is flushed twice
        status = 1  # the child's exit status until its value is sent
        try:
            with open(out, "wb") as stream:
                pickle.dump(work(*args), stream)
            status = 0
        finally:
            os._exit(status)
    os.close(out)
    return Child(pid, back)


class Child:
    """A forked child and the read end of the pipe that brings back its value."""

    def __init__(self, pid, back):
        self._pid, self._back = pid, back

    def join(self):
        """Wait for the child to leave: its exit status, and its value if that is 0, else None."""
        with open(self._back, "rb", closefd=False) as stream:  # still open if interrupted
            delivered = stream.read()  # to end of file: the child has left
        os.close(self._back)
        pid, self._pid = self._pid, None
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return status, pickle.loads(delivered) if status == 0 else None

    def close(self) -> None:
        """Kill and reap the child unless it was joined."""
        if self._pid is not None:
            import signal  # here, not at start-up, where it would cost about 1 ms
            os.kill(self._pid, signal.SIGKILL)
            self.join()


class Queue:
    """A pipe of 4-byte indices that this process and a child forked later both take from.

    A read of one index is atomic, so each index is taken once, by whichever
    process reads it first.  Making one raises OSError if no descriptor is to spare.
    """

    def __init__(self):
        self._take, self._put = os.pipe()
        os.set_blocking(self._put, False)  # a full pipe refuses a write instead of waiting

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def put(self, indices) -> int:
        """Queue the leading indices that the pipe has room for; how many that was."""
        data = b"".join(i.to_bytes(4, "little") for i in indices)
        written = 0
        try:  # 512 bytes, POSIX's least PIPE_BUF, are written whole or refused
            while written < len(data):
                written += os.write(self._put, data[written:written + 512])
        except BlockingIOError:  # the pipe is full
            pass
        return written // 4

    def take(self):
        """The indices this process takes, one at a time, until the queue is empty.

        It ends the queue here first, so the end of file comes once every
        process that takes has ended it and none puts any more.
        """
        self._end()
        while got := os.read(self._take, 4):
            yield int.from_bytes(got, "little")

    def _end(self) -> None:
        """Put no more indices from this process."""
        if self._put is not None:
            os.close(self._put)
            self._put = None

    def close(self) -> None:
        """End the queue and close its pipe, once."""
        self._end()
        os.close(self._take)

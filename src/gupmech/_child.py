"""One child forked alongside this process: the fork rule and the process steps.

The check rows' child in `checks` and the long-table child in `csvio` both
fork here, so each leaves, sends back its value and is killed and reaped one way.
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

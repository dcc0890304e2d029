"""Indexed work shared with one child forked alongside: the fork rule and the process steps.

The check jobs in `checks` (a row at a seed) and the long-table blocks in
`csvio` are both shared here, so each child takes its work, leaves, sends
back its values and is killed and reaped one way.  While the two share
work, the child runs on every allowed CPU but the first and this process
on the first, because Linux can leave a forked child on its parent's CPU.
"""

import os
import pickle


def runs_alongside() -> bool:
    """Whether fork exists and this process may run on two CPUs.

    On one CPU the two processes take turns, so the fork and the copy are pure cost.
    They may take turns on two as well, since Linux can leave a fresh child on
    its parent's CPU, so `Shared` pins the two apart.  A long-lived process is
    spread by the scheduler anyway: a sweep of seeds 0-99 that forked once per
    seed took 6.9-11.3 s unpinned and 7.5-12.5 s pinned (5 alternating runs each).
    """
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class Shared:
    """Indices 0, 1, ... that this process and one child forked here both take from a pipe.

    Each index is a 4-byte read, which is atomic, so it is taken once, by
    whichever process reads it first, and the work balances itself.  The
    child runs work(index) on each index it takes and sends back
    {index: value} as one pickle; this process runs its own in `finish`.
    An index whose work raised is left out, as is one a full pipe never
    held and each of a child that failed: the caller runs those itself.
    With no pipe or process to spare nothing is forked and nothing taken.

    Right after the fork the child is pinned to every CPU this process may
    use but the first, and this process to the first, until `close` puts
    its own CPUs back.  Left to the scheduler, the child can stay on this
    process's CPU while the other idles: on a 2-vCPU Xeon the integrate
    step of the bench's seed-1 simulate-1d scenario took 78-166 ms alone,
    84-141 ms beside an idle child, 156-277 ms beside a busy unpinned child
    and 78-143 ms beside a pinned one (12 runs each).  A process whose pin
    is refused, or that cannot be pinned, runs unpinned, and the work still
    balances.
    """

    def __init__(self, work, count=0):
        """Queue the indices below count, then fork the child that runs work on those it takes."""
        self._take = self._put = self._back = self._pid = self._cpus = None
        self._queued = 0
        try:
            self._take, self._put = os.pipe()
            os.set_blocking(self._put, False)  # a full pipe refuses a write instead of waiting
            self.put(count)
            self._back, out = os.pipe()
            try:
                self._pid = os.fork()
            finally:  # the value pipe's write end stays open in the child only
                if self._pid != 0:
                    os.close(out)
        except OSError:  # no descriptor or process to spare
            self.close()
            return
        if self._pid == 0:
            # os._exit on every path: no exception unwinds into the caller's
            # code and no buffer inherited from this process is flushed twice
            status = 1  # the child's exit status until its values are sent
            try:
                self._pin(child=True)
                with open(out, "wb") as stream:
                    pickle.dump(self._run(work), stream)
                status = 0
            finally:
                os._exit(status)
        self._pin(child=False)

    def _pin(self, child):
        """Pin the child to every allowed CPU but the first, and this process to the first.

        A refused pin is ignored: the process runs where the scheduler puts it.
        """
        if hasattr(os, "sched_setaffinity"):
            try:
                cpus = sorted(os.sched_getaffinity(0))
                if not child:  # put back by `close`, also if the pin is refused
                    self._cpus = cpus
                os.sched_setaffinity(0, cpus[1:] if child else cpus[:1])
            except OSError:
                pass

    def put(self, count) -> int:
        """Queue the indices below count not yet queued, as the pipe has room; how many went."""
        if self._put is None:
            return 0
        data = b"".join(i.to_bytes(4, "little") for i in range(self._queued, count))
        written = 0
        try:  # 512 bytes, POSIX's least PIPE_BUF, are written whole or refused
            while written < len(data):
                written += os.write(self._put, data[written:written + 512])
        except BlockingIOError:  # the pipe is full
            pass
        self._queued += written // 4
        return written // 4

    def finish(self, work_here):
        """(mine, theirs): {index: value} of what work_here did here, then of what the child did.

        This process takes indices until none is left, then joins the child
        and closes the pipes; theirs is {} if the child failed, and both are
        {} if nothing forked.
        """
        try:
            return ({}, {}) if self._pid is None else (self._run(work_here), self._join())
        finally:  # after an interrupt, kill and reap the child too
            self.close()

    def _run(self, work):
        """{index: work(index)} of the indices this process takes, but those whose work raised.

        It puts no more indices first, so the end of file comes once both
        processes have stopped putting and every index is taken.
        """
        os.close(self._put)
        self._put = None
        done = {}
        while got := os.read(self._take, 4):
            index = int.from_bytes(got, "little")
            try:
                done[index] = work(index)
            except Exception:  # left out, so the caller runs it again
                pass
        return done

    def _join(self):
        """The child's {index: value} once it has left; {} if it failed."""
        with open(self._back, "rb", closefd=False) as stream:  # closed by `close`
            delivered = stream.read()  # to end of file: the child has left
        pid, self._pid = self._pid, None
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return pickle.loads(delivered) if status == 0 else {}

    def close(self) -> None:
        """Kill and reap an unjoined child, put back this process's CPUs, close the pipes; once."""
        if self._pid is not None:
            import signal  # here, not at start-up, where it would cost about 1 ms
            os.kill(self._pid, signal.SIGKILL)
            self._join()
        if self._cpus is not None:
            try:
                os.sched_setaffinity(0, self._cpus)
            except OSError:
                pass
            self._cpus = None
        for end in (self._take, self._put, self._back):
            if end is not None:
                os.close(end)
        self._take = self._put = self._back = None

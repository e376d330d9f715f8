"""A forked helper process that runs half of a large call.

Who runs which work: the caller sends the helper a named package function
and the arguments of one half, runs the other half itself and joins the
two results.  Both halves go through the same function and each piece of
work draws from its own stream, so a split result is bit-identical to one
process's.

* ``born_statistics``: a batch of T >= 2 trials whose expected steps
  T (M^2 - sum k_i^2) / 2 reach ``walk._SPLIT_STEPS`` = 2**22.  The helper
  runs ``walk._born_counts`` on trials 0 to T // 2 - 1, the caller on the
  rest; counts and step sums are Python ints, so they add up exactly.
* ``sample_image_events`` and ``image_correlation_event``: a call of at
  least ``bell._SPLIT_CHUNKS`` = 4 chunks.  The helper runs chunks 0 to
  h - 1, h = chunks // 2, on the child streams the caller would spawn for
  them (for ``sample_image_events`` at most the chunks whose columns fit
  the reply region); the caller runs the rest.  Every other call, and
  ``bell_sign_correlation`` always, runs in the calling process.

The helper is forked at the first such call and kept for the next; a
process forked from one that holds a helper forks its own.  Right after the
fork it moves itself off the CPU its parent was on (where
``os.sched_setaffinity`` and /proc exist), so that the halves run side by
side.  Arrays in its reply go through a ``REGION_BYTES`` shared anonymous
mapping made before the fork; only their places cross the pipe, and the
caller copies them out before its next call.

No helper is forked without ``os.fork``, on one CPU, or while other Python
threads run.  A helper that died has its half run in the calling process,
and one whose caller's half raised is discarded, so a stale reply is never
read.  When ``_LATE_CALLS`` replies in a row arrive more than
``_LATE_RATIO`` times the caller's half time after that half ended (the
split took some 1.5 times one process's time: the other CPU is busy), the
process discards its helper and runs every later call alone.
"""

from __future__ import annotations

import atexit
import importlib
import io
import os
import pickle
import threading
import time
import warnings
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import mmap

REGION_BYTES = 1 << 22  # shared reply region; arrays beyond it go through the pipe
_LATE_CALLS = 3  # late replies in a row after which a process stops splitting
_LATE_RATIO = 2.0  # a late reply comes this many times the caller's half after it
_ALIGN = 64  # byte alignment of each array in the region


class Helper:
    """One helper process, its pipe ends in this process and its region."""

    def __init__(self, pid: int, requests: int, replies: int, region: mmap.mmap):
        self.pid = pid
        self.requests = requests  # writing end of the request pipe
        self.replies = replies  # reading end of the reply pipe
        self.region = region
        self.late = 0  # replies in a row that came late


# Each process's helper, by os.getpid(); None once that process stopped
# splitting.  A process forked from one that holds a helper finds no entry.
_HELPERS: dict[int, Helper | None] = {}


def current() -> Helper | None:
    """This process's helper, forked at first use; None where it cannot help
    or forking is unsafe: without ``os.fork``, on one CPU, while other
    Python threads run (which could hold a lock across the fork or share the
    helper's pipes), or after the process stopped splitting."""
    if threading.active_count() > 1:
        return None
    pid = os.getpid()
    if pid in _HELPERS or not hasattr(os, "fork"):
        return _HELPERS.get(pid)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    try:
        helper = _HELPERS[pid] = _fork()
    except OSError:  # out of processes, fds or memory: this process runs it all
        return None
    return helper


def split(helper: Helper, task: str, theirs: tuple, mine: tuple):
    """``(f(*theirs), f(*mine))`` for the package function ``f`` named
    ``task`` ("module.function"): the helper runs the first while this
    process runs the second.

    Arrays in the first result are views of the helper's region, valid until
    the next call: copy them out.  If this half raises, KeyboardInterrupt
    included, the helper is discarded, so its reply can never be read as the
    next call's.  A dead helper's half runs here, so the result never
    depends on the helper.
    """
    run = _task(task)
    try:
        start = time.perf_counter()
        sent = _send(helper.requests, (task, theirs))
        result = run(*mine)
        done = time.perf_counter()
        reply = _receive(helper.replies, helper.region) if sent else None
    except BaseException:
        discard()
        raise
    if reply is None:
        discard()
        return run(*theirs), result
    if time.perf_counter() - done > _LATE_RATIO * (done - start):
        helper.late += 1
        if helper.late >= _LATE_CALLS:
            discard()
            _HELPERS[os.getpid()] = None
    else:
        helper.late = 0
    return reply, result


def _task(name: str):
    module, function = name.rsplit(".", 1)
    return getattr(importlib.import_module(f"{__package__}.{module}"), function)


def _cpu() -> int | None:
    """The CPU this process last ran on, field 39 of /proc/self/stat; None
    where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            # the command name (field 2) may hold spaces; it ends at the last ")"
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _fork() -> Helper:
    """Fork a helper that answers ``split`` requests over two pipes."""
    import mmap  # here, not at package import

    cpu = _cpu() if hasattr(os, "sched_setaffinity") else None
    region = mmap.mmap(-1, REGION_BYTES)  # anonymous and shared with the helper
    request_in, request_out = os.pipe()
    reply_in, reply_out = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns at a fork once numpy's OpenBLAS has started
            # its threads; the helper runs only this package's numpy kernels
            # and pickle, never BLAS, and no other Python thread runs
            warnings.filterwarnings(
                "ignore",
                r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may "
                r"lead to deadlocks in the child\.",
                DeprecationWarning,
            )
            pid = os.fork()
    except OSError:
        for fd in (request_in, request_out, reply_in, reply_out):
            os.close(fd)
        raise
    if pid == 0:
        _serve(request_in, reply_out, region, cpu)
    os.close(request_in)
    os.close(reply_out)
    return Helper(pid, request_out, reply_in, region)


def _serve(requests: int, replies: int, region: mmap.mmap, cpu: int | None):
    """The helper's loop: answer each request until end of file, then leave
    through ``os._exit``, on an error too.  So it never runs ``atexit``
    hooks or flushes stdio buffers inherited from its parent.

    First it keeps off ``cpu``, its parent's, if another CPU is allowed.  It
    keeps no inherited fd but its two pipe ends, with fds 0-2 on /dev/null:
    it reads end of file once its parent is gone, and holds none of its
    parent's files or pipes open.
    """
    try:
        import gc
        import signal

        if cpu is not None:
            others = os.sched_getaffinity(0) - {cpu}
            try:
                if others:
                    os.sched_setaffinity(0, others)
            except OSError:  # not allowed here: run where the scheduler puts it
                pass
        gc.freeze()  # the parent's objects are never finalized here
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
        null = os.open(os.devnull, os.O_RDWR)
        for fd in range(3):
            os.dup2(null, fd)
        low = 3
        for fd in sorted((requests, replies)):
            os.closerange(low, fd)
            low = fd + 1
        os.closerange(low, max(low, os.sysconf("SC_OPEN_MAX")))
        while (request := _receive(requests)) is not None:
            task, args = request
            _send(replies, _task(task)(*args), region)
    finally:
        os._exit(0)


@atexit.register
def discard():
    """Close this process's helper pipes, then kill and reap the helper."""
    helper = _HELPERS.pop(os.getpid(), None)
    if helper is None:
        return
    import signal

    os.close(helper.requests)
    os.close(helper.replies)
    try:
        os.kill(helper.pid, signal.SIGKILL)
        os.waitpid(helper.pid, 0)
    except OSError:  # reaped already, by a caller that waits for any child
        pass


class _RegionPickler(pickle.Pickler):
    """Writes each numpy array that fits into ``region``, if one is given,
    there, one after the other, and pickles only its place."""

    def __init__(self, file, region: mmap.mmap | None):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.region = region
        self.end = 0

    def persistent_id(self, obj):
        if self.region is None or type(obj) is not np.ndarray or obj.dtype.hasobject:
            return None
        start = -(-self.end // _ALIGN) * _ALIGN
        if start + obj.nbytes > len(self.region):
            return None
        np.ndarray(obj.shape, obj.dtype, self.region, start)[...] = obj
        self.end = start + obj.nbytes
        return start, obj.dtype, obj.shape


class _RegionUnpickler(pickle.Unpickler):
    """Reads what ``_RegionPickler`` wrote; its arrays are views of the region."""

    def __init__(self, file, region: mmap.mmap | None):
        super().__init__(file)
        self.region = region

    def persistent_load(self, pid):
        start, dtype, shape = pid
        return np.ndarray(shape, dtype, self.region, start)


def _send(fd: int, obj, region: mmap.mmap | None = None) -> bool:
    """Write ``obj`` pickled, after its length, with its arrays in ``region``
    if one is given; False if the reader is gone."""
    data = io.BytesIO()
    _RegionPickler(data, region).dump(obj)
    view = memoryview(data.tell().to_bytes(8, "little") + data.getvalue())
    try:
        while view:
            view = view[os.write(fd, view) :]
    except BrokenPipeError:
        return False
    return True


def _receive(fd: int, region: mmap.mmap | None = None):
    """The next object ``_send`` wrote to ``fd``; None at end of file."""
    head = _read(fd, 8)
    body = None if head is None else _read(fd, int.from_bytes(head, "little"))
    if body is None:
        return None
    return _RegionUnpickler(io.BytesIO(body), region).load()


def _read(fd: int, size: int) -> bytes | None:
    """Exactly ``size`` bytes from ``fd``; None if it ends first."""
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)

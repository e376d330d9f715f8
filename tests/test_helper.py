"""The forked helper process: lifecycle, placement, fds, the reply region and
the rule that stops splitting for a back-off, on ``born`` batches and on
image-event calls.

Every split call must give the bytes of one process; these tests compare
with calls made while ``_helper.current`` finds no helper.
"""

import hashlib
import json
import mmap
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from collapsewalk import (
    DetectorSetting,
    bell,
    bell_sign_correlation,
    image_correlation_event,
    sample_image_events,
    walk,
)
from collapsewalk import _helper
from collapsewalk.bell import CHUNK_SIZE

_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
needs_helper = pytest.mark.skipif(
    not hasattr(os, "fork") or (_CPUS or 1) < 2, reason="no fork or no second CPU"
)
needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc")
needs_stat = pytest.mark.skipif(
    not os.access("/proc/self/stat", os.R_OK), reason="no /proc/<pid>/stat"
)
needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity"
)

COLUMNS = ("dot_a", "dot_b", "mu_a", "mu_b", "outcome_a", "outcome_b")
PAIR = (DetectorSetting.from_plane_angle_degrees(0), DetectorSetting.from_plane_angle_degrees(45))
N = 100_000  # 7 chunks: the helper takes 3


def _batch_key(batch):
    return [getattr(batch, name).tobytes() for name in COLUMNS] + [batch.acceptance_rate]


def _draws(n=N, seed=7):
    """The image-event outputs of seed at n events, and where each call left
    its caller's stream: its spawn count and its next child's first word."""
    out = []
    for sampler, key in ((sample_image_events, _batch_key), (image_correlation_event, repr)):
        rng = np.random.default_rng(seed)
        result = key(sampler(*PAIR, n, rng))
        out.append((result, rng.bit_generator.seed_seq.n_children_spawned,
                    int(rng.spawn(1)[0].integers(1 << 63))))
    return out


def _one_process(monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(_helper, "current", lambda: None)
        return _draws(*args)


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _round_trip(helper):
    """One tiny born request answered by ``helper``, so it has started."""
    args = (3, np.array([1, 1]), 2, 100)
    theirs, mine = _helper.split(helper, "walk._born_counts", (*args, 0, 1), (*args, 1, 2))
    assert theirs == walk._born_counts(*args, 0, 1)


def _fresh_helper():
    _helper.discard()
    helper = _helper.current()
    assert helper is not None
    _round_trip(helper)
    return helper


# ------------------------------------------------------------------ image events


@needs_helper
@pytest.mark.parametrize("n", [4 * CHUNK_SIZE, 4 * CHUNK_SIZE + 1, N, 30 * CHUNK_SIZE + 9])
def test_image_event_split_gives_the_one_process_bytes(n, monkeypatch):
    """Chunks 0 to h - 1 on the helper (h capped by the region at 30
    chunks), the rest here: the same columns, estimate and caller stream."""
    _helper.discard()
    split = _draws(n)
    assert isinstance(_helper._HELPERS[os.getpid()], _helper.Helper)
    assert split == _one_process(monkeypatch, n)


@needs_helper
def test_calls_under_four_chunks_and_sign_rounds_fork_nothing():
    _helper.discard()
    sample_image_events(*PAIR, 3 * CHUNK_SIZE, np.random.default_rng(1))
    image_correlation_event(*PAIR, 3 * CHUNK_SIZE, np.random.default_rng(1))
    bell_sign_correlation(*PAIR, 40 * CHUNK_SIZE, np.random.default_rng(1))
    assert os.getpid() not in _helper._HELPERS
    sample_image_events(*PAIR, 4 * CHUNK_SIZE, np.random.default_rng(1))
    assert os.getpid() in _helper._HELPERS


@needs_helper
def test_no_returned_column_aliases_the_region():
    _helper.discard()
    batch = sample_image_events(*PAIR, N, np.random.default_rng(2))
    region = np.frombuffer(_helper._HELPERS[os.getpid()].region, np.uint8)
    try:
        for name in COLUMNS:
            column = getattr(batch, name)
            assert column.base is None and not np.shares_memory(column, region), name
    finally:
        del region


def test_arrays_beyond_the_region_go_through_the_pipe():
    region = mmap.mmap(-1, 4096)
    small, large = np.arange(100, dtype=np.int64), np.arange(1000.0)
    read, write = os.pipe()
    try:
        assert _helper._send(write, (small, [large, 5]), region)
        got_small, (got_large, five) = _helper._receive(read, region)
    finally:
        os.close(read)
        os.close(write)
    whole = np.frombuffer(region, np.uint8)
    assert np.array_equal(got_small, small) and np.shares_memory(got_small, whole)
    assert np.array_equal(got_large, large) and not np.shares_memory(got_large, whole)
    assert five == 5
    del whole, got_small


@needs_helper
def test_helper_killed_mid_call_gives_the_one_process_bytes(monkeypatch):
    want = _one_process(monkeypatch)
    helper = _fresh_helper()
    chunks = bell._chunks

    def kill_first(rng, n):  # this process's half starts with the helper's death
        os.kill(helper.pid, signal.SIGKILL)
        yield from chunks(rng, n)

    with monkeypatch.context() as patch:
        patch.setattr(bell, "_chunks", kill_first)
        rng = np.random.default_rng(7)
        got = _batch_key(sample_image_events(*PAIR, N, rng))
    assert got == want[0][0]
    assert _draws() == want  # a dead helper's pipe is found at the next call at the latest
    assert _gone(helper.pid)


@needs_helper
def test_interrupted_image_call_discards_the_helper(monkeypatch):
    helper = _fresh_helper()

    def interrupted(rng, n):  # in this process's half, after the request went out
        raise KeyboardInterrupt
        yield

    with monkeypatch.context() as patch:
        patch.setattr(bell, "_chunks", interrupted)
        with pytest.raises(KeyboardInterrupt):
            image_correlation_event(*PAIR, N, np.random.default_rng(8))
    assert os.getpid() not in _helper._HELPERS and _gone(helper.pid)
    assert _draws() == _one_process(monkeypatch)


@needs_helper
def test_forked_child_forks_its_own_helper_for_image_events(monkeypatch):
    want = _one_process(monkeypatch)
    helper = _fresh_helper()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            own = _draws() == want and _helper._HELPERS[os.getpid()].pid != helper.pid
            _helper.discard()
            code = 0 if own else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.01)
    if not done[0]:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] and os.waitstatus_to_exitcode(done[1]) == 0
    assert _helper._HELPERS[os.getpid()] is helper
    assert _draws() == want


# ------------------------------------------------------------------ placement and fds


@needs_helper
@needs_affinity
def test_helper_keeps_off_its_parents_cpu(monkeypatch):
    allowed = os.sched_getaffinity(0)
    for cpu in sorted(allowed):
        monkeypatch.setattr(_helper, "_cpu", lambda: cpu)
        helper = _fresh_helper()
        assert os.sched_getaffinity(helper.pid) == allowed - {cpu}
    monkeypatch.undo()
    _helper.discard()


@needs_helper
@needs_affinity
@needs_proc
def test_cpu_reads_where_this_process_runs():
    allowed = os.sched_getaffinity(0)
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            assert _helper._cpu() == cpu
    finally:
        os.sched_setaffinity(0, allowed)


@needs_helper
def test_helper_without_sched_setaffinity_serves_the_same_bytes(monkeypatch):
    want = _one_process(monkeypatch)
    with monkeypatch.context() as patch:
        if hasattr(os, "sched_setaffinity"):
            patch.delattr(os, "sched_setaffinity")
        helper = _fresh_helper()
        assert _draws() == want
    if hasattr(os, "sched_getaffinity"):
        assert os.sched_getaffinity(helper.pid) == os.sched_getaffinity(0)
    _helper.discard()


@needs_helper
@needs_proc
def test_helper_holds_only_its_pipe_ends():
    """fds 0-2 on /dev/null and the two pipes to this process; no other fd
    of this process (say, a test runner's saved stdout) stays open in it."""
    extra = os.open(os.devnull, os.O_RDONLY)
    try:
        helper = _fresh_helper()
    finally:
        os.close(extra)
    held = {int(fd): os.readlink(f"/proc/{helper.pid}/fd/{fd}")
            for fd in os.listdir(f"/proc/{helper.pid}/fd")}
    ends = {os.readlink(f"/proc/self/fd/{fd}") for fd in (helper.requests, helper.replies)}
    assert [held.pop(fd) for fd in range(3)] == [os.devnull] * 3
    assert len(held) == 2 and set(held.values()) == ends


# ------------------------------------------------------------------ the helper's heap


def _minor_faults(pid):
    """Minor faults of pid so far, field 10 of /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", "rb") as stat:
        return int(stat.read().rsplit(b")", 1)[1].split()[7])


def _rss_mb(pid):
    with open(f"/proc/{pid}/status") as status:
        line = next(line for line in status if line.startswith("VmRSS:"))
    return int(line.split()[1]) / 1024


def heap_readings(warm, calls):
    """In a fresh interpreter (see ``fresh_heap``): fork a helper, make warm
    10**5-event image calls, then calls more; return the helper's minor
    faults in each of these, its VmRSS in MB after the warm ones and after
    each of these."""
    _helper._LATE_CALLS = 1 << 30  # a busy CPU stops nothing here
    helper = _helper.current()
    rng = np.random.default_rng(12)
    for _ in range(warm):
        sample_image_events(*PAIR, N, rng)
    faults, settled, rss = [], _rss_mb(helper.pid), []
    for _ in range(calls):
        before = _minor_faults(helper.pid)
        sample_image_events(*PAIR, N, rng)
        faults.append(_minor_faults(helper.pid) - before)
        rss.append(_rss_mb(helper.pid))
    assert _helper._HELPERS[os.getpid()] is helper
    _helper.discard()
    return faults, settled, rss


@pytest.fixture(scope="module")
def fresh_heap():
    """``heap_readings(10, 30)`` run in a new interpreter.  glibc raises its
    trim threshold by itself once a process frees a large mapped block, and
    a helper forked from such a process (as from this test runner after the
    tests above) inherits that; a fresh process, like a bench child or a
    command, has not freed one when its first split call forks the helper."""
    code = "import json, test_helper; print(json.dumps(test_helper.heap_readings(10, 30)))"
    done = subprocess.run([sys.executable, "-c", code], cwd=os.path.dirname(__file__),
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@needs_helper
@needs_stat
def test_helper_keeps_its_heap_between_image_calls(fresh_heap):
    """A helper that gives its heap back after each reply faults it in again
    at the next request: about 1,000 minor faults per call where trimming is
    on, 0-40 where the helper keeps its heap (20 calls after 10 warm-up)."""
    faults = fresh_heap[0][:20]
    assert sum(faults) / len(faults) < 100, faults


@needs_helper
@needs_stat
def test_kept_heap_does_not_grow(fresh_heap):
    """The helper's VmRSS after each of 30 calls stays within 4 MB of its
    reading after the first 10: keeping the heap is no leak."""
    _, settled, rss = fresh_heap
    assert max(abs(mb - settled) for mb in rss) < 4, (settled, rss)


@needs_helper
@pytest.mark.parametrize("error", [OSError, AttributeError])
def test_helper_without_mallopt_serves_the_same_bytes(error, monkeypatch):
    """Where the C library has no ``mallopt`` the helper serves as before;
    the allocator call runs in the helper only, never in this process."""
    want = _one_process(monkeypatch)
    here, called = os.getpid(), []

    def missing():
        called.append(os.getpid())  # seen here only if called in this process
        raise error("no mallopt")

    with monkeypatch.context() as patch:
        patch.setattr(_helper, "_keep_heap", missing)
        helper = _fresh_helper()  # forked with the stub in place
        assert _draws() == want
    assert _helper._HELPERS[here] is helper and not _gone(helper.pid)
    assert called == []
    _helper.discard()


# ------------------------------------------------------------------ a busy second CPU


@needs_helper
def test_late_replies_stop_the_split(monkeypatch):
    """A stub helper whose half sleeps: three late replies in a row discard
    it and later calls run here; an on-time reply resets the count."""
    args = (11, np.array([300, 700]), 1000, 1 << 62)
    born_counts = walk._born_counts

    def slow(*call):
        if call[0] == 11 and call[-2:] == (0, 1):  # the stub's half of a late call
            time.sleep(0.25)
        return born_counts(*call)

    monkeypatch.setattr(walk, "_born_counts", slow)
    try:
        helper = _fresh_helper()  # forked with the stub in place
        helper.late = 0  # the first, tiny round trip may have come late
        late, on_time = (*args, 0, 1), (*args, 0, 0)
        mine = (*args, 1, 41)
        for theirs in (late, late, on_time, late, late):
            _helper.split(helper, "walk._born_counts", theirs, mine)
            assert _helper._HELPERS[os.getpid()] is helper
        assert helper.late == _helper._LATE_CALLS - 1
        _helper.split(helper, "walk._born_counts", late, mine)
        assert _helper._HELPERS[os.getpid()] is None and _gone(helper.pid)
        assert _helper.current() is None
        rng = np.random.default_rng(7)
        assert sample_image_events(*PAIR, N, rng) is not None
        assert _helper._HELPERS[os.getpid()] is None
    finally:
        monkeypatch.undo()
        _helper.discard()
    assert _helper.current() is not None  # discard forgets the stop


@needs_helper
def test_a_stop_ends_after_its_back_off(monkeypatch):
    """After a stop the process runs its calls alone until the back-off has
    passed, then forks a helper again; its next stop lasts twice as long."""
    args = (11, np.array([300, 700]), 1000, 1 << 62)
    born_counts = walk._born_counts

    def slow(*call):
        if call[0] == 11 and call[-2:] == (0, 1):  # the stub's half of a late call
            time.sleep(0.25)
        return born_counts(*call)

    monkeypatch.setattr(walk, "_born_counts", slow)
    monkeypatch.setattr(_helper, "_BACKOFF_S", 0.3)
    monkeypatch.setattr(_helper, "_STOPS", {})  # no earlier stop of this process
    late, mine = (*args, 0, 1), (*args, 1, 41)
    pid = os.getpid()
    try:
        helper = _fresh_helper()  # forked with the stub in place
        for wait in (0.3, 0.6):
            helper.late = 0  # its first, tiny round trip may have come late
            for _ in range(_helper._LATE_CALLS):
                _helper.split(helper, "walk._born_counts", late, mine)
            assert _helper._HELPERS[pid] is None and _gone(helper.pid)
            end, lasts = _helper._STOPS[pid]
            assert lasts == wait
            assert _helper.current() is None  # the stop lasts
            time.sleep(max(0.0, end - time.monotonic()))
            again = _helper.current()
            assert isinstance(again, _helper.Helper) and again.pid != helper.pid
            _round_trip(again)
            helper = again
    finally:
        monkeypatch.undo()
        _helper.discard()


# ------------------------------------------------------------------ a whole command


@needs_helper
@needs_proc
def test_chsh_command_leaves_no_process(tmp_path):
    """``python -m collapsewalk chsh`` at 2 10**5 events per pair (13
    chunks: a helper runs 6) writes its pinned bytes and leaves no process
    of its session behind."""
    out = tmp_path / "chsh.csv"
    proc = subprocess.Popen(
        [sys.executable, "-m", "collapsewalk", "chsh", "--model", "image-event",
         "--settings", "0,90,45,135", "--samples", "200000", "--seed", "1",
         "--out", str(out)],
        start_new_session=True,
    )
    try:
        assert proc.wait(timeout=120) == 0
    finally:
        proc.kill()
    left = []
    for entry in os.listdir("/proc"):
        try:
            if entry.isdigit() and os.getsid(int(entry)) == proc.pid:
                left.append(int(entry))
        except OSError:  # gone meanwhile
            pass
    assert left == []
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "bdf0bd44595bf9d134044adabe9803aa17a334ba2501ea2a869b4dd899c65107"
    )

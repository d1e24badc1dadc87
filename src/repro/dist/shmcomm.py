"""Real shared-memory collectives: the process-backend substrate.

This module promotes the simulated collectives of
:class:`~repro.dist.comm.SimCluster` to *real* inter-process data
movement over ``multiprocessing.shared_memory``.  Each rank owns one
ring-buffer segment it alone writes (single-writer, so no payload
locking is needed); a collective is "publish my buffer, barrier, read
the peers' buffers, barrier".  Communication time is **measured** with a
monotonic clock and the bytes a rank copies out of peer segments are
**counted**, which is what lets the test suite assert the measured
traffic equals the :class:`~repro.dist.comm.CommLedger` accounting the
simulation charges for the same decomposition.

Layout
------
* control segment (``<base>-ctl``): byte 0 is a global abort flag; each
  rank ``r`` owns a 16-byte slot at ``CTR_BASE + 16*r`` whose first 8
  bytes are one *atomic* barrier word — arrival count in the high 32
  bits, the barrier's phase tag in the low 32 — written as a single
  aligned uint64 store so a waiter can never pair a rank's new tag with
  its old count (or vice versa).
* ring segment per rank (``<base>-r<r>``): a 24-byte header (sequence
  number, payload offset, payload length, all uint64) followed by
  ``capacity`` payload bytes.  ``publish`` writes the payload then the
  header; readers only look after the barrier, so no torn reads.

Barrier protocol
----------------
Each rank's count counts the barriers *it* has entered.  A rank enters
a barrier by storing ``(count+1) << 32 | tag`` and spin-waits (with
sleep backoff — the CI container may have a single core) until every
group member's count is ``>= count+1``.  This is correct only under
the BSP alignment invariant the distributed MTTKRP satisfies by
construction: **every rank executes the same global sequence of
collective phases** (each rank joins exactly one slab per gather mode,
one fold, one rank-allgather per layer pass), so counters of ranks
meeting at a barrier are always equal there.  The phase tag turns an
invariant violation into an immediate ``DistributionError`` instead of
a timeout, and the abort flag lets a crashing rank release everyone
else (the crash-injection tests exercise both paths).
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.util.errors import DistributionError

__all__ = [
    "CollectiveRecord",
    "ShmComm",
    "ShmCluster",
    "ShmLayout",
]

#: Ring header: (sequence, payload offset, payload length) as uint64.
_HDR_WORDS = 3
_HDR_BYTES = 8 * _HDR_WORDS
#: Payload starts 64-byte aligned past the header.
_PAYLOAD_BASE = 64
#: Control segment: abort flag in byte 0, counters from byte 64 on
#: (16 bytes per rank: counter word + phase-tag word).
_CTR_BASE = 64
_CTR_STRIDE = 16

_DEFAULT_TIMEOUT_S = 120.0
_SPIN_BEFORE_SLEEP = 200
_SLEEP_S = 0.0002

_cluster_seq = itertools.count()


def _phase_tag(op: str, group: tuple[int, ...], phase: int) -> int:
    """FNV-1a over the op name, group, and phase index — the value every
    member of one barrier writes next to its counter."""
    h = 0xCBF29CE484222325
    for token in (op, group, phase):
        for b in repr(token).encode():
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h or 1


@dataclass(frozen=True)
class ShmLayout:
    """Names and sizes of one cluster's shared segments (picklable, so
    worker tasks can attach by name)."""

    base: str
    n_ranks: int
    capacity: int

    @property
    def ctl_name(self) -> str:
        return f"{self.base}-ctl"

    def ring_name(self, rank: int) -> str:
        return f"{self.base}-r{rank}"

    @property
    def ctl_size(self) -> int:
        return _CTR_BASE + _CTR_STRIDE * self.n_ranks

    @property
    def ring_size(self) -> int:
        return _PAYLOAD_BASE + self.capacity


@dataclass
class CollectiveRecord:
    """One collective as observed by its group leader: enough to charge
    a :class:`~repro.dist.comm.CommLedger` with the simulation's byte
    formulas next to the *measured* duration."""

    op: str
    ranks: tuple[int, ...]
    #: Per-member payload bytes (allgather) or the common buffer size
    #: (reduce_scatter / allreduce).
    sizes: tuple[int, ...]
    #: Leader-measured wall seconds for the whole collective.
    seconds: float

    def ledger_bytes(self) -> float:
        """The exact bytes :class:`SimCluster` would charge."""
        g = len(self.ranks)
        if self.op == "allgather":
            per_rank = float(np.mean(self.sizes)) if self.sizes else 0.0
            return (g - 1) * per_rank * g
        if self.op == "reduce_scatter":
            return (g - 1) / g * float(self.sizes[0]) * g
        if self.op == "allreduce":
            return 2.0 * (g - 1) * float(self.sizes[0])
        return 0.0


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment.

    Pool workers share the parent's resource-tracker process (the fd is
    inherited through fork/spawn), so the child-side registration this
    attach performs is an idempotent set-add on a name the parent already
    registered at create time, and the parent's single ``unlink()``
    balances it — no per-child unregister needed (an unregister here
    would strip the parent's entry and make its unlink complain)."""
    return shared_memory.SharedMemory(name=name)


class ShmComm:
    """One rank's handle on the cluster's shared segments.

    Collective semantics mirror :class:`SimCluster` exactly — buffers
    are delivered in group order and reductions sum in group order — so
    a process-backend run is bitwise identical to the simulated one.
    """

    def __init__(
        self, layout: ShmLayout, rank: int, timeout_s: float = _DEFAULT_TIMEOUT_S
    ) -> None:
        self.layout = layout
        self.rank = int(rank)
        self.timeout_s = float(timeout_s)
        self._ctl = _attach(layout.ctl_name)
        self._rings = [_attach(layout.ring_name(r)) for r in range(layout.n_ranks)]
        self._next_off = 0
        #: Measured bytes this rank copied out of *peer* segments.
        self.bytes_moved: int = 0
        #: Measured wall seconds spent inside collectives.
        self.comm_seconds: float = 0.0
        #: Leader-side records (this rank is leader when it is group[0]).
        self.records: list[CollectiveRecord] = []

    # -- control-segment primitives ------------------------------------
    def _ctr_view(self) -> np.ndarray:
        n = self.layout.n_ranks
        return np.frombuffer(
            self._ctl.buf, dtype=np.uint64, count=2 * n, offset=_CTR_BASE
        ).reshape(n, 2)

    @property
    def aborted(self) -> bool:
        return self._ctl.buf[0] != 0

    def abort(self) -> None:
        """Flip the global abort flag: every rank spinning in a barrier
        raises ``DistributionError`` instead of deadlocking."""
        self._ctl.buf[0] = 1

    def _barrier(self, group: Sequence[int], tag: int) -> None:
        # One atomic 8-byte word per rank: arrival count in the high 32
        # bits, the barrier's phase tag in the low 32.  A single aligned
        # store keeps (count, tag) consistent for readers — publishing
        # them separately would let a waiter pair my new tag with my old
        # count (or vice versa) and report a phantom divergence.
        ctr = self._ctr_view()
        tag32 = tag & 0xFFFFFFFF
        my_count = (int(ctr[self.rank, 0]) >> 32) + 1
        ctr[self.rank, 0] = np.uint64((my_count << 32) | tag32)
        deadline = time.monotonic() + self.timeout_s
        spins = 0
        members = [int(r) for r in group]
        while True:
            if self.aborted:
                raise DistributionError(
                    f"rank {self.rank}: collective aborted by a peer failure"
                )
            words = [int(ctr[m, 0]) for m in members]
            counts = [w >> 32 for w in words]
            if min(counts) >= my_count:
                # Peers exactly at my phase must carry my tag; peers that
                # raced ahead already matched it (they could not pass
                # this barrier without seeing my arrival).
                bad = [
                    m
                    for m, w, c in zip(members, words, counts)
                    if c == my_count and (w & 0xFFFFFFFF) != tag32
                ]
                if bad:
                    self.abort()
                    raise DistributionError(
                        f"rank {self.rank}: barrier phase mismatch with ranks "
                        f"{bad} — ranks diverged from the BSP collective sequence"
                    )
                return
            spins += 1
            if spins < _SPIN_BEFORE_SLEEP:
                time.sleep(0)
            else:
                time.sleep(_SLEEP_S)
            if time.monotonic() > deadline:
                self.abort()
                raise DistributionError(
                    f"rank {self.rank}: barrier timeout after "
                    f"{self.timeout_s:.0f}s waiting for ranks "
                    f"{[m for m, c in zip(members, counts) if c < my_count]}"
                )

    def barrier(self, group: Sequence[int]) -> None:
        """Synchronize a group (measured; no payload)."""
        t0 = time.perf_counter()
        grp = tuple(int(r) for r in group)
        self._barrier(grp, _phase_tag("barrier", grp, 0))
        dt = time.perf_counter() - t0
        self.comm_seconds += dt
        if self.rank == grp[0]:
            self.records.append(CollectiveRecord("barrier", grp, (), dt))

    # -- ring-buffer primitives ----------------------------------------
    def _publish(self, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr)
        need = arr.nbytes
        if need > self.layout.capacity:
            raise DistributionError(
                f"payload of {need} bytes exceeds ring capacity "
                f"{self.layout.capacity} (size the cluster for the largest "
                "collective buffer)"
            )
        off = self._next_off
        if off + need > self.layout.capacity:
            off = 0
        ring = self._rings[self.rank]
        if need:
            dst = np.frombuffer(
                ring.buf, dtype=arr.dtype, count=arr.size, offset=_PAYLOAD_BASE + off
            )
            dst[:] = arr.reshape(-1)
        hdr = np.frombuffer(ring.buf, dtype=np.uint64, count=_HDR_WORDS)
        hdr[1] = off
        hdr[2] = need
        hdr[0] = hdr[0] + 1
        self._next_off = off + ((need + 63) // 64) * 64

    def _peer_payload(
        self, peer: int, dtype: np.dtype, n_cols: int
    ) -> tuple[int, int]:
        """(payload offset, row count) of a peer's published 2-D buffer."""
        ring = self._rings[peer]
        hdr = np.frombuffer(ring.buf, dtype=np.uint64, count=_HDR_WORDS)
        off, length = int(hdr[1]), int(hdr[2])
        row_bytes = n_cols * dtype.itemsize
        if row_bytes == 0 or length % row_bytes:
            raise DistributionError(
                f"rank {self.rank}: peer {peer} published {length} bytes, "
                f"not a multiple of the expected {row_bytes}-byte rows"
            )
        return off, length // row_bytes

    def _read_peer(
        self,
        peer: int,
        dtype: np.dtype,
        n_cols: int,
        row_range: "tuple[int, int] | None" = None,
    ) -> np.ndarray:
        """Copy (a row slice of) a peer's published buffer; the copy is
        the measured data movement."""
        off, rows = self._peer_payload(peer, dtype, n_cols)
        lo, hi = (0, rows) if row_range is None else row_range
        view = np.frombuffer(
            self._rings[peer].buf,
            dtype=dtype,
            count=rows * n_cols,
            offset=_PAYLOAD_BASE + off,
        ).reshape(rows, n_cols)
        # A real copy, never a view: the ring slot gets overwritten by the
        # peer's next publish, and a lingering view would pin the mapping.
        out = view[lo:hi].copy()
        del view
        self.bytes_moved += out.nbytes
        return out

    # -- collectives -----------------------------------------------------
    def _check_buffer(self, arr: np.ndarray, op: str) -> np.ndarray:
        if arr.ndim != 2:
            raise DistributionError(f"{op} moves 2-D row buffers, got {arr.ndim}-D")
        return np.ascontiguousarray(arr)

    def allgather(
        self, group: Sequence[int], mine: np.ndarray
    ) -> "list[np.ndarray]":
        """Deliver every member's buffer to this rank, in group order.
        Buffers share the column count; row counts may differ."""
        t0 = time.perf_counter()
        grp = tuple(int(r) for r in group)
        mine = self._check_buffer(mine, "allgather")
        n_cols = mine.shape[1]
        self._publish(mine)
        self._barrier(grp, _phase_tag("allgather", grp, 0))
        out = []
        for r in grp:
            out.append(mine.copy() if r == self.rank else
                       self._read_peer(r, mine.dtype, n_cols))
        self._barrier(grp, _phase_tag("allgather", grp, 1))
        dt = time.perf_counter() - t0
        self.comm_seconds += dt
        if self.rank == grp[0]:
            self.records.append(
                CollectiveRecord(
                    "allgather", grp, tuple(b.nbytes for b in out), dt
                )
            )
        return out

    def reduce_scatter(self, group: Sequence[int], mine: np.ndarray) -> np.ndarray:
        """Element-wise sum of the members' identically shaped buffers;
        this rank receives its group position's equal chunk along axis 0.
        Summation order is group order — bitwise identical to
        :meth:`SimCluster.reduce_scatter`."""
        t0 = time.perf_counter()
        grp = tuple(int(r) for r in group)
        mine = self._check_buffer(mine, "reduce_scatter")
        chunk = self._reduce_scatter_core(grp, mine, "reduce_scatter")
        self._barrier(grp, _phase_tag("reduce_scatter", grp, 1))
        dt = time.perf_counter() - t0
        self.comm_seconds += dt
        if self.rank == grp[0]:
            self.records.append(
                CollectiveRecord("reduce_scatter", grp, (mine.nbytes,), dt)
            )
        return chunk

    def _reduce_scatter_core(
        self, grp: tuple[int, ...], mine: np.ndarray, op: str
    ) -> np.ndarray:
        p = len(grp)
        rows, n_cols = mine.shape
        self._publish(mine)
        self._barrier(grp, _phase_tag(op, grp, 0))
        bounds = (rows * np.arange(p + 1)) // p
        pos = grp.index(self.rank)
        lo, hi = int(bounds[pos]), int(bounds[pos + 1])
        own = mine[lo:hi]
        acc: "np.ndarray | None" = None
        for r in grp:
            piece = own if r == self.rank else self._read_peer(
                r, mine.dtype, n_cols, (lo, hi)
            )
            if acc is None:
                # _read_peer pieces are fresh copies; only the local slice
                # aliases the caller's buffer and needs one.
                acc = piece.copy() if piece is own else piece
            else:
                acc += piece
        assert acc is not None
        return np.ascontiguousarray(acc)

    def allreduce(self, group: Sequence[int], mine: np.ndarray) -> np.ndarray:
        """Element-wise sum delivered to every member, implemented as
        reduce-scatter + allgather so the measured bytes land exactly on
        the simulation's ``2 (p-1) nbytes`` charge."""
        t0 = time.perf_counter()
        grp = tuple(int(r) for r in group)
        mine = self._check_buffer(mine, "allreduce")
        chunk = self._reduce_scatter_core(grp, mine, "allreduce")
        self._barrier(grp, _phase_tag("allreduce", grp, 1))
        n_cols = mine.shape[1]
        self._publish(chunk)
        self._barrier(grp, _phase_tag("allreduce", grp, 2))
        pieces = []
        for r in grp:
            pieces.append(chunk.copy() if r == self.rank else
                          self._read_peer(r, mine.dtype, n_cols))
        self._barrier(grp, _phase_tag("allreduce", grp, 3))
        total = np.concatenate(pieces, axis=0)
        dt = time.perf_counter() - t0
        self.comm_seconds += dt
        if self.rank == grp[0]:
            self.records.append(
                CollectiveRecord("allreduce", grp, (mine.nbytes,), dt)
            )
        return total

    # -- lifecycle -------------------------------------------------------
    def counters(self) -> tuple[int, float, int]:
        """(bytes_moved, comm_seconds, n_records) — snapshot for delta
        accounting across cached uses."""
        return self.bytes_moved, self.comm_seconds, len(self.records)

    def close(self) -> None:
        for shm in [self._ctl, *self._rings]:
            try:
                shm.close()
            except Exception:
                pass


# ---------------------------------------------------------------------
# worker-side attachment cache: pinned workers persist across tasks, so
# the segments are mapped once per (cluster, rank) instead of per call.
# ---------------------------------------------------------------------
_COMM_CACHE: "dict[tuple[str, int], ShmComm]" = {}


def _comm_for(layout: ShmLayout, rank: int, timeout_s: float) -> ShmComm:
    key = (layout.base, rank)
    comm = _COMM_CACHE.get(key)
    if comm is None:
        comm = ShmComm(layout, rank, timeout_s)
        _COMM_CACHE[key] = comm
    comm.timeout_s = float(timeout_s)
    return comm


def _drop_comms(base: str) -> bool:
    """Worker task: unmap a closed cluster's segments (and any worker
    caches keyed on them)."""
    from repro.dist import procbackend

    for key in [k for k in _COMM_CACHE if k[0] == base]:
        _COMM_CACHE.pop(key).close()
    procbackend.drop_block_cache(base)
    return True


def _spmd_entry(
    layout: ShmLayout,
    rank: int,
    fn: Callable[..., "dict[str, Any]"],
    payload: "dict[str, Any]",
    out_name: "str | None",
    timeout_s: float,
) -> "dict[str, Any]":
    """Run one rank's share of an SPMD function inside a pool worker.

    Any failure flips the cluster abort flag before propagating, so
    peers blocked in a barrier fail fast instead of timing out."""
    comm = _comm_for(layout, rank, timeout_s)
    b0, s0, r0 = comm.counters()
    try:
        result = fn(comm, payload, out_name)
    except BaseException:
        comm.abort()
        raise
    result = dict(result or {})
    result["rank"] = rank
    result["bytes_moved"] = comm.bytes_moved - b0
    result["comm_seconds"] = comm.comm_seconds - s0
    result["records"] = comm.records[r0:]
    return result


class ShmCluster:
    """Parent-side owner of the shared segments plus a pinned process
    pool: rank ``r``'s tasks always land on worker ``r``, so the worker
    *is* the rank for the cluster's lifetime (its attachment and block
    caches stay valid across calls — this is what makes a whole ALS run
    reuse one set of mappings).

    The parent is the only creator/unlinker of segments; ``close()`` (or
    the ``with`` block) unlinks everything even when ranks crashed
    mid-collective — the crash-injection test asserts ``/dev/shm`` ends
    empty.
    """

    def __init__(
        self,
        n_ranks: int,
        capacity: int,
        *,
        pool: "Any | None" = None,
        timeout_s: float = _DEFAULT_TIMEOUT_S,
    ) -> None:
        from repro.exec.pool import WorkerPool

        if n_ranks < 1:
            raise DistributionError(f"need at least one rank, got {n_ranks}")
        capacity = max(64, ((int(capacity) + 63) // 64) * 64)
        base = f"reprodist-{os.getpid()}-{next(_cluster_seq)}"
        self.layout = ShmLayout(base=base, n_ranks=int(n_ranks), capacity=capacity)
        self.timeout_s = float(timeout_s)
        # Pool first: forked workers must not inherit the segment handles.
        if pool is None:
            self._pool = WorkerPool(n_ranks, backend="process", name="repro-dist")
            self._own_pool = True
        else:
            if getattr(pool, "backend", "thread") != "process":
                raise DistributionError("ShmCluster needs a process-backend pool")
            if pool.n_workers < n_ranks:
                raise DistributionError(
                    f"pool has {pool.n_workers} workers, cluster needs {n_ranks}"
                )
            self._pool = pool
            self._own_pool = False
        self._segments: list[shared_memory.SharedMemory] = []
        try:
            ctl = shared_memory.SharedMemory(
                create=True, name=self.layout.ctl_name, size=self.layout.ctl_size
            )
            self._segments.append(ctl)
            ctl.buf[: self.layout.ctl_size] = bytes(self.layout.ctl_size)
            for r in range(n_ranks):
                self._segments.append(
                    shared_memory.SharedMemory(
                        create=True,
                        name=self.layout.ring_name(r),
                        size=self.layout.ring_size,
                    )
                )
        except Exception:
            self.close()
            raise
        self._ctl = self._segments[0]
        self._out_seq = itertools.count()
        self._closed = False
        #: Parent-tracked worker block-cache keys (see procbackend).
        self.sent_blocks: "set[tuple]" = set()

    @property
    def n_ranks(self) -> int:
        return self.layout.n_ranks

    def abort(self) -> None:
        if not self._closed:
            self._ctl.buf[0] = 1

    # ------------------------------------------------------------------
    def run_spmd(
        self,
        fn: Callable[..., "dict[str, Any]"],
        payloads: "Sequence[dict[str, Any]]",
        *,
        out_shape: "tuple[int, ...] | None" = None,
        out_dtype: "np.dtype | None" = None,
    ) -> tuple["list[dict[str, Any]]", "np.ndarray | None"]:
        """Dispatch ``fn(comm, payloads[r], out_name)`` to every rank and
        collect the per-rank result dicts (plus the assembled output
        array when an output segment was requested).

        On any rank failure the abort flag is set, stragglers drain, all
        segments stay owned by the parent (unlinked in :meth:`close`),
        and the first real error is re-raised as ``DistributionError``.
        """
        if self._closed:
            raise DistributionError("ShmCluster is closed")
        if len(payloads) != self.n_ranks:
            raise DistributionError(
                f"{len(payloads)} payloads for {self.n_ranks} ranks"
            )
        out_shm: "shared_memory.SharedMemory | None" = None
        out_name: "str | None" = None
        if out_shape is not None:
            assert out_dtype is not None
            nbytes = max(1, int(np.prod(out_shape)) * np.dtype(out_dtype).itemsize)
            out_name = f"{self.layout.base}-o{next(self._out_seq)}"
            out_shm = shared_memory.SharedMemory(
                create=True, name=out_name, size=nbytes
            )
        try:
            futures = [
                self._pool.submit_pinned(
                    r,
                    _spmd_entry,
                    self.layout,
                    r,
                    fn,
                    payloads[r],
                    out_name,
                    self.timeout_s,
                )
                for r in range(self.n_ranks)
            ]
            results: "list[dict[str, Any] | None]" = [None] * self.n_ranks
            errors: "list[tuple[int, BaseException]]" = []
            for r, fut in enumerate(futures):
                try:
                    results[r] = fut.result(timeout=self.timeout_s + 30.0)
                except BaseException as exc:  # noqa: BLE001 — collected below
                    self.abort()
                    errors.append((r, exc))
            if errors:
                primary = next(
                    (
                        (r, e)
                        for r, e in errors
                        if "aborted by a peer" not in str(e)
                    ),
                    errors[0],
                )
                raise DistributionError(
                    f"rank {primary[0]} failed: {primary[1]}"
                ) from primary[1]
            out = None
            if out_shm is not None:
                assert out_shape is not None and out_dtype is not None
                view = np.frombuffer(
                    out_shm.buf, dtype=out_dtype, count=int(np.prod(out_shape))
                ).reshape(out_shape)
                out = view.copy()
                del view
            return [r for r in results if r is not None], out
        finally:
            if out_shm is not None:
                out_shm.close()
                out_shm.unlink()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment (idempotent) and drop worker mappings."""
        if getattr(self, "_closed", False):
            return
        self._closed = True
        pool = getattr(self, "_pool", None)
        if pool is not None and not pool.closed:
            try:
                drops = [
                    pool.submit_pinned(r, _drop_comms, self.layout.base)
                    for r in range(self.n_ranks)
                ]
                for fut in drops:
                    fut.result(timeout=10.0)
            except Exception:
                pass  # workers may already be dead; unlink regardless
        for shm in self._segments:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except Exception:
                pass
        self._segments = []
        if getattr(self, "_own_pool", False) and pool is not None:
            pool.shutdown()

    def __enter__(self) -> "ShmCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"<ShmCluster {self.n_ranks} rank(s), "
            f"{self.layout.capacity} B rings, {state}>"
        )

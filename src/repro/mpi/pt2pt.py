"""Point-to-point message matching engine.

One :class:`MatchingEngine` instance is shared by every rank of a simulation
(it lives in the engine's shared blackboard).  It implements the MPI matching
rules -- messages match on (communicator context, source, tag) in send order,
with ``ANY_SOURCE``/``ANY_TAG`` wildcards -- and drives the virtual-time
accounting for sends and receives using the cluster's transport models:

* the sender is charged the transport's injection overhead,
* the message "arrives" at ``send_time + latency + size/bandwidth``,
* the receiver's clock advances to at least the arrival time,
* messages larger than the transport's eager threshold use a rendezvous
  protocol: the sender blocks until the receiver has drained the message.

Data movement is real -- every benchmark and test validates actual payloads,
not just timings -- and each payload byte is copied once per hop:

* a blocking send whose message takes the rendezvous path *borrows* the
  sender's buffer: the message carries a read-only view of it, which is safe
  because the sender stays blocked until the receiver has consumed the
  message.  Consumption copies the bytes once, straight into the receive
  buffer, and drops the view, so nothing keeps the sender's memory pinned
  (a Wasm guest can ``memory.grow`` as soon as ``MPI_Send`` returns);
* every other send -- eager, non-blocking (``Isend``, ``Sendrecv``,
  collective sends), and any send while a fault plan is armed (its hooks may
  rewrite the payload) -- is snapshotted into the message at injection time
  and copied out into the receive buffer at match time.

Callers hand :meth:`MatchingEngine.post_send` flat unsigned-byte views, so
``len(data)`` is the message size in bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.fault import inject as _inject
from repro.mpi.errors import TruncationError
from repro.mpi.status import Status
from repro.obs import trace as _trace
from repro.sim.cluster import Cluster
from repro.sim.engine import RankContext

# Wildcards (host-side symbolic values; the guest ABI defines its own).
ANY_SOURCE = -1
ANY_TAG = -1
PROC_NULL = -2


@dataclass
class Message:
    """An in-flight (or buffered) point-to-point message."""

    msg_id: int
    src_world: int
    dst_world: int
    context_id: int
    tag: int
    #: The payload: a snapshot, or a read-only view of a blocked sender's
    #: buffer; emptied once consumed.
    data: Union[bytes, memoryview]
    nbytes: int
    send_time: float
    rendezvous: bool = False
    consumed: bool = False
    consumed_time: float = 0.0


@dataclass
class _WaitingReceiver:
    """A rank blocked inside a receive, with its match pattern."""

    world_rank: int
    context_id: int
    src: int
    tag: int


class MatchingEngine:
    """Shared MPI message-matching and timing engine.

    Parameters
    ----------
    cluster:
        Supplies the per-pair transport models.
    extra_send_overhead, extra_recv_overhead:
        Additional per-call CPU time charged on top of the transport model.
        The MPIWasm embedder uses these hooks to charge its translation costs
        (Figure 6) to the ranks running Wasm guests.
    """

    SHARED_KEY = "mpi.matching"

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self._queues: Dict[Tuple[int, int], List[Message]] = {}
        # Per-rank list of patterns the rank is currently blocked on.  A plain
        # receive registers one; ``block_for_any`` (the progress engine's
        # wait-for-anything primitive behind Waitany and non-blocking
        # collectives) registers one per outstanding request.
        self._waiting: Dict[int, List[_WaitingReceiver]] = {}
        self._msg_counter = itertools.count(1)
        self.messages_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------ helpers

    def _queue(self, dst_world: int, context_id: int) -> List[Message]:
        return self._queues.setdefault((dst_world, context_id), [])

    @staticmethod
    def _matches(msg: Message, src: int, tag: int) -> bool:
        if src != ANY_SOURCE and msg.src_world != src:
            return False
        if tag != ANY_TAG and msg.tag != tag:
            return False
        return True

    def _find_match(
        self, dst_world: int, context_id: int, src: int, tag: int
    ) -> Optional[Message]:
        for msg in self._queue(dst_world, context_id):
            if self._matches(msg, src, tag):
                return msg
        return None

    def has_match(self, dst_world: int, context_id: int, src: int, tag: int) -> bool:
        """Whether a matching message is already buffered (``MPI_Iprobe``)."""
        return self._find_match(dst_world, context_id, src, tag) is not None

    def probe_match(
        self, dst_world: int, context_id: int, src: int, tag: int
    ) -> Optional[Message]:
        """Return (without consuming) the first matching buffered message."""
        return self._find_match(dst_world, context_id, src, tag)

    # -------------------------------------------------------------------- send

    def post_send(
        self,
        ctx: RankContext,
        src_world: int,
        dst_world: int,
        context_id: int,
        tag: int,
        data: Union[bytes, memoryview],
        extra_overhead: float = 0.0,
        blocking: bool = True,
    ) -> Message:
        """Inject a message; optionally block for rendezvous completion.

        ``data`` is a flat byte view (or ``bytes``).  A blocking rendezvous
        send borrows it until consumption; every other send snapshots it here
        (see the module docstring).  Returns the :class:`Message` record (used
        by ``MPI_Isend`` requests and by ``Sendrecv`` to defer the rendezvous
        wait).
        """
        nbytes = len(data)
        transport = self.cluster.transport(src_world, dst_world)
        ctx.advance(transport.send_overhead(nbytes) + extra_overhead)
        rendezvous = transport.is_rendezvous(nbytes)
        if blocking and rendezvous and not _inject.ARMED:
            payload = memoryview(data).toreadonly()
        else:
            payload = bytes(data)
        msg = Message(
            msg_id=next(self._msg_counter),
            src_world=src_world,
            dst_world=dst_world,
            context_id=context_id,
            tag=tag,
            data=payload,
            nbytes=nbytes,
            send_time=ctx.now,
            rendezvous=rendezvous,
        )
        if _inject.ARMED:
            verdict, payload, extra_delay = _inject.ACTIVE.on_message(
                src_world, dst_world, msg.data, ctx.now
            )
            if verdict == "drop":
                # The sender completes normally (the bytes left its NIC); the
                # message simply never reaches the destination queue.
                self.messages_sent += 1
                self.bytes_sent += nbytes
                msg.consumed = True
                msg.consumed_time = ctx.now
                return msg
            msg.data = payload
            # Delaying the injection instant shifts the arrival by the same
            # amount everywhere it is derived (wake targets and consumption).
            msg.send_time += extra_delay
        self._queue(dst_world, context_id).append(msg)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if _trace.ENABLED:
            _trace.RECORDER.instant(
                "pt2pt.post", src_world, ctx.now,
                args={"dst": dst_world, "tag": tag, "nbytes": nbytes,
                      "rendezvous": msg.rendezvous},
            )
        # Wake the receiver if it is blocked on any matching pattern.
        for waiter in self._waiting.get(dst_world, ()):
            if waiter.context_id == context_id and self._matches(msg, waiter.src, waiter.tag):
                arrival = msg.send_time + transport.transfer_time(nbytes)
                ctx.wake(dst_world, not_before=arrival)
                break
        if blocking and msg.rendezvous:
            self.wait_send(ctx, msg)
        return msg

    def wait_send(self, ctx: RankContext, msg: Message) -> None:
        """Block the sender until a rendezvous message has been consumed."""
        if not msg.rendezvous:
            return
        while not msg.consumed:
            # Record that the sender is waiting so the receiver can wake it via
            # the message record itself (the receiver always knows the sender).
            ctx.block(reason=f"rendezvous send to {msg.dst_world} tag={msg.tag}")
        ctx.advance_to(msg.consumed_time)
        if _trace.ENABLED:
            _trace.RECORDER.instant(
                "pt2pt.rendezvous_drain", msg.src_world, ctx.now,
                args={"dst": msg.dst_world, "tag": msg.tag, "nbytes": msg.nbytes},
            )

    # ---------------------------------------------------------- any-of waiting

    def block_for_any(
        self,
        ctx: RankContext,
        dst_world: int,
        patterns: List[Tuple[int, int, int]],
        reason: str = "",
    ) -> None:
        """Block until a message matching *any* ``(context_id, src, tag)``
        pattern is buffered for ``dst_world`` -- or until any wake arrives
        (e.g. a rendezvous send draining).

        Returns immediately when a match is already buffered.  This is a
        condition-variable style wait: callers re-check their own completion
        condition after it returns.  The progress engine uses it so a rank
        stuck in ``MPI_Waitany``/``MPI_Wait`` resumes as soon as *any* of its
        outstanding requests can make progress, rather than pinning itself to
        one arbitrarily chosen request.
        """
        for context_id, src, tag in patterns:
            if self._find_match(dst_world, context_id, src, tag) is not None:
                return
        waiters = [
            _WaitingReceiver(dst_world, context_id, src, tag)
            for context_id, src, tag in patterns
        ]
        registered = self._waiting.setdefault(dst_world, [])
        registered.extend(waiters)
        try:
            ctx.block(reason=reason or f"wait-any on {len(patterns)} request(s)")
        finally:
            for waiter in waiters:
                registered.remove(waiter)
            if not registered:
                self._waiting.pop(dst_world, None)

    # -------------------------------------------------------------------- recv

    def recv(
        self,
        ctx: RankContext,
        dst_world: int,
        context_id: int,
        src: int,
        tag: int,
        buffer: Optional[memoryview],
        max_bytes: int,
        extra_overhead: float = 0.0,
    ) -> Status:
        """Blocking receive into ``buffer`` (or a pure timing receive if None).

        Raises :class:`TruncationError` if the matched message is larger than
        ``max_bytes`` -- the same condition ``MPI_ERR_TRUNCATE`` reports --
        after consuming it, so its sender still completes.
        """
        msg = self._find_match(dst_world, context_id, src, tag)
        while msg is None:
            waiter = _WaitingReceiver(dst_world, context_id, src, tag)
            registered = self._waiting.setdefault(dst_world, [])
            registered.append(waiter)
            try:
                ctx.block(reason=f"recv src={src} tag={tag} ctx={context_id}")
            finally:
                registered.remove(waiter)
                if not registered:
                    self._waiting.pop(dst_world, None)
            msg = self._find_match(dst_world, context_id, src, tag)
        self._queue(dst_world, context_id).remove(msg)
        arrival = self._consume(ctx, msg, buffer, max_bytes, extra_overhead=extra_overhead)
        ctx.advance_to(arrival)
        return Status(source=msg.src_world, tag=msg.tag, count_bytes=msg.nbytes)

    def consume_nowait(
        self,
        ctx: RankContext,
        dst_world: int,
        context_id: int,
        src: int,
        tag: int,
        buffer: Optional[memoryview],
        max_bytes: int,
    ) -> Optional[Tuple[Status, float]]:
        """Consume a matching buffered message without waiting for its arrival.

        The progress engine's receive: charges only the receiver's CPU
        overhead and returns ``(status, arrival_time)`` instead of advancing
        the clock to the arrival -- the caller decides when the *data*
        dependency bites (that separation is what lets a non-blocking
        collective overlap its transfer time with caller compute).  Returns
        ``None`` when nothing matches.
        """
        msg = self._find_match(dst_world, context_id, src, tag)
        if msg is None:
            return None
        if _trace.ENABLED:
            _trace.RECORDER.instant(
                "pt2pt.match", dst_world, ctx.now,
                args={"src": msg.src_world, "tag": msg.tag, "nbytes": msg.nbytes},
            )
        self._queue(dst_world, context_id).remove(msg)
        arrival = self._consume(ctx, msg, buffer, max_bytes)
        return Status(source=msg.src_world, tag=msg.tag, count_bytes=msg.nbytes), arrival

    def _consume(
        self,
        ctx: RankContext,
        msg: Message,
        buffer: Optional[memoryview],
        max_bytes: int,
        extra_overhead: float = 0.0,
    ) -> float:
        """Shared consumption core: copy out, charge the receiver's CPU
        overhead, complete a rendezvous.  Returns the arrival time (when the
        last byte is on the receiver); the caller chooses whether to advance
        the clock to it.

        A message larger than ``max_bytes`` raises :class:`TruncationError`
        (``MPI_ERR_TRUNCATE``) -- but only after it has been consumed and its
        sender woken, as in MPI: the matched send completes either way, so a
        rendezvous sender never waits on a receive that already failed.
        """
        nbytes = msg.nbytes
        transport = self.cluster.transport(msg.src_world, msg.dst_world)
        ctx.advance(transport.recv_overhead(nbytes) + extra_overhead)
        arrival = msg.send_time + transport.transfer_time(nbytes)
        truncated = nbytes > max_bytes
        if buffer is not None and nbytes > 0 and not truncated:
            buffer[:nbytes] = msg.data
        # Drop the payload: a borrowed view must not outlive the blocked send.
        msg.data = b""
        msg.consumed = True
        msg.consumed_time = max(ctx.now, arrival)
        if msg.rendezvous:
            # Wake the sender if it blocked waiting for the rendezvous.
            ctx.wake(msg.src_world, not_before=msg.consumed_time)
        if _trace.ENABLED:
            _trace.RECORDER.instant(
                "pt2pt.consume", msg.dst_world, ctx.now,
                args={"src": msg.src_world, "tag": msg.tag, "nbytes": nbytes,
                      "arrival": arrival, "rendezvous": msg.rendezvous},
            )
        if truncated:
            raise TruncationError(
                f"message of {nbytes} bytes truncated by receive buffer of {max_bytes} bytes"
            )
        return arrival

    # ------------------------------------------------------------- diagnostics

    def pending_count(self) -> int:
        """Total number of buffered, unconsumed messages (for leak checks)."""
        return sum(len(q) for q in self._queues.values())

    def describe_pending(self) -> List[str]:
        """Human-readable list of buffered messages (test diagnostics)."""
        out = []
        for (dst, ctx_id), q in self._queues.items():
            for m in q:
                out.append(
                    f"msg#{m.msg_id} {m.src_world}->{dst} ctx={ctx_id} tag={m.tag} bytes={m.nbytes}"
                )
        return out

(** The socket server: one {!Netaddr} listener serving {!Wire} op
    batches against one {!Hyper_core.Backend.instance}.

    {2 Scheduling: one loop, parking}

    One thread per server runs a [select] loop over the listening
    socket and every session socket, with a 50 ms timeout so
    [drain]/[kill] are noticed promptly.  Each batch runs inline, to
    completion, before the loop reads on: execution is serial, so no
    lock guards the engine.  A session whose batch leaves a transaction
    open ([Begin] without a closing [Commit]/[Abort]) owns it until it
    closes.  Meanwhile any other session's request that needs the
    engine — a live [Ops] batch or [Snapshot { active = true }] — is
    {e parked}: decoded, held, and nothing more is read from that
    socket.  Parked sessions resume oldest first as soon as the owner
    commits, aborts, disconnects or is rolled back by [drain].  Whole
    transactions therefore serialise and never interleave.  [Hello],
    [Ping], [Bye] and snapshot-mode batches never park.

    Session sockets are non-blocking.  A reply the kernel does not take
    at once stays pending on its session, and the session's frames are
    not decoded until it is written, so a client that stops reading
    stalls only its own session.

    {2 Snapshot sessions (MVCC reads)}

    A [Snapshot] request pins a detached read-only view of the committed
    state ({!Hyper_core.Backend.S.snapshot}).  It parks like a live
    batch while another session's transaction is open: the clone needs
    a transaction boundary.  While the view is active, the session's
    batches execute against it {e without parking}: pipelined snapshot
    reads proceed while another session's transaction is open —
    readers never block writers.  Mutations and [Begin]/[Commit]/[Abort]
    in a snapshot batch return [Raised "Snapshot_read_only"]; backends
    that cannot clone (disk, relational, remote), or a session that is
    itself inside a transaction, get an [F_bad_op] fault instead.

    {2 Session lifecycle}

    A client disconnect (EOF, reset) while a transaction is open rolls
    it back.  [drain] stops accepting, answers every request already
    received, and closes the sessions with nothing left to do once a
    tick passes with no socket ready; at the grace deadline whatever
    transaction is still open is rolled back.  [kill]
    is abrupt — sockets close with no replies and the engine is not
    touched — and exists for the crash fuzzer.  A failed [accept]
    (EMFILE, ECONNABORTED, ...) does not stop the server accepting; a
    connection whose fd [select] cannot watch (at or above FD_SETSIZE)
    is closed at once.

    If applying an op raises an exception for which [reraise] returns
    [true] (the fault-injecting VFS's crash), the server records it and
    kills itself without acking the in-flight batch: exactly the
    acked-prefix discipline the net fuzzer checks. *)

type t

val start :
  ?name:string ->
  ?reraise:(exn -> bool) ->
  ?max_frame:int ->
  layout:Hyper_core.Layout.t ->
  Hyper_core.Backend.instance ->
  Netaddr.t ->
  t
(** Bind, listen and spawn the serving loop.  A pre-existing
    unix-socket path is unlinked first.
    @raise Unix.Unix_error if binding fails. *)

val addr : t -> Netaddr.t

val session_count : t -> int
(** Live sessions (for tests and the load harness). *)

val drain : ?grace_s:float -> t -> unit
(** Graceful shutdown: stop accepting, finish in-flight requests,
    reply, close.  Blocks until the loop has closed every session;
    a transaction still open after [grace_s] (default 5s) is rolled
    back. *)

val kill : t -> unit
(** Abrupt shutdown: close every socket now, send nothing, leave the
    engine alone.  Blocks until the loop has exited. *)

val crashed : t -> exn option
(** The reraised exception that killed the server, if any. *)

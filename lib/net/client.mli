(** Socket client: one pipelined connection (plus a round-robin
    {!Pool}) speaking {!Wire} to a {!Server}.

    Requests are pipelined: {!submit} writes an [Ops] frame and returns
    immediately with its request id; {!await} reads replies — which the
    server guarantees arrive in request order — until that id's
    [Results] lands.  {!call} is submit-then-await.

    On a connection failure the client reconnects with exponential
    backoff and retries the failed batch {e once} — but only when no
    transaction is open: a mid-transaction failure lost server-side
    state that a blind retry would silently corrupt, so it surfaces as
    {!Connection_lost} instead.  *)

exception Connection_lost of string
(** The transport died (EOF, reset, decode error) and reconnecting was
    not possible or not safe. *)

exception Server_fault of Wire.fault_code * string
(** The server replied [Fault] to one of our requests. *)

type t

val connect :
  ?client_name:string ->
  ?max_frame:int ->
  ?backoff_base_s:float ->
  ?backoff_max_s:float ->
  ?max_attempts:int ->
  Netaddr.t ->
  t
(** Connect and complete the [Hello]/[Welcome] handshake, retrying with
    exponential backoff ([backoff_base_s] doubling up to [backoff_max_s],
    at most [max_attempts] attempts — defaults 0.05s/2s/8).
    @raise Connection_lost when every attempt fails. *)

val session : t -> int
(** Server-assigned session id of the {e current} connection (changes
    after a reconnect). *)

val generation : t -> int
(** Number of successful handshakes so far: 1 after {!connect},
    incremented by each reconnect. *)

val submit : t -> Hyper_core.Trace.op list -> int
(** Pipeline one batch; returns its request id without waiting. *)

val await : t -> int -> Hyper_core.Trace.outcome list
(** Block until the reply for [rid] arrives.  Replies for earlier
    pipelined requests are buffered for their own [await].
    @raise Invalid_argument if [rid] was never submitted or was already
    awaited. *)

val call : t -> Hyper_core.Trace.op list -> Hyper_core.Trace.outcome list
(** [submit] + [await], with the reconnect-and-retry-once policy. *)

val in_txn : t -> bool
(** Whether the submitted batches have left a transaction open
    (tracked client-side from [Begin]/[Commit]/[Abort] in the op
    stream). *)

val snapshot : t -> active:bool -> unit
(** Toggle snapshot mode on the session.  With [active:true] the server
    pins a consistent read-only view of the committed state (waiting
    while another session's transaction is open); subsequent batches on
    this connection read the view and never park (they proceed while a
    writer session's transaction is open), and any
    mutation or transaction-control op in them returns
    [Raised "Snapshot_read_only"].  With [active:false] the view is
    dropped and the session reads live state again.
    @raise Server_fault with [F_bad_op] when the served backend cannot
    produce a detached view or the session is inside a transaction. *)

val ping : t -> unit
val close : t -> unit
(** Sends [Bye] (best-effort) and closes the socket.  Idempotent. *)

module Pool : sig
  (** A fixed-size set of connections handed out round-robin.  Each
      connection is used by one caller at a time. *)

  type conn = t
  type t

  val create :
    ?client_name:string ->
    ?backoff_base_s:float ->
    ?backoff_max_s:float ->
    ?max_attempts:int ->
    size:int ->
    Netaddr.t ->
    t

  val with_conn : t -> (conn -> 'a) -> 'a
  val close : t -> unit
end

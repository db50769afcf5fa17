(** Instrumented synchronisation primitives — the only way code outside
    [lib/util] is allowed to create mutexes and condition variables (the
    [sync-wrapper-only] lint rule enforces it).

    In plain mode every operation is a single branch over the stdlib
    primitive — the same disabled-by-default fast-path pattern as
    [Hyper_obs].  With the lockdep layer enabled ([HYPER_LOCKDEP=1] in
    the environment, or {!Lockdep.enable}) every acquisition also:

    - records the acquiring thread's held-lock set;
    - checks the declared rank order: taking a lock while holding
      another of higher or equal rank (different lock class) is a
      rank-violation report;
    - maintains a global lock-order graph keyed by lock {e class} (the
      name given at {!Mutex.create} — every instance created under one
      name is the same class, like lockdep's classes): acquiring B while
      holding A inserts the edge A→B, and an insert that closes a cycle
      is reported as a {e would-deadlock} with both acquisition stacks —
      the one recorded when the earlier edge was created and the one
      closing the cycle now;
    - detects re-entrant acquisition of the same instance and raises
      {!Lockdep.Deadlock} instead of hanging;
    - feeds per-lock contention and hold-time events to the registered
      instrument hook ([lib/obs] installs one exporting
      [hyper_lock_held_ns], [hyper_lock_wait_ns], [hyper_lock_waiters]
      and [hyper_lock_contended_total], labelled by lock class).

    Edges between two instances of the {e same} class are not tracked:
    with per-name classes an A→A edge cannot be told apart from a
    re-entrant acquisition, and the codebase's same-class nestings
    (e.g. two engines' group-commit schedulers during replication) are
    instance-disjoint by construction.

    When [HYPER_LOCKDEP=1] is set, an [at_exit] hook prints any
    accumulated reports to stderr and exits with status 70, so any test
    or fuzz binary that would deadlock fails its run even if every
    assertion passed. *)

module Mutex : sig
  type t

  val create : ?rank:int -> string -> t
  (** [create ?rank name] makes a named mutex.  [name] is the lock
      class for the order graph and the metrics label; follow the
      [area.module.role] convention ("core.multiuser.db").  [rank]
      places the class in the declared hierarchy checked by lockdep and
      by the [lock-order] lint rule: locks must be acquired in strictly
      increasing rank order (outermost = lowest).  Unranked locks are
      exempt from rank checks but still tracked in the order graph. *)

  val name : t -> string
  val rank : t -> int option

  val lock : t -> unit
  (** @raise Lockdep.Deadlock when lockdep is enabled and the calling
      thread already holds [t] (a guaranteed self-deadlock). *)

  val try_lock : t -> bool
  val unlock : t -> unit

  val with_lock : t -> (unit -> 'a) -> 'a
  (** [lock], run, [unlock] under [Fun.protect]. *)
end

module Condition : sig
  type t

  val create : unit -> t

  val wait : t -> Mutex.t -> unit
  (** Releases the mutex for the duration of the wait in the lockdep
      held-set too, so a signaller's acquisition is not misread as a
      contention edge against the waiter. *)

  val signal : t -> unit
  val broadcast : t -> unit
end

(** {2 Instrumentation events} *)

type event =
  | Ev_acquired of { lock : string; wait_ns : float; contended : bool }
      (** the acquisition completed; [wait_ns] is time spent blocked *)
  | Ev_released of { lock : string; held_ns : float }
  | Ev_waiting of { lock : string; delta : int }
      (** a waiter appeared ([+1]) or was admitted ([-1]) *)

val set_instrument_hook : (event -> unit) -> unit
(** At most one hook; [lib/obs] installs the metrics exporter at link
    time.  Events fire only while lockdep is enabled. *)

(** {2 The detector} *)

module Lockdep : sig
  type kind = Would_deadlock | Rank_violation | Reentrant_lock

  type report = {
    kind : kind;
    lock : string;  (** class being acquired when the problem surfaced *)
    held : string list;  (** classes the thread held, innermost first *)
    cycle : string list;
        (** [Would_deadlock]: the class cycle, starting and ending at
            [lock]; empty otherwise *)
    message : string;
    stack_now : string;  (** acquisition stack that closed the cycle *)
    stack_prior : string;
        (** stack recorded when the conflicting edge was first inserted;
            empty for rank/re-entrance reports *)
  }

  exception Deadlock of report
  (** Raised on re-entrant acquisition (the one case where continuing
      would hang the calling thread unconditionally). *)

  val enable : unit -> unit
  (** Switches the detector on and resets held-sets, the order graph
      and accumulated reports. *)

  val disable : unit -> unit
  val enabled : unit -> bool

  val reports : unit -> report list
  (** Oldest first.  Each distinct (kind, edge/pair) is reported once. *)

  val clear : unit -> unit
  (** Drop accumulated reports and the order graph; held-sets survive
      (locks currently held stay tracked). *)

  val edges : unit -> (string * string) list
  (** The order graph's edges, sorted — for tests and debugging. *)

  val check_exn : unit -> unit
  (** @raise Deadlock with the first accumulated report, if any. *)

  val report_to_string : report -> string
end

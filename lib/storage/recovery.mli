(** Crash recovery from the write-ahead log.

    One pass over the log since the last checkpoint, in log order: each
    {!Wal.Delta} range of a committed transaction is redone (its new
    bytes written), each range of a transaction without a commit record
    is undone (its old bytes written).  The engine runs one write
    transaction at a time, so at most one transaction is in flight at a
    crash; others without a commit record aborted cleanly. *)

type report = {
  committed : int list;   (** transactions redone *)
  rolled_back : int list; (** transactions undone *)
  pages_redone : int;
  pages_undone : int;
}

val apply_log :
  Wal.entry list ->
  read:(int -> bytes) ->
  write:(int -> bytes -> unit) ->
  int * int
(** Log-order patching over a decoded entry list.  Each page the log
    mentions is fetched once through [read] (a fresh buffer, read
    {e without} checksum verification: a page torn by the crash has a
    stale checksum), patched by every range in log order — new bytes
    for committed transactions, old bytes for the rest — and emitted
    once through [write], which must recompute the checksum.  Returns
    [(pages_redone, pages_undone)], classified by each page's last
    record.  This is the core of {!recover} exposed so a replication
    replica can redo its received log without owning a WAL file. *)

val recover : ?vfs:Vfs.t -> wal_path:string -> Pager.t -> report
(** Replay [wal_path] into the pager.  Pages referenced by the log but
    beyond the current end of file are allocated first (a torn log can
    legitimately mention pages past the data file's end — recovery must
    extend the file, never crash). *)

val needs_recovery : ?vfs:Vfs.t -> string -> bool
(** True when the log contains entries after the last checkpoint. *)

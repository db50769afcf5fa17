(* A timing VFS: wraps another [Vfs.t] so each read, write and sync
   becomes a span and is counted with its byte volume.  It is handed to
   the database through [Diskdb.config.vfs], so every byte of storage
   I/O passes it.  Counting follows the program's own VFS metrics: a
   vectored read counts once per sub-read. *)

module Vfs = Hyper_storage.Vfs

let k_pread = Span.kind "vfs.pread"
let k_pwrite = Span.kind "vfs.pwrite"
let k_sync = Span.kind "vfs.sync"

type counter = { calls : int Atomic.t; bytes : int Atomic.t }

let counter () = { calls = Atomic.make 0; bytes = Atomic.make 0 }
let preads = counter ()
let pwrites = counter ()
let syncs = counter ()

let count c ~calls ~bytes =
  if !Span.enabled then begin
    ignore (Atomic.fetch_and_add c.calls calls : int);
    ignore (Atomic.fetch_and_add c.bytes bytes : int)
  end

let snapshot c = (Atomic.get c.calls, Atomic.get c.bytes)

(* Bytes written to write-ahead logs, counted whether or not tracing is
   on.  Between checkpoints this equals the growth of
   [Diskdb.io_counters.wal_bytes]; unlike that gauge it is not reset
   when a checkpoint truncates the log. *)
let wal_bytes = Atomic.make 0

let wrap_file (f : Vfs.file) =
  let is_wal = Filename.check_suffix f.Vfs.path ".wal" in
  { f with
    Vfs.pread =
      (fun ~buf ~off ->
        count preads ~calls:1 ~bytes:(Bytes.length buf);
        Span.with_ k_pread (fun () -> f.Vfs.pread ~buf ~off));
    pread_multi =
      (fun reqs ->
        count preads ~calls:(List.length reqs)
          ~bytes:(List.fold_left (fun a (b, _) -> a + Bytes.length b) 0 reqs);
        Span.with_ k_pread (fun () -> f.Vfs.pread_multi reqs));
    pwrite =
      (fun ~buf ~off ->
        count pwrites ~calls:1 ~bytes:(Bytes.length buf);
        if is_wal then ignore (Atomic.fetch_and_add wal_bytes (Bytes.length buf) : int);
        Span.with_ k_pwrite (fun () -> f.Vfs.pwrite ~buf ~off));
    sync =
      (fun () ->
        count syncs ~calls:1 ~bytes:0;
        Span.with_ k_sync f.Vfs.sync) }

let wrap (v : Vfs.t) =
  { v with
    Vfs.name = "timed+" ^ v.Vfs.name;
    open_rw = (fun path -> wrap_file (v.Vfs.open_rw path)) }

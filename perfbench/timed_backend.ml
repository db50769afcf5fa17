(* A timing wrapper over any backend: every call becomes a span of one
   of a few classes, so the trace shows where a backend's time goes
   without touching the backend.  The wrapper is transparent: same
   type, same results, same exceptions. *)

open Hyper_core

let k_read = Span.kind "diskdb.read"
let k_index = Span.kind "diskdb.index"
let k_write = Span.kind "diskdb.write"
let k_begin = Span.kind "diskdb.begin"
let k_commit = Span.kind "diskdb.commit"
let k_abort = Span.kind "diskdb.abort"
let k_clear = Span.kind "diskdb.clear_caches"

(* Every backend span kind, for callers summing the time spent inside
   the backend. *)
let kinds = [ k_read; k_index; k_write; k_begin; k_commit; k_abort; k_clear ]

(* Commits through any wrapped instance, counted whether or not tracing
   is on (the per-commit WAL volume needs it on untraced runs). *)
let commits = Atomic.make 0

module Make (B : Backend.S) : Backend.S with type t = B.t = struct
  type t = B.t

  let name = B.name
  let description = B.description
  let read f = Span.with_ k_read f
  let index f = Span.with_ k_index f
  let write f = Span.with_ k_write f

  let begin_txn b =
    Span.set_mark ();
    Span.with_ k_begin (fun () -> B.begin_txn b)

  let commit b =
    Span.with_ k_commit (fun () -> B.commit b);
    Atomic.incr commits

  let abort b = Span.with_ k_abort (fun () -> B.abort b)
  let clear_caches b = Span.with_ k_clear (fun () -> B.clear_caches b)
  let create_node ?near b spec = write (fun () -> B.create_node ?near b spec)
  let add_child b ~parent ~child = write (fun () -> B.add_child b ~parent ~child)
  let add_part b ~whole ~part = write (fun () -> B.add_part b ~whole ~part)
  let add_children b ~parent a = write (fun () -> B.add_children b ~parent a)
  let add_parts b ~whole a = write (fun () -> B.add_parts b ~whole a)

  let add_ref b ~src ~dst ~offset_from ~offset_to =
    write (fun () -> B.add_ref b ~src ~dst ~offset_from ~offset_to)

  let remove_child b ~parent ~child =
    write (fun () -> B.remove_child b ~parent ~child)

  let remove_part b ~whole ~part = write (fun () -> B.remove_part b ~whole ~part)
  let remove_ref b ~src ~dst = write (fun () -> B.remove_ref b ~src ~dst)
  let delete_node b oid = write (fun () -> B.delete_node b oid)
  let kind b oid = read (fun () -> B.kind b oid)
  let unique_id b oid = read (fun () -> B.unique_id b oid)
  let ten b oid = read (fun () -> B.ten b oid)
  let hundred b oid = read (fun () -> B.hundred b oid)
  let million b oid = read (fun () -> B.million b oid)
  let set_hundred b oid v = write (fun () -> B.set_hundred b oid v)
  let set_dyn_attr b oid k v = write (fun () -> B.set_dyn_attr b oid k v)
  let dyn_attr b oid k = read (fun () -> B.dyn_attr b oid k)
  let lookup_unique b ~doc uid = index (fun () -> B.lookup_unique b ~doc uid)
  let range_unique b ~doc ~lo ~hi = index (fun () -> B.range_unique b ~doc ~lo ~hi)

  let range_hundred b ~doc ~lo ~hi =
    index (fun () -> B.range_hundred b ~doc ~lo ~hi)

  let range_million b ~doc ~lo ~hi =
    index (fun () -> B.range_million b ~doc ~lo ~hi)

  let prefetch_nodes b oids = read (fun () -> B.prefetch_nodes b oids)
  let children b oid = read (fun () -> B.children b oid)
  let parent b oid = read (fun () -> B.parent b oid)
  let parts b oid = read (fun () -> B.parts b oid)
  let part_of b oid = read (fun () -> B.part_of b oid)
  let refs_to b oid = read (fun () -> B.refs_to b oid)
  let refs_from b oid = read (fun () -> B.refs_from b oid)
  let text b oid = read (fun () -> B.text b oid)
  let set_text b oid s = write (fun () -> B.set_text b oid s)
  let form b oid = read (fun () -> B.form b oid)
  let set_form b oid f = write (fun () -> B.set_form b oid f)
  let iter_doc b ~doc f = read (fun () -> B.iter_doc b ~doc f)
  let node_count b ~doc = read (fun () -> B.node_count b ~doc)
  let store_result_list b oids = write (fun () -> B.store_result_list b oids)
  let snapshot = B.snapshot
  let io_description = B.io_description
  let reset_io = B.reset_io
end

(* commit-l5: durable writes.  [nproc] writer threads run Multiuser's
   2PL update transactions (hot_fraction 0, no readers) on a level-5
   diskdb that fits the pool, with durable_sync and the shipped
   Group_commit.default_config.  Commits go through the [?commit] seam
   exactly as the multi-user bench leg does: the commit ticket inside
   the database mutex, the durability wait outside it. *)

open Db
module L = Layers
module MU = Hyper_core.Multiuser
module E = Hyper_storage.Engine
module Sync = Hyper_util.Sync
module Timed_vfs = Perfbench.Timed_vfs

let level = 5
let setups = 5
let txns_per_user = 50

(* Commits per measurement window of throughput and latency. *)
let window = 1000
let k_ticket = Span.kind "engine.commit_ticket"
let k_await = Span.kind "engine.await_durable"

(* Totals of one kind of batch (untraced or traced). *)
type acc = {
  lat : Pctl.Buf.t;  (* begin_txn to durable, ms *)
  done_at : Pctl.Buf.t;  (* when each became durable, s *)
  mutable txn_ns : int;  (* first backend call to durable *)
  mutable attempted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable retried_ok : int;
  mutable wal_bytes : int;
  mutable fsyncs : int;
  mutable groups : int;
  mutable members : int;
  mutable batches : int;
}

let acc () =
  { lat = Pctl.Buf.create (); done_at = Pctl.Buf.create (); txn_ns = 0; attempted = 0; committed = 0;
    aborted = 0; retried_ok = 0; wal_bytes = 0; fsyncs = 0;
    groups = 0; members = 0; batches = 0 }

let run ~seed ~seconds ~trace =
  let users = Domain.recommended_domain_count () in
  let s = setup ~name:"commit-l5" ~durable:true ~level ~seed ~times:setups in
  let layout = s.layout in
  (* The cold/warm probes run on a reopen with the default (non-durable)
     flush policy, so they time reads, not fsyncs. *)
  let reopen db ~durable =
    D.close db;
    D.open_db (config ~path:s.store ~durable)
  in
  let probe_on db ~from =
    if trace then (db, [])
    else
      let db = reopen db ~durable:false in
      let rounds = probe ~seed ~from ~seconds:probe_seconds db layout in
      (reopen db ~durable:true, rounds)
  in
  let db, before = probe_on s.db ~from:0 in
  let engine = D.engine db in
  let module M = MU.Make (T) in
  let lock = Sync.Mutex.create "perfbench.commit.samples" in
  (* The commit seam, timing both phases; the wait closure also closes
     the transaction's latency sample on its own thread. *)
  let seam a () =
    let tk = Span.with_ k_ticket (fun () -> E.commit_ticket engine) in
    fun () ->
      Span.with_ k_await (fun () -> E.await_durable engine tk);
      let now = Span.now () in
      let began = Span.mark () and opened = Span.close_unit () in
      Sync.Mutex.with_lock lock (fun () ->
          Pctl.Buf.add a.lat (float_of_int (now - began) /. 1e6);
          Pctl.Buf.add a.done_at (float_of_int now /. 1e9);
          if opened > 0 then a.txn_ns <- a.txn_ns + (now - opened))
  in
  let group_stats () = Option.value (E.group_commit_stats engine) ~default:(0, 0) in
  (* The split seam never runs Engine.commit's checkpoint check, so the
     log would grow by every commit's page images for the whole run (a
     few GB).  Between batches, when no commit is in flight and outside
     any traced window, checkpoint at the threshold Engine.commit uses. *)
  let threshold = (config ~path:s.store ~durable:true).D.checkpoint_wal_bytes in
  let checkpoints = ref 0 in
  let maybe_checkpoint () =
    if (D.io_counters db).D.wal_bytes > threshold then begin
      D.checkpoint db;
      incr checkpoints
    end
  in
  let batch a i =
    let wal0 = Atomic.get Timed_vfs.wal_bytes and syncs0 = E.wal_sync_count engine in
    let g0, m0 = group_stats () in
    let r =
      M.run ~commit:(seam a) db layout ~mode:MU.Two_phase_locking ~users
        ~txns_per_user ~hot_fraction:0.0 ~seed:(Int64.add seed (Int64.of_int i))
    in
    let g1, m1 = group_stats () in
    a.attempted <- a.attempted + r.MU.txns_attempted;
    a.committed <- a.committed + r.MU.committed;
    a.aborted <- a.aborted + r.MU.aborted;
    a.retried_ok <- a.retried_ok + r.MU.retried_ok;
    a.wal_bytes <- a.wal_bytes + Atomic.get Timed_vfs.wal_bytes - wal0;
    a.fsyncs <- a.fsyncs + E.wal_sync_count engine - syncs0;
    a.groups <- a.groups + g1 - g0;
    a.members <- a.members + m1 - m0;
    a.batches <- a.batches + 1
  in
  let plain = acc () and traced = acc () and io = L.io () in
  (* Untraced: batches until the time is up, and on a machine too slow
     for three measurement windows in that time, on for up to twice as
     long again.  Traced: alternate untraced and traced batches, so the
     overhead ratio compares neighbours. *)
  let t0 = Span.now () in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let t_limit = t0 + int_of_float (3.0 *. seconds *. 1e9) in
  let short () = (not trace) && plain.committed < 3 * window && Span.now () < t_limit in
  let rec go i =
    if i < 4 || Span.now () < t_end || short () then begin
      if trace && i mod 2 = 1 then L.traced io db (fun () -> batch traced i)
      else batch plain i;
      maybe_checkpoint ();
      go (i + 1)
    end
  in
  go 0;
  let peak = Report.peak_rss_mb () in
  (* Checks, outside the timed window. *)
  let all f = f plain + f traced in
  let attempted = all (fun a -> a.attempted) and committed = all (fun a -> a.committed)
  and aborted = all (fun a -> a.aborted) in
  Report.check "commit-l5: committed + aborted = attempted"
    (committed + aborted = attempted)
    (Printf.sprintf "%d + %d <> %d" committed aborted attempted);
  Report.check "commit-l5: one latency sample per commit"
    (Pctl.Buf.length plain.lat + Pctl.Buf.length traced.lat = committed) "";
  normalize_hundred db layout;
  let db, after = probe_on db ~from:(List.length before) in
  verify "commit-l5" db layout;
  D.close db;
  remove_store s.store;
  let lat = Pctl.Buf.to_array plain.lat in
  let f = float_of_int in
  let values =
    if not trace then
      probe_values (before @ after)
      @ [ L.v ~n:setups "setup_s" (Pctl.median s.setup_s);
        L.v ~n:plain.committed "wal_bytes_per_commit" (L.per (f plain.committed) (f plain.wal_bytes));
        L.v "db_bytes_per_node" s.db_bytes_per_node; L.v "peak_rss_mb" peak ]
      @ L.windowed (Pctl.windows ~size:window ~times:(Pctl.Buf.to_array plain.done_at) lat)
    else
      let n = f traced.committed in
      let ns k = f (Span.totals k).Span.total_ns in
      let ticket = ns k_ticket and await = ns k_await in
      let wait = f traced.txn_ns -. f (L.backend_ns ()) -. ticket -. await in
      let tlat = Pctl.Buf.to_array traced.lat in
      List.concat
        [ L.from_spans ~per:n; L.from_io ~per:n io;
          [ L.v "engine.commit_ticket_ms" (L.per n (ticket /. 1e6));
            L.v "engine.await_durable_ms" (L.per n (await /. 1e6));
            L.v "group_commit.mean_size" (L.per (f traced.groups) (f traced.members));
            L.v "wal.fsyncs_per_commit" (L.per n (f traced.fsyncs));
            L.v ~n:traced.committed "multiuser.txn_ms" (L.per n (f traced.txn_ns /. 1e6));
            L.v "multiuser.cc_wait_ms" (L.per n (wait /. 1e6));
            L.v "multiuser.aborts" (L.per n (f traced.aborted));
            L.v "multiuser.retried_ok" (L.per n (f traced.retried_ok));
            L.v ~n:setups "generator.ms_per_node" s.gen_ms_per_node;
            L.v "trace.overhead_ratio" (Pctl.median tlat /. Pctl.median lat);
            L.v "fail_ratio" (L.per (f attempted) (f aborted)) ] ]
  in
  Printf.printf
    "commit-l5: %d users, %d batches (%d traced), %d committed, %d aborted, %d checkpoints\n%!"
    users (plain.batches + traced.batches) traced.batches committed aborted !checkpoints;
  L.summary_line "commit-l5 txn latency (begin to durable)" lat;
  { L.settings =
      [ ("level", Report.Int level); ("pool_pages", Report.Int pool_pages);
        ("users", Report.Int users); ("mode", Report.Str "2PL");
        ("hot_fraction", Report.Num 0.0); ("readers", Report.Int 0);
        ("txns_per_user_per_batch", Report.Int txns_per_user);
        ("setups", Report.Int setups);
        ("checkpoint_between_batches_at_wal_bytes", Report.Int threshold) ]
      @ flush_settings ~durable:true;
    attempted; failed = aborted; values }

(* Database set-up, checks and the short §6 probe shared by the
   workloads.  Every store lives under [run_dir] in the checkout and is
   removed when the run ends. *)

open Hyper_core
module D = Hyper_diskdb.Diskdb
module T = Perfbench.Timed_backend.Make (D)
module G = Generator.Make (D)
module Span = Perfbench.Span
module Pctl = Perfbench.Pctl
module Report = Perfbench.Report
module Rounds = Perfbench.Rounds

let run_dir = Filename.concat "perfbench" "_run"

let path name =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  Filename.concat run_dir (Printf.sprintf "%s-%d" name (Unix.getpid ()))

let remove_store path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".wal"; path ^ ".sum" ]

let pool_pages = (D.default_config ~path:"").D.pool_pages

(* [durable]: fsync the WAL at commit through the shipped group-commit
   configuration; otherwise the Diskdb default, no fsync. *)
let config ~path ~durable =
  { (D.default_config ~path) with
    D.durable_sync = durable;
    group_commit =
      (if durable then Some Hyper_storage.Group_commit.default_config else None);
    vfs = Some (Perfbench.Timed_vfs.wrap Hyper_storage.Vfs.real) }

let flush_settings ~durable =
  let gc = Hyper_storage.Group_commit.default_config in
  [ ("durable_sync", Report.Bool durable);
    ( "group_commit",
      Report.Str
        (if durable then
           Printf.sprintf "default: max_batch=%d max_hold_ns=%.0f"
             gc.Hyper_storage.Group_commit.max_batch
             gc.Hyper_storage.Group_commit.max_hold_ns
         else "off") ) ]

type setup = {
  db : D.t;
  layout : Layout.t;
  store : string;
  setup_s : float array;  (* each set-up: open plus generation *)
  gen_ms_per_node : float;  (* median over the set-ups *)
  db_bytes_per_node : float;  (* right after generation (paper T1) *)
}

(* Build the database [times] times and keep the last one open: the
   set-up time is reported as a median, like every other timing. *)
let setup ~name ~durable ~level ~seed ~times =
  let store = path name in
  let rec go i acc_s acc_g =
    remove_store store;
    let t0 = Span.now () in
    let db = D.open_db (config ~path:store ~durable) in
    let t1 = Span.now () in
    let layout, _ = G.generate db ~doc:1 ~leaf_level:level ~seed in
    let t2 = Span.now () in
    let n = float_of_int layout.Layout.node_count in
    let acc_s = (float_of_int (t2 - t0) /. 1e9) :: acc_s in
    let acc_g = (float_of_int (t2 - t1) /. 1e6 /. n) :: acc_g in
    if i < times then begin
      D.close db;
      go (i + 1) acc_s acc_g
    end
    else
      { db; layout; store; setup_s = Array.of_list acc_s;
        gen_ms_per_node = Pctl.median (Array.of_list acc_g);
        db_bytes_per_node = float_of_int (D.file_bytes db) /. n }
  in
  go 1 [] []

let close s =
  D.close s.db;
  remove_store s.store

let verify label db layout =
  let module V = Verify.Make (D) in
  let checks = V.run db layout in
  Report.check (label ^ ": Verify all ok") (Verify.all_ok checks)
    (String.concat "; "
       (List.map (fun c -> c.Verify.name ^ ": " ^ c.Verify.detail)
          (Verify.failures checks)))

(* Undo the parity of the multi-user flips ([h -> 99 - h]) that left a
   [hundred] below the generated range, as the transaction tests do. *)
let normalize_hundred db layout =
  D.begin_txn db;
  Layout.iter_oids layout (fun oid ->
      let h = D.hundred db oid in
      if h < 1 then D.set_hundred db oid (99 - h));
  D.commit db

(* The paper's cold/warm ms/node on a workload's own database, outside
   its load window: whole §6 rounds on the unwrapped backend for at
   least [seconds] (and at least two rounds), numbered from [from] so
   each call draws fresh inputs.  A workload probes once before and once
   after its load, so the result averages two states of the machine. *)
let probe ~seed ~from ~seconds db layout =
  let module R = Rounds.Make (D) in
  let t_end = Span.now () + int_of_float (seconds *. 1e9) in
  let rec go r acc =
    if r >= from + 2 && Span.now () >= t_end then List.rev acc
    else go (r + 1) (R.round ~seed ~round:r db layout :: acc)
  in
  go from []

let probe_seconds = 2.5

let probe_values rounds =
  let n = List.length rounds in
  [ Layers.v ~n "cold_ms_per_node" (Rounds.geo_ms_per_node `Cold rounds);
    Layers.v ~n "warm_ms_per_node" (Rounds.geo_ms_per_node `Warm rounds) ]

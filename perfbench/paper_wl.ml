(* paper-l6: the paper's own measurement.  One user runs whole §6
   rounds (all 20 operations, 50 cold then 50 warm calls each) on a
   clustered level-6 diskdb that is larger than the buffer pool, with
   the Diskdb default flush policy (no fsync). *)

open Db
module L = Layers
module Timed_vfs = Perfbench.Timed_vfs
module Timed_backend = Perfbench.Timed_backend

let level = 6
let setups = 3

(* Timed seconds of one round: its cold and warm windows. *)
let window_s rs =
  List.fold_left
    (fun a (r : Rounds.op_run) -> a +. r.cold.window_ms +. r.warm.window_ms)
    0.0 rs
  /. 1000.0

let run ~seed ~seconds ~trace =
  let s = setup ~name:"paper-l6" ~durable:false ~level ~seed ~times:setups in
  let db = s.db and layout = s.layout in
  let module R = Rounds.Make (T) in
  let wal0 = Atomic.get Timed_vfs.wal_bytes
  and commits0 = Atomic.get Timed_backend.commits
  and syncs0 = Hyper_storage.Engine.wal_sync_count (D.engine db) in
  let acc = L.io () in
  (* Untraced: rounds until the time is up.  Traced: a fixed number of
     (untraced, traced) round pairs, so the traced rounds are the same
     work on every run of a seed and their counts repeat exactly.  Each
     untraced round keeps its call latencies. *)
  let t_end = Span.now () + int_of_float (seconds *. 1e9) in
  let pairs = max 2 (int_of_float seconds / 2) in
  let rec go r executed =
    let more = if trace then r < 2 * pairs else r < 3 || Span.now () < t_end in
    if not more then List.rev executed
    else if trace && r mod 2 = 1 then
      let rs = L.traced acc db (fun () -> R.round ~seed ~round:r db layout) in
      go (r + 1) ((r, rs, None) :: executed)
    else
      let lat = Pctl.Buf.create () in
      let rs = R.round ~on_call:(Pctl.Buf.add lat) ~seed ~round:r db layout in
      go (r + 1) ((r, rs, Some (Pctl.Buf.to_array lat)) :: executed)
  in
  let executed = go 0 [] in
  (* Every round's per-operation ms/node, for looking at the spread. *)
  let oc = open_out (Filename.concat run_dir "paper-l6.rounds.tsv") in
  output_string oc "round\ttraced\top\tcold_ms_per_node\twarm_ms_per_node\n";
  List.iter
    (fun (r, rs, l) ->
      List.iter
        (fun (o : Rounds.op_run) ->
          Printf.fprintf oc "%d\t%b\t%s\t%.17g\t%.17g\n" r (l = None) o.op
            (Rounds.ms_per_node o.cold) (Rounds.ms_per_node o.warm))
        rs)
    executed;
  close_out oc;
  let plain = List.filter_map (fun (_, rs, l) -> Option.map (fun l -> (rs, l)) l) executed in
  let traced = List.filter_map (fun (_, rs, l) -> if l = None then Some rs else None) executed in
  let lat = Array.concat (List.map snd plain) in
  let commits = Atomic.get Timed_backend.commits - commits0 in
  let wal_bytes = Atomic.get Timed_vfs.wal_bytes - wal0 in
  let fsyncs = Hyper_storage.Engine.wal_sync_count (D.engine db) - syncs0 in
  let peak = Report.peak_rss_mb () in
  (* Checks, outside the timed window: every call's node count against a
     memdb replay of the same rounds, then full verification. *)
  let module M = Hyper_memdb.Memdb in
  let module RM = Rounds.Make (M) in
  let module GM = Hyper_core.Generator.Make (M) in
  let mem = M.create () in
  let mlayout, _ = GM.generate mem ~doc:1 ~leaf_level:level ~seed in
  Report.check "paper-l6: layout matches memdb" (mlayout = layout) "";
  let mismatches =
    List.concat_map
      (fun (r, rs, _) ->
        List.concat
          (List.map2
             (fun (d : Rounds.op_run) (m : Rounds.op_run) ->
               if d.cold.counts = m.cold.counts && d.warm.counts = m.warm.counts then []
               else [ Printf.sprintf "round %d op %s" r d.op ])
             rs (RM.round ~seed ~round:r mem mlayout)))
      executed
  in
  Report.check "paper-l6: node counts match a memdb replay" (mismatches = [])
    (String.concat ", " mismatches);
  verify "paper-l6" db layout;
  close s;
  let calls = Array.length lat in
  let rounds = List.map fst plain in
  let values =
    if not trace then
      [ L.v ~n:setups "setup_s" (Pctl.median s.setup_s);
        L.v ~n:(List.length rounds) "cold_ms_per_node" (Rounds.geo_ms_per_node `Cold rounds);
        L.v ~n:(List.length rounds) "warm_ms_per_node" (Rounds.geo_ms_per_node `Warm rounds);
        L.v ~n:commits "wal_bytes_per_commit" (L.per (float_of_int commits) (float_of_int wal_bytes));
        L.v "db_bytes_per_node" s.db_bytes_per_node; L.v "peak_rss_mb" peak ]
      @ L.windowed ~best:true
          (List.map (fun (rs, l) -> (float_of_int (Array.length l) /. window_s rs, l)) plain)
    else
      let k = float_of_int pairs in
      List.concat
        [ List.concat_map
            (fun c ->
              let ops = Rounds.class_ops c in
              [ L.v ~n:(List.length rounds) (Printf.sprintf "ops.%s.cold_ms_per_node" c)
                  (Rounds.geo_ms_per_node ~ops `Cold rounds);
                L.v ~n:(List.length rounds) (Printf.sprintf "ops.%s.warm_ms_per_node" c)
                  (Rounds.geo_ms_per_node ~ops `Warm rounds) ])
            Rounds.classes;
          L.from_spans ~per:k; L.from_io ~per:k acc;
          [ L.v "wal.fsyncs_per_commit" (L.per (float_of_int commits) (float_of_int fsyncs));
            L.v ~n:setups "generator.ms_per_node" s.gen_ms_per_node;
            L.v "trace.overhead_ratio"
              (Rounds.geo_ms_per_node `Warm traced /. Rounds.geo_ms_per_node `Warm rounds) ] ]
  in
  Printf.printf "paper-l6: %d rounds (%d traced), %d timed calls, %d commits\n%!"
    (List.length executed) (List.length traced) calls commits;
  if calls > 0 then L.summary_line "paper-l6 call latency" lat;
  { L.settings =
      [ ("level", Report.Int level); ("pool_pages", Report.Int pool_pages);
        ("users", Report.Int 1); ("setups", Report.Int setups);
        ("traced_round_pairs", Report.Int (if trace then pairs else 0)) ]
      @ flush_settings ~durable:false;
    attempted =
      List.fold_left
        (fun a (_, rs, _) ->
          List.fold_left
            (fun a (r : Rounds.op_run) ->
              a + Array.length r.cold.counts + Array.length r.warm.counts)
            a rs)
        0 executed;
    failed = 0; values }

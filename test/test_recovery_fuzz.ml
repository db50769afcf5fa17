(* Crash-recovery fuzzing over the fault-injecting VFS.

   A workload of K committed transactions (each inserting a batch of 100
   nodes) runs against the disk backend with a tiny buffer pool (so
   dirty-page steals and WAL activity are constant) — entirely on top of
   [Vfs.Faulty], so no real files are involved.  A dry run counts the
   total number of mutating VFS operations W the workload issues; the
   fuzzer then replays the workload with an in-process crash injected at
   every stratified point k in [1..W]: the k-th write raises [Vfs.Crash]
   mid-operation (optionally tearing the in-flight write), we simulate
   the power failure, and reopen the store over the surviving bytes.

   Required property: recovery always lands on a *committed prefix* —
   the recovered database contains exactly the batches of the first j
   transactions for some j, with the uniqueId index, the object table and
   the heap mutually consistent.  No partial batches, no phantom nodes,
   no broken lookups.  And because the workload commits with
   [durable_sync] against an honest fsync, every acknowledged commit must
   survive: j >= acked. *)

open Hyper_core
module B = Hyper_diskdb.Diskdb
module V = Hyper_storage.Vfs
module F = Hyper_storage.Vfs.Faulty

let check = Alcotest.check

let temp_path =
  let counter = ref 0 in
  fun name ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hyper_fuzz_%d_%s_%d" (Unix.getpid ()) name !counter)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".sum"; path ^ ".wal" ]

let batch_size = 100

let insert_batch b ~batch =
  B.begin_txn b;
  for i = 0 to batch_size - 1 do
    let oid = (batch * batch_size) + i + 1 in
    B.create_node b
      { Schema.oid; doc = 1; unique_id = oid; ten = (batch mod 10) + 1;
        hundred = (oid mod 100) + 1; million = oid;
        payload =
          (if i mod 10 = 0 then Schema.P_text (String.make 500 'f')
           else Schema.P_internal) }
  done;
  B.commit b

(* Check the committed-prefix property on a recovered store. *)
let assert_committed_prefix b ~max_batches =
  let count = B.node_count b ~doc:1 in
  if count mod batch_size <> 0 then
    Alcotest.failf "partial batch visible: %d nodes" count;
  let batches = count / batch_size in
  if batches > max_batches then
    Alcotest.failf "phantom batches: %d > %d" batches max_batches;
  (* Every node of the prefix is fully reachable... *)
  for oid = 1 to count do
    (match B.lookup_unique b ~doc:1 oid with
    | Some o when o = oid -> ()
    | Some o -> Alcotest.failf "uid %d resolves to %d" oid o
    | None -> Alcotest.failf "uid %d lost from index" oid);
    let h = B.hundred b oid in
    if h <> (oid mod 100) + 1 then
      Alcotest.failf "oid %d: hundred corrupted (%d)" oid h
  done;
  (* ... and nothing beyond it exists. *)
  for oid = count + 1 to max_batches * batch_size do
    match B.lookup_unique b ~doc:1 oid with
    | None -> ()
    | Some _ -> Alcotest.failf "uid %d should not exist" oid
  done;
  (* The attribute index agrees with a scan. *)
  let indexed = List.length (B.range_hundred b ~doc:1 ~lo:1 ~hi:100) in
  check Alcotest.int "index covers exactly the prefix" count indexed;
  batches

let faulty_config env ~path ~pool_pages =
  { (B.default_config ~path) with
    B.pool_pages; durable_sync = true; vfs = Some (F.vfs env) }

(* Run the workload until it finishes or the VFS kills the power.
   Returns the number of batches whose commit was acknowledged.  The
   final scenario bit leaves a transaction in flight at close time: its
   nodes (oids 900_000+) must never surface after recovery. *)
let run_workload env ~path ~batches ~in_flight =
  let acked = ref 0 in
  (try
     let b = B.open_db (faulty_config env ~path ~pool_pages:8) in
     for batch = 0 to batches - 1 do
       insert_batch b ~batch;
       incr acked
     done;
     if in_flight then begin
       B.begin_txn b;
       for i = 0 to 49 do
         let oid = 900_000 + i in
         B.create_node b
           { Schema.oid; doc = 1; unique_id = oid; ten = 1; hundred = 1;
             million = 1; payload = Schema.P_internal }
       done;
       (* Neither committed nor aborted: the crash takes it down.  Force
          some steal activity so steal deltas reach the WAL. *)
       B.abort b
     end;
     B.close b
   with V.Crash -> ());
  !acked

(* One crash point: run the workload over a fresh faulty environment
   that powers off at the [k]-th mutating VFS op, then recover and check
   invariants. *)
let run_crash_point ~seed ~k ~power_loss ~lying_fsync ~in_flight =
  let total_batches = 5 in
  let path = temp_path "vfs" in
  let env =
    F.create
      { F.quiet with
        F.seed; crash_after_writes = k; torn_writes = true; power_loss;
        lying_fsync }
  in
  let acked = run_workload env ~path ~batches:total_batches ~in_flight in
  (* The machine reboots: surviving bytes only, faults disarmed. *)
  F.power_fail env;
  F.set_plan env F.quiet;
  let b2 = B.open_db (faulty_config env ~path ~pool_pages:64) in
  let recovered = assert_committed_prefix b2 ~max_batches:total_batches in
  (* durable_sync over an honest fsync: acknowledged commits survive.
     Power loss combined with a lying fsync voids the guarantee. *)
  if not (power_loss && lying_fsync) && recovered < acked then
    Alcotest.failf
      "durability violated (k=%d power=%b lying=%b): acked %d, recovered %d"
      k power_loss lying_fsync acked recovered;
  (* An in-flight transaction must never surface. *)
  (match B.lookup_unique b2 ~doc:1 900_000 with
  | None -> ()
  | Some _ -> Alcotest.fail "in-flight transaction surfaced");
  (* The store stays writable after recovery. *)
  insert_batch b2 ~batch:recovered;
  check Alcotest.int "writable after recovery"
    ((recovered + 1) * batch_size)
    (B.node_count b2 ~doc:1);
  B.close b2

let test_crash_points () =
  (* Dry run: learn how many mutating ops the whole workload issues. *)
  let path = temp_path "dry" in
  let env = F.create F.quiet in
  let acked = run_workload env ~path ~batches:5 ~in_flight:true in
  check Alcotest.int "dry run commits everything" 5 acked;
  let w = F.write_count env in
  if w < 20 then Alcotest.failf "workload too quiet: %d writes" w;
  (* Stratified crash points across the whole write sequence, with the
     fault mode varied per point. *)
  let points = 120 in
  for i = 0 to points - 1 do
    let k = 1 + (i * (w - 1) / (points - 1)) in
    run_crash_point
      ~seed:(Int64.of_int (0xF00D + i))
      ~k ~power_loss:(i mod 2 = 0) ~lying_fsync:(i mod 4 < 2)
      ~in_flight:(i mod 8 >= 4)
  done

let test_wal_fully_lost () =
  (* Losing the whole WAL after a clean flush must still leave the
     committed data intact (commit forces pages to the data file).
     This one runs on real files: it exercises [Vfs.real] end to end. *)
  let path = temp_path "nowal" in
  cleanup path;
  let b = B.open_db { (B.default_config ~path) with B.pool_pages = 8 } in
  insert_batch b ~batch:0;
  insert_batch b ~batch:1;
  B.close b;
  Sys.remove (path ^ ".wal");
  let b2 = B.open_db (B.default_config ~path) in
  check Alcotest.int "data survives without wal" (2 * batch_size)
    (B.node_count b2 ~doc:1);
  ignore (assert_committed_prefix b2 ~max_batches:2);
  B.close b2;
  cleanup path

let () =
  Alcotest.run "hyper_recovery_fuzz"
    [
      ( "fuzz",
        [
          Alcotest.test_case "in-process crash points" `Quick
            test_crash_points;
          Alcotest.test_case "wal lost entirely" `Quick test_wal_fully_lost;
        ] );
    ]

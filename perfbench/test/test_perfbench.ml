(* The benchmark's own tests: its timing wrappers are transparent, its
   single-user counts repeat exactly, its spans nest per thread, and
   its percentile helper reports what the benchmark claims. *)

open Hyper_core
module D = Hyper_diskdb.Diskdb
module Vfs = Hyper_storage.Vfs
module Span = Perfbench.Span
module Pctl = Perfbench.Pctl
module Rounds = Perfbench.Rounds
module Timed_vfs = Perfbench.Timed_vfs
module T = Perfbench.Timed_backend.Make (D)

let check = Alcotest.check

let remove_store path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".wal"; path ^ ".sum" ]

(* A small clustered diskdb whose pool is far smaller than the data, so
   a round evicts and re-reads pages. *)
let with_db ?vfs name f =
  let path = Printf.sprintf "%s-%d.db" name (Unix.getpid ()) in
  remove_store path;
  let db = D.open_db { (D.default_config ~path) with D.pool_pages = 16; vfs } in
  let module G = Generator.Make (D) in
  let layout, _ = G.generate db ~doc:1 ~leaf_level:4 ~seed:7L in
  Fun.protect
    ~finally:(fun () ->
      D.close db;
      remove_store path)
    (fun () -> f db layout)

let io_fields (c : D.io_counters) =
  [ ("pager_reads", c.D.pager_reads); ("pager_writes", c.D.pager_writes);
    ("pool_hits", c.D.pool_hits); ("pool_misses", c.D.pool_misses);
    ("pool_evictions", c.D.pool_evictions); ("wal_bytes", c.D.wal_bytes) ]

let requests layout =
  let rng = Hyper_util.Prng.create 3L in
  List.concat
    (List.init 40 (fun i ->
         let oid = Layout.random_node layout rng in
         [ Trace.Attrs oid; Trace.Children oid;
           Trace.Lookup_unique { doc = 1; uid = Layout.uid_of_oid layout oid };
           Trace.Begin; Trace.Set_hundred { oid; value = 1 + (i mod 100) };
           (* an op that raises, to compare exceptions too *)
           Trace.Remove_child { parent = oid; child = oid }; Trace.Commit ]))

let run_trace (type a) (module B : Backend.S with type t = a) (db : a) layout =
  let inst = Backend.Instance ((module B), db) in
  let module R = Rounds.Make (B) in
  let counts =
    List.map
      (fun (r : Rounds.op_run) -> (r.op, r.cold.counts, r.warm.counts))
      (R.round ~seed:5L ~round:0 db layout)
  in
  (counts, List.map (Trace.apply ~layout inst) (requests layout))

let test_transparent () =
  let plain =
    with_db "plain" (fun db layout ->
        let r = run_trace (module D) db layout in
        (r, io_fields (D.io_counters db)))
  in
  let wal0 = Atomic.get Timed_vfs.wal_bytes in
  let timed =
    with_db ~vfs:(Timed_vfs.wrap Vfs.real) "timed" (fun db layout ->
        let io0 = (D.io_counters db).D.wal_bytes in
        Span.enabled := true;
        let r =
          Fun.protect
            ~finally:(fun () -> Span.enabled := false)
            (fun () -> run_trace (module T) db layout)
        in
        check Alcotest.int "VFS-counted WAL bytes = io_counters.wal_bytes growth"
          ((D.io_counters db).D.wal_bytes - io0)
          (Atomic.get Timed_vfs.wal_bytes - wal0
          - (* generation's log bytes, written before [io0] *) io0);
        (r, io_fields (D.io_counters db)))
  in
  let (counts_p, outcomes_p), io_p = plain and (counts_t, outcomes_t), io_t = timed in
  check Alcotest.bool "same node counts" true (counts_p = counts_t);
  check Alcotest.int "same number of outcomes" (List.length outcomes_p) (List.length outcomes_t);
  check Alcotest.bool "same outcomes" true (List.for_all2 Trace.outcome_equal outcomes_p outcomes_t);
  check Alcotest.bool "some outcome raised" true
    (List.exists (function Trace.Raised _ -> true | Trace.Done _ -> false) outcomes_t);
  check Alcotest.(list (pair string int)) "same io_counters" io_p io_t;
  check Alcotest.bool "spans were recorded" true
    ((Span.totals Perfbench.Timed_backend.k_read).Span.calls > 0)

(* pool.misses, pager.reads and vfs.pread.calls of one traced round. *)
let single_user_counts () =
  with_db ~vfs:(Timed_vfs.wrap Vfs.real) "repeat" (fun db layout ->
      let module R = Rounds.Make (T) in
      let c0 = D.io_counters db and reads0, _ = Timed_vfs.snapshot Timed_vfs.preads in
      Span.enabled := true;
      Fun.protect
        ~finally:(fun () -> Span.enabled := false)
        (fun () -> ignore (R.round ~seed:9L ~round:1 db layout : Rounds.op_run list));
      let c1 = D.io_counters db and reads1, _ = Timed_vfs.snapshot Timed_vfs.preads in
      (c1.D.pool_misses - c0.D.pool_misses, c1.D.pager_reads - c0.D.pager_reads, reads1 - reads0))

let test_counts_repeat () =
  let ((misses, reads, preads) as a) = single_user_counts () in
  let b = single_user_counts () in
  check Alcotest.bool "the round missed the pool" true (misses > 0 && reads > 0 && preads > 0);
  check Alcotest.(triple int int int) "counts repeat exactly" a b

(* N threads nest spans concurrently; each must see its own tree. *)
let test_spans_per_thread () =
  let outer = Span.kind "test.outer" and inner = Span.kind "test.inner" in
  let threads = 8 and reps = 200 in
  Span.enabled := true;
  let work () =
    for _ = 1 to reps do
      Span.with_ outer (fun () ->
          Span.with_ inner Thread.yield;
          Span.with_ inner Thread.yield)
    done
  in
  List.iter Thread.join (List.init threads (fun _ -> Thread.create work ()));
  Span.enabled := false;
  let o = Span.totals outer and i = Span.totals inner in
  check Alcotest.int "every outer span recorded" (threads * reps) o.Span.calls;
  check Alcotest.int "every inner span recorded" (2 * threads * reps) i.Span.calls;
  check Alcotest.int "outer self = outer total - inner total" (o.Span.total_ns - i.Span.total_ns)
    o.Span.self_ns;
  check Alcotest.int "inner spans are leaves" i.Span.total_ns i.Span.self_ns;
  check Alcotest.int "one tree per thread" threads (List.length (Span.per_thread outer))

let test_percentiles () =
  let upto n = Array.init n (fun i -> float_of_int (i + 1)) in
  let s = Pctl.summary (upto 1000) in
  check Alcotest.int "count" 1000 s.Pctl.n;
  check (Alcotest.float 1e-9) "median" 500.5 s.Pctl.median;
  (match s.Pctl.tail with
  | Some (p, x) ->
    check (Alcotest.float 1e-9) "p99 is the highest with 10 beyond" 99.0 p;
    check (Alcotest.float 1e-9) "p99 value" 990.01 x
  | None -> Alcotest.fail "no tail");
  check
    Alcotest.(option (float 1e-9))
    "10000 samples reach p99.9" (Some 99.9)
    (Option.map fst (Pctl.summary (upto 10_000)).Pctl.tail);
  check
    Alcotest.(option (float 1e-9))
    "50 samples reach only p50" (Some 50.0)
    (Option.map fst (Pctl.summary (upto 50)).Pctl.tail);
  check Alcotest.bool "5 samples have no tail" true ((Pctl.summary (upto 5)).Pctl.tail = None);
  check Alcotest.bool "p99 of 500 samples is refused" true
    (match Pctl.at (upto 500) 99.0 with _ -> false | exception Failure _ -> true);
  check (Alcotest.float 1e-9) "order does not matter" 500.5
    (Pctl.median (Array.of_list (List.rev (Array.to_list (upto 1000)))))

let () =
  Alcotest.run "perfbench"
    [ ( "wrappers",
        [ Alcotest.test_case "timing backend and VFS are transparent" `Quick test_transparent;
          Alcotest.test_case "single-user counts repeat exactly" `Quick test_counts_repeat ] );
      ( "spans",
        [ Alcotest.test_case "concurrent threads nest correctly" `Quick test_spans_per_thread ] );
      ("pctl", [ Alcotest.test_case "median, tail and count" `Quick test_percentiles ]) ]

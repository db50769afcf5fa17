(* The metric catalogue, and the per-layer numbers read from the spans
   and counters of a traced window.

   Untraced runs report every end-to-end metric; traced runs report
   every per-layer metric.  A layer a workload does not reach reports 0
   (its prediction is "flat"). *)

module D = Hyper_diskdb.Diskdb
module Span = Perfbench.Span
module Timed_vfs = Perfbench.Timed_vfs
module Timed_backend = Perfbench.Timed_backend
module Report = Perfbench.Report

let end_to_end =
  [ ("setup_s", "s"); ("cold_ms_per_node", "ms"); ("warm_ms_per_node", "ms");
    ("throughput_per_s", "1/s"); ("p50_ms", "ms"); ("p99_ms", "ms");
    ("wal_bytes_per_commit", "bytes"); ("db_bytes_per_node", "bytes");
    ("peak_rss_mb", "MB") ]

let per_layer =
  List.concat
    [ List.concat_map
        (fun c ->
          [ (Printf.sprintf "ops.%s.cold_ms_per_node" c, "ms");
            (Printf.sprintf "ops.%s.warm_ms_per_node" c, "ms") ])
        Perfbench.Rounds.classes;
      List.concat_map
        (fun c ->
          [ (Printf.sprintf "diskdb.%s.calls" c, "count");
            (Printf.sprintf "diskdb.%s.self_ms" c, "ms") ])
        [ "read"; "index"; "write" ];
      [ ("diskdb.commit.self_ms", "ms"); ("diskdb.clear_caches_ms", "ms");
        ("pool.hits", "count"); ("pool.misses", "count");
        ("pool.evictions", "count"); ("pool.hit_ratio", "ratio");
        ("pager.reads", "count"); ("pager.writes", "count") ];
      List.concat_map
        (fun c ->
          [ (Printf.sprintf "vfs.%s.calls" c, "count");
            (Printf.sprintf "vfs.%s.bytes" c, "bytes");
            (Printf.sprintf "vfs.%s.self_ms" c, "ms") ])
        [ "pread"; "pwrite"; "sync" ];
      [ ("engine.commit_ticket_ms", "ms"); ("engine.await_durable_ms", "ms");
        ("group_commit.mean_size", "count"); ("wal.fsyncs_per_commit", "count");
        ("multiuser.txn_ms", "ms"); ("multiuser.cc_wait_ms", "ms");
        ("multiuser.aborts", "count"); ("multiuser.retried_ok", "count");
        ("client.rtt_ms", "ms"); ("server.backend_ms", "ms");
        ("server.other_ms", "ms"); ("generator.ms_per_node", "ms");
        ("trace.overhead_ratio", "ratio"); ("fail_ratio", "ratio") ] ]

(* One measured value: name, value, sample count. *)
type value = string * float * int

let v ?(n = 1) name x : value = (name, x, n)

(* Order [values] by [catalogue]; a missing metric is an error when
   [required], else 0.  An unknown name is always an error. *)
let complete ~required catalogue (values : value list) =
  List.iter
    (fun (name, _, _) ->
      if not (List.mem_assoc name catalogue) then
        invalid_arg ("Layers: metric not in the catalogue: " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) values with
      | Some (_, x, samples) -> Report.metric ~samples name unit_ x
      | None when required -> invalid_arg ("Layers: metric not measured: " ^ name)
      | None -> Report.metric ~samples:0 name unit_ 0.0)
    catalogue

let ms ns = float_of_int ns /. 1e6
let per d x = if d <= 0.0 then 0.0 else x /. d

(* Backend classes and VFS calls from the spans, divided by [per]. *)
let from_spans ~per:d =
  let t k = Span.totals k in
  let cls name k =
    let a = t k in
    [ v (Printf.sprintf "diskdb.%s.calls" name) (per d (float_of_int a.Span.calls));
      v (Printf.sprintf "diskdb.%s.self_ms" name) (per d (ms a.Span.self_ns)) ]
  in
  let vfs name k c =
    let calls, bytes = Timed_vfs.snapshot c in
    [ v (Printf.sprintf "vfs.%s.calls" name) (per d (float_of_int calls));
      v (Printf.sprintf "vfs.%s.bytes" name) (per d (float_of_int bytes));
      v (Printf.sprintf "vfs.%s.self_ms" name) (per d (ms (t k).Span.self_ns)) ]
  in
  List.concat
    [ cls "read" Timed_backend.k_read; cls "index" Timed_backend.k_index;
      cls "write" Timed_backend.k_write;
      [ v "diskdb.commit.self_ms" (per d (ms (t Timed_backend.k_commit).Span.self_ns));
        v "diskdb.clear_caches_ms" (per d (ms (t Timed_backend.k_clear).Span.total_ns)) ];
      vfs "pread" Timed_vfs.k_pread Timed_vfs.preads;
      vfs "pwrite" Timed_vfs.k_pwrite Timed_vfs.pwrites;
      vfs "sync" Timed_vfs.k_sync Timed_vfs.syncs ]

(* Inclusive time spent inside the backend, all threads. *)
let backend_ns () =
  List.fold_left (fun a k -> a + (Span.totals k).Span.total_ns) 0 Timed_backend.kinds

(* Buffer pool and pager counters accumulated over traced windows. *)
type io = { mutable hits : int; mutable misses : int; mutable evictions : int;
            mutable reads : int; mutable writes : int }

let io () = { hits = 0; misses = 0; evictions = 0; reads = 0; writes = 0 }

(* Run [f] with tracing on, adding the pool and pager counters it moved
   to [acc]. *)
let traced acc db f =
  let c0 = D.io_counters db in
  Span.enabled := true;
  let r = Fun.protect ~finally:(fun () -> Span.enabled := false) f in
  let c1 = D.io_counters db in
  acc.hits <- acc.hits + c1.D.pool_hits - c0.D.pool_hits;
  acc.misses <- acc.misses + c1.D.pool_misses - c0.D.pool_misses;
  acc.evictions <- acc.evictions + c1.D.pool_evictions - c0.D.pool_evictions;
  acc.reads <- acc.reads + c1.D.pager_reads - c0.D.pager_reads;
  acc.writes <- acc.writes + c1.D.pager_writes - c0.D.pager_writes;
  r

let from_io ~per:d acc =
  let f = float_of_int in
  [ v "pool.hits" (per d (f acc.hits)); v "pool.misses" (per d (f acc.misses));
    v "pool.evictions" (per d (f acc.evictions));
    v "pool.hit_ratio" (per (f (acc.hits + acc.misses)) (f acc.hits));
    v "pager.reads" (per d (f acc.reads)); v "pager.writes" (per d (f acc.writes)) ]

(* Throughput, p50 and p99 of a run cut into windows ((throughput,
   latency samples) each, see [Pctl.windows]), reported with the total
   sample count.  By default the median over the windows of each, so a
   burst of interference on the shared machine moves a few windows, not
   the result.  With [best], the best window of each (highest
   throughput, lowest latencies): for windows that repeat the same work,
   where interference only adds time (see [Rounds.geo_ms_per_node]). *)
let windowed ?(best = false) windows =
  if windows = [] then failwith "too few samples for one measurement window";
  let n = List.fold_left (fun a (_, l) -> a + Array.length l) 0 windows in
  let pick ~higher f =
    let xs = Array.of_list (List.map f windows) in
    if not best then Perfbench.Pctl.median xs
    else Array.fold_left (if higher then Float.max else Float.min) xs.(0) xs
  in
  [ v ~n "throughput_per_s" (pick ~higher:true fst);
    v ~n "p50_ms" (pick ~higher:false (fun (_, l) -> Perfbench.Pctl.median l));
    v ~n "p99_ms" (pick ~higher:false (fun (_, l) -> Perfbench.Pctl.at l 99.0)) ]

let summary_line label samples =
  let s = Perfbench.Pctl.summary samples in
  Printf.printf "%s: n=%d median=%.4f ms%s\n%!" label s.Perfbench.Pctl.n
    s.Perfbench.Pctl.median
    (match s.Perfbench.Pctl.tail with
    | Some (p, x) -> Printf.sprintf " p%g=%.4f ms" p x
    | None -> "")

(* The outcome of one workload run. *)
type outcome = {
  settings : (string * Report.json) list;
  attempted : int;
  failed : int;
  values : value list;
}

(* serve-l5: the socket server under a closed loop.  [nproc] client
   connections with zero think time send hyperload's request mix (80%
   single reads: Lookup_unique, Attrs or Children; 20% a Begin,
   Set_hundred, Commit transaction) to Net.Server on a level-5 diskdb
   that fits the pool, with the served default flush policy
   (durable_sync = false: commits are acked without fsync).

   The server runs in its own process ([child]), so client threads do
   not compete with it for the OCaml runtime lock.  The two talk over
   the child's stdin and stdout, one line per message:
     child:  ready <node count>
     parent: trace            (traced runs; the child answers "ok")
     parent: stop <requests>  (requests the traced window sent)
     child:  value <name> <x> <samples> | check <ok> <name> | end *)

open Hyper_core
open Db
module L = Layers
module Net = Hyper_net
module Prng = Hyper_util.Prng
module Sync = Hyper_util.Sync
module Timed_vfs = Perfbench.Timed_vfs
module Timed_backend = Perfbench.Timed_backend

let level = 5
let setups = 5
let write_fraction = 0.2

(* Requests per measurement window of throughput and latency. *)
let window_size = 2000
let k_request = Span.kind "client.request"

let say fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt

(* --- the server process --- *)

let child = function
  | [ seed; trace; sock ] ->
    let seed = Int64.of_string seed and trace = bool_of_string trace in
    let s = setup ~name:"serve-l5" ~durable:false ~level ~seed ~times:setups in
    let db = s.db and layout = s.layout in
    let before = if trace then [] else probe ~seed ~from:0 ~seconds:probe_seconds db layout in
    let srv =
      Net.Server.start ~layout
        (Backend.Instance ((module T : Backend.S with type t = D.t), db))
        (Net.Netaddr.Unix_sock sock)
    in
    let engine = D.engine db in
    let wal0 = Atomic.get Timed_vfs.wal_bytes
    and commits0 = Atomic.get Timed_backend.commits
    and syncs0 = Hyper_storage.Engine.wal_sync_count engine in
    say "ready %d" layout.Layout.node_count;
    let rec stop () =
      match String.split_on_char ' ' (input_line stdin) with
      | [ "stop"; n ] -> float_of_string n
      | _ -> stop ()
    in
    let io = L.io () in
    let traced_requests =
      if trace then begin
        ignore (input_line stdin : string);
        L.traced io db (fun () ->
            say "ok";
            stop ())
      end
      else stop ()
    in
    Net.Server.drain srv;
    let commits = Atomic.get Timed_backend.commits - commits0 in
    let wal_bytes = Atomic.get Timed_vfs.wal_bytes - wal0 in
    let fsyncs = Hyper_storage.Engine.wal_sync_count engine - syncs0 in
    let peak = Report.peak_rss_mb () in
    let value (name, x, n) = say "value %s %.17g %d" name x n in
    if trace then begin
      Span.dump (Filename.concat run_dir "serve-l5.server-spans.tsv");
      let n = traced_requests in
      let threads = Hashtbl.create 8 in
      List.iter
        (fun k ->
          List.iter
            (fun (tid, a) ->
              let ns, calls = Option.value (Hashtbl.find_opt threads tid) ~default:(0, 0) in
              Hashtbl.replace threads tid (ns + a.Span.total_ns, calls + a.Span.calls))
            (Span.per_thread k))
        Timed_backend.kinds;
      List.iter
        (fun (tid, (ns, calls)) ->
          say "info server session thread %d: %.3f ms in the backend over %d calls" tid
            (L.ms ns) calls)
        (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) threads []));
      List.iter value
        (L.from_spans ~per:n @ L.from_io ~per:n io
        @ [ L.v "server.backend_ms" (L.per n (L.ms (L.backend_ns ())));
            L.v "wal.fsyncs_per_commit" (L.per (float_of_int commits) (float_of_int fsyncs));
            L.v ~n:setups "generator.ms_per_node" s.gen_ms_per_node ])
    end
    else begin
      let after = probe ~seed ~from:(List.length before) ~seconds:probe_seconds db layout in
      List.iter value
        (probe_values (before @ after)
        @ [ L.v ~n:setups "setup_s" (Pctl.median s.setup_s);
          L.v ~n:commits "wal_bytes_per_commit" (L.per (float_of_int commits) (float_of_int wal_bytes));
          L.v "db_bytes_per_node" s.db_bytes_per_node; L.v "peak_rss_mb" peak ])
    end;
    let module V = Verify.Make (D) in
    let failed = Verify.failures (V.run db layout) in
    say "check %b serve-l5: Verify all ok (server process)" (failed = []);
    close s;
    say "end";
    exit 0
  | _ -> invalid_arg "serve-child SEED TRACE SOCK"

(* --- the load generator --- *)

(* hyperload's mix, with written values drawn from the generated
   range of [hundred] (1..100) so the database still verifies. *)
let next_request rng layout =
  if Prng.float rng 1.0 < write_fraction then
    [ Trace.Begin;
      Trace.Set_hundred
        { oid = Layout.random_node layout rng; value = Prng.int_in rng 1 100 };
      Trace.Commit ]
  else
    match Prng.int rng 3 with
    | 0 -> [ Trace.Lookup_unique { doc = layout.Layout.doc; uid = Layout.random_uid layout rng } ]
    | 1 -> [ Trace.Attrs (Layout.random_node layout rng) ]
    | _ -> [ Trace.Children (Layout.random_internal layout rng) ]

(* Whether a reply is the right one, from the layout arithmetic. *)
let reply_ok layout ops outcomes =
  match (ops, outcomes) with
  | [ Trace.Lookup_unique { uid; _ } ], [ Trace.Done (Trace.V_int_opt (Some oid)) ] ->
    Oid.equal oid (Layout.oid_of_uid layout uid)
  | [ Trace.Attrs oid ], [ Trace.Done (Trace.V_ints (_ :: uid :: _)) ] ->
    uid = Layout.uid_of_oid layout oid
  | [ Trace.Children oid ], [ Trace.Done (Trace.V_oids l) ] ->
    List.equal Oid.equal l (Array.to_list (Layout.children_of layout oid))
  | [ _; _; _ ], [ Trace.Done Trace.V_unit; Trace.Done Trace.V_unit; Trace.Done Trace.V_unit ] ->
    true
  | _ -> false

type phase = {
  lat : Pctl.Buf.t;
  done_at : Pctl.Buf.t;  (* completion time of each request, s *)
  mutable requests : int;
  mutable errors : int;  (* faults, Raised outcomes, lost connections *)
  mutable wrong : int;  (* replies that differ from the layout *)
}

(* One closed-loop window of [seconds]: [clients] connections, each
   sending its next request as soon as the reply lands. *)
let window ~addr ~layout ~clients ~seed ~phase:k ~seconds =
  let p = { lat = Pctl.Buf.create (); done_at = Pctl.Buf.create (); requests = 0; errors = 0; wrong = 0 } in
  let lock = Sync.Mutex.create "perfbench.serve.samples" in
  let until = Span.now () + int_of_float (seconds *. 1e9) in
  let client i =
    let rng = Prng.create (Int64.add seed (Int64.of_int ((k * 1_000_003) + (i * 7919)))) in
    let conn = Net.Client.connect ~client_name:(Printf.sprintf "perfbench-%d" i) addr in
    let rec loop rid =
      if Span.now () < until then begin
        let ops = next_request rng layout in
        Span.set_request rid;
        let c0 = Span.now () in
        let result =
          match Span.with_ k_request (fun () -> Net.Client.call conn ops) with
          | outcomes -> Ok outcomes
          | exception Net.Client.Server_fault _ -> Error `Fault
          | exception Net.Client.Connection_lost _ -> Error `Lost
        in
        let c1 = Span.now () in
        let ms = float_of_int (c1 - c0) /. 1e6 in
        let err, wrong, go_on =
          match result with
          | Ok outcomes ->
            let raised = List.exists (function Trace.Raised _ -> true | Trace.Done _ -> false) outcomes in
            (raised, (not raised) && not (reply_ok layout ops outcomes), true)
          | Error `Fault -> (true, false, true)
          | Error `Lost -> (true, false, false)
        in
        Sync.Mutex.with_lock lock (fun () ->
            Pctl.Buf.add p.lat ms;
            Pctl.Buf.add p.done_at (float_of_int c1 /. 1e9);
            p.requests <- p.requests + 1;
            if err then p.errors <- p.errors + 1;
            if wrong then p.wrong <- p.wrong + 1);
        if go_on then loop (rid + 1)
      end
    in
    loop 0;
    Net.Client.close conn
  in
  List.iter Thread.join (List.init clients (fun i -> Thread.create client i));
  p

(* Where the two processes run.  Left to the scheduler, client and
   server threads land on shared or separate CPUs differently from run
   to run, and the median request latency jumps between two levels
   (about 0.04 and 0.06 ms on a 2-vCPU VM) with whole runs in one or the
   other.  So the server gets the last CPU and the load generator the
   others, set with taskset(1); without taskset, or with one CPU, both
   float.  Returns the setting and the argv prefix for the server. *)
let placement () =
  let n = Domain.recommended_domain_count () in
  let run argv =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    match Unix.create_process "taskset" argv Unix.stdin null null with
    | pid -> (match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false
  in
  let load = if n = 2 then "0" else Printf.sprintf "0-%d" (n - 2) in
  let server = [ "taskset"; "-c"; string_of_int (n - 1) ] in
  if n >= 2
     && run (Array.of_list (server @ [ "true" ]))
     && run [| "taskset"; "-p"; "-c"; load; string_of_int (Unix.getpid ()) |]
  then
    (Printf.sprintf "server on cpu %d, load on cpus %s" (n - 1) load, server)
  else ("unpinned", [])

let run ~seed ~seconds ~trace =
  let clients = Domain.recommended_domain_count () in
  let placed, prefix = placement () in
  let sock = Db.path "s" ^ ".sock" in
  let to_child_r, to_child = Unix.pipe ~cloexec:true () in
  let from_child, from_child_w = Unix.pipe ~cloexec:true () in
  let argv =
    Array.of_list
      (prefix
      @ [ Sys.executable_name; "serve-child"; Int64.to_string seed; string_of_bool trace; sock ])
  in
  let pid = Unix.create_process argv.(0) argv to_child_r from_child_w Unix.stderr in
  Unix.close to_child_r;
  Unix.close from_child_w;
  let oc = Unix.out_channel_of_descr to_child and ic = Unix.in_channel_of_descr from_child in
  let reaped = ref false in
  let reap () =
    if not !reaped then begin
      reaped := true;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Report.check "serve-l5: server process exited cleanly" false "")
    end
  in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
        reap ()
      end;
      if Sys.file_exists sock then Sys.remove sock)
  @@ fun () ->
  let send fmt = Printf.ksprintf (fun s -> output_string oc (s ^ "\n"); flush oc) fmt in
  let nodes = Scanf.sscanf (input_line ic) "ready %d" Fun.id in
  let layout = Layout.make ~doc:1 ~oid_base:0 ~leaf_level:level () in
  Report.check "serve-l5: server layout matches" (nodes = layout.Layout.node_count) "";
  let addr = Net.Netaddr.Unix_sock sock in
  let run_window k secs = window ~addr ~layout ~clients ~seed ~phase:k ~seconds:secs in
  (* Untraced: one window.  Traced: an untraced window, then a traced
     one (server spans on, client spans on). *)
  let plain, traced =
    if not trace then (run_window 0 seconds, None)
    else begin
      let plain = run_window 0 (seconds /. 2.0) in
      send "trace";
      ignore (input_line ic : string);
      Span.enabled := true;
      let t = run_window 1 (seconds /. 2.0) in
      Span.enabled := false;
      (plain, Some t)
    end
  in
  let last = Option.value traced ~default:plain in
  send "stop %d" last.requests;
  let rec read acc =
    match String.split_on_char ' ' (input_line ic) with
    | [ "end" ] -> acc
    | [ "value"; name; x; n ] -> read ((name, float_of_string x, int_of_string n) :: acc)
    | "check" :: ok :: name ->
      Report.check (String.concat " " name) (bool_of_string ok) "";
      read acc
    | words ->
      print_endline (String.concat " " words);
      read acc
  in
  let server = read [] in
  reap ();
  let phases = plain :: Option.to_list traced in
  let sum f = List.fold_left (fun a p -> a + f p) 0 phases in
  let attempted = sum (fun p -> p.requests) and errors = sum (fun p -> p.errors) in
  Report.check "serve-l5: zero protocol errors" (errors = 0) (Printf.sprintf "%d errors" errors);
  Report.check "serve-l5: every reply matches the layout"
    (sum (fun p -> p.wrong) = 0)
    (Printf.sprintf "%d wrong replies" (sum (fun p -> p.wrong)));
  let lat = Pctl.Buf.to_array plain.lat in
  L.summary_line "serve-l5 request latency" lat;
  let values =
    match traced with
    | None ->
      L.windowed (Pctl.windows ~size:window_size ~times:(Pctl.Buf.to_array plain.done_at) lat)
      @ server
    | Some t ->
      let tlat = Pctl.Buf.to_array t.lat in
      let rtt = Array.fold_left ( +. ) 0.0 tlat /. float_of_int (Array.length tlat) in
      let backend =
        match List.find_opt (fun (n, _, _) -> String.equal n "server.backend_ms") server with
        | Some (_, x, _) -> x
        | None -> 0.0
      in
      server
      @ [ L.v ~n:t.requests "client.rtt_ms" rtt;
          L.v ~n:t.requests "server.other_ms" (rtt -. backend);
          L.v "trace.overhead_ratio" (Pctl.median tlat /. Pctl.median lat);
          L.v "fail_ratio" (L.per (float_of_int attempted) (float_of_int errors)) ]
  in
  { L.settings =
      [ ("level", Report.Int level); ("pool_pages", Report.Int pool_pages);
        ("clients", Report.Int clients); ("loop", Report.Str "closed, zero think time");
        ("write_fraction", Report.Num write_fraction); ("setups", Report.Int setups);
        ("placement", Report.Str placed) ]
      @ flush_settings ~durable:false;
    attempted; failed = errors; values }

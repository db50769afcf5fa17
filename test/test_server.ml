(* Server integration battery over a real unix socket: per-session
   transaction isolation under concurrency, pipelined in-order replies,
   mid-transaction client death rolling back, graceful drain, client
   reconnect-with-backoff across a server restart, parking behind an
   open transaction, and per-connection failures (a client that never
   reads, an exhausted fd table) staying per-connection. *)

open Hyper_core
open Hyper_net
module M = Hyper_memdb.Memdb
module Gen = Generator.Make (M)

let check = Alcotest.check

(* The whole battery runs under the lockdep deadlock detector: any
   lock-order inversion the server and client threads perform during
   the run is a failure even if every assertion passes (checked after
   the run). *)
module Lockdep = Hyper_util.Sync.Lockdep

let () = Lockdep.enable ()

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hyper_srv_%d_%s.sock" (Unix.getpid ()) name)

(* Fresh generated memdb + server per test. *)
let with_server name k =
  let bm = M.create () in
  let layout, _ = Gen.generate bm ~doc:1 ~leaf_level:3 ~seed:11L in
  let instance = Backend.Instance ((module M : Backend.S with type t = M.t), bm) in
  let addr = Netaddr.Unix_sock (sock_path name) in
  let srv = Server.start ~layout instance addr in
  Fun.protect
    ~finally:(fun () -> Server.kill srv)
    (fun () -> k srv addr layout)

let connect addr = Client.connect ~backoff_base_s:0.02 ~max_attempts:5 addr

let probe_oid layout =
  let rng = Hyper_util.Prng.create 3L in
  Layout.random_level layout rng 2

let get_hundred c oid =
  match Client.call c [ Trace.Attrs oid ] with
  | [ Trace.Done (Trace.V_ints [ _; _; _; h; _ ]) ] -> h
  | _ -> Alcotest.fail "attrs probe failed"

(* --- transactions --- *)

let test_commit_and_abort_visibility () =
  with_server "vis" (fun _srv addr _layout ->
      let a = connect addr and b = connect addr in
      let mk uid =
        Trace.Create
          {
            oid = 900000 + uid;
            doc = 1;
            uid = 900000 + uid;
            ten = 1;
            hundred = 1;
            million = 1;
            near = None;
            payload = Trace.P_internal;
          }
      in
      (* aborted work is invisible to the other session *)
      (match Client.call a [ Trace.Begin; mk 1; Trace.Abort ] with
      | [ Trace.Done _; Trace.Done _; Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "abort batch failed");
      (match Client.call b [ Trace.Lookup_unique { doc = 1; uid = 900001 } ] with
      | [ Trace.Done (Trace.V_int_opt None) ] -> ()
      | _ -> Alcotest.fail "aborted create leaked");
      (* committed work is visible *)
      (match Client.call a [ Trace.Begin; mk 2; Trace.Commit ] with
      | [ Trace.Done _; Trace.Done _; Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "commit batch failed");
      (match
         Client.call b [ Trace.Lookup_unique { doc = 1; uid = 900002 } ]
       with
      | [ Trace.Done (Trace.V_int_opt (Some _)) ] -> ()
      | _ -> Alcotest.fail "committed create not visible");
      Client.close a;
      Client.close b)

let test_concurrent_txns_serialize () =
  (* 8 clients × 8 read-modify-write transactions on one attribute.
     While one session's transaction is open every other session's
     live batch parks, so whole transactions serialise and no increment
     can be lost. *)
  with_server "rmw" (fun _srv addr layout ->
      let oid = probe_oid layout in
      let c0 = connect addr in
      let base = get_hundred c0 oid in
      let clients = 8 and rounds = 8 in
      let worker () =
        let c = connect addr in
        for _ = 1 to rounds do
          match Client.call c [ Trace.Begin; Trace.Attrs oid ] with
          | [ Trace.Done _; Trace.Done (Trace.V_ints [ _; _; _; h; _ ]) ] -> (
            match
              Client.call c
                [ Trace.Set_hundred { oid; value = h + 1 }; Trace.Commit ]
            with
            | [ Trace.Done _; Trace.Done _ ] -> ()
            | _ -> Alcotest.fail "rmw write failed")
          | _ -> Alcotest.fail "rmw read failed"
        done;
        Client.close c
      in
      let threads = List.init clients (fun _ -> Thread.create worker ()) in
      List.iter Thread.join threads;
      check Alcotest.int "no lost increment" (base + (clients * rounds))
        (get_hundred c0 oid);
      Client.close c0)

(* --- pipelining --- *)

let test_pipelined_in_order () =
  with_server "pipe" (fun _srv addr layout ->
      let oid = probe_oid layout in
      let c = connect addr in
      let rids =
        List.init 10 (fun i ->
            ( i,
              Client.submit c
                [
                  Trace.Begin;
                  Trace.Set_hundred { oid; value = i };
                  Trace.Attrs oid;
                  Trace.Commit;
                ] ))
      in
      (* await out of submission order: later rids first *)
      List.iter
        (fun (i, rid) ->
          match Client.await c rid with
          | [ Trace.Done _; Trace.Done _;
              Trace.Done (Trace.V_ints [ _; _; _; h; _ ]); Trace.Done _ ] ->
            check Alcotest.int "pipelined batches applied in order" i h
          | _ -> Alcotest.fail "pipelined batch failed")
        (List.rev rids);
      Client.close c)

(* --- mid-txn disconnect --- *)

let test_client_kill_mid_txn_rolls_back () =
  with_server "kill" (fun _srv addr layout ->
      let oid = probe_oid layout in
      let observer = connect addr in
      let before = get_hundred observer oid in
      (* raw connection so we can vanish without a Bye *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match addr with
      | Netaddr.Unix_sock p -> Unix.connect fd (Unix.ADDR_UNIX p)
      | _ -> assert false);
      let send r =
        let b = Wire.encode_request r in
        ignore (Unix.write fd b 0 (Bytes.length b))
      in
      let dec = Wire.Decoder.create_response () in
      let read_one () =
        let buf = Bytes.create 4096 in
        let rec go () =
          match Wire.Decoder.next dec with
          | Some (Ok r) -> r
          | Some (Error e) -> Alcotest.failf "raw: %s" (Wire.error_to_string e)
          | None ->
            let n = Unix.read fd buf 0 (Bytes.length buf) in
            if n = 0 then Alcotest.fail "raw: eof";
            Wire.Decoder.feed dec buf ~off:0 ~len:n;
            go ()
        in
        go ()
      in
      send (Wire.Hello { client = "killer"; protocol = Wire.protocol_version });
      (match read_one () with
      | Wire.Welcome _ -> ()
      | _ -> Alcotest.fail "no welcome");
      send
        (Wire.Ops
           {
             rid = 1;
             ops =
               [ Trace.Begin; Trace.Set_hundred { oid; value = before + 7 } ];
           });
      (match read_one () with
      | Wire.Results { rid = 1; outcomes = [ Trace.Done _; Trace.Done _ ] } ->
        ()
      | _ -> Alcotest.fail "txn ops not acked");
      (* vanish mid-transaction *)
      Unix.close fd;
      (* the observer's next call needs the engine, so it parks until
         the server has rolled the dead session back *)
      check Alcotest.int "mid-txn write rolled back" before
        (get_hundred observer oid);
      Client.close observer)

(* --- drain --- *)

let test_drain_finishes_in_flight () =
  with_server "drain" (fun srv addr layout ->
      let oid = probe_oid layout in
      let c = connect addr in
      (* pipeline a pile of work, then drain while it is in flight *)
      let rids =
        List.init 20 (fun i ->
            Client.submit c
              [
                Trace.Begin;
                Trace.Set_hundred { oid; value = i };
                Trace.Commit;
              ])
      in
      let drainer = Thread.create (fun () -> Server.drain ~grace_s:5.0 srv) () in
      (* every in-flight request still gets its reply, in order *)
      List.iter
        (fun rid ->
          match Client.await c rid with
          | [ Trace.Done _; Trace.Done _; Trace.Done _ ] -> ()
          | _ -> Alcotest.fail "drained request lost")
        rids;
      Thread.join drainer;
      check Alcotest.int "all sessions gone" 0 (Server.session_count srv);
      (* new work is refused: the server is gone *)
      (match
         Client.call c [ Trace.Attrs oid ]
       with
      | exception Client.Connection_lost _ -> ()
      | _ -> Alcotest.fail "server still serving after drain");
      Client.close c)

(* --- restart / reconnect --- *)

let test_reconnect_after_restart () =
  let name = "restart" in
  let bm = M.create () in
  let layout, _ = Gen.generate bm ~doc:1 ~leaf_level:3 ~seed:11L in
  let instance = Backend.Instance ((module M : Backend.S with type t = M.t), bm) in
  let addr = Netaddr.Unix_sock (sock_path name) in
  let srv1 = Server.start ~layout instance addr in
  let oid = probe_oid layout in
  let c = Client.connect ~backoff_base_s:0.02 ~max_attempts:10 addr in
  let h = get_hundred c oid in
  let g1 = Client.generation c in
  Server.kill srv1;
  (* restart on the same address while the client retries with backoff *)
  let restarter =
    Thread.create
      (fun () ->
        Thread.delay 0.15;
        Server.start ~layout instance addr)
      ()
  in
  (* the call sees the dead socket, reconnects with backoff, retries *)
  check Alcotest.int "same answer after restart" h (get_hundred c oid);
  if Client.generation c <= g1 then
    Alcotest.fail "expected a fresh connection after restart";
  Client.close c;
  let srv2 = Thread.join restarter in
  ignore srv2

let test_mid_txn_loss_is_not_retried () =
  with_server "txnloss" (fun srv addr _layout ->
      let c = connect addr in
      (match Client.call c [ Trace.Begin ] with
      | [ Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "begin failed");
      Server.kill srv;
      match Client.call c [ Trace.Commit ] with
      | exception Client.Connection_lost _ -> ()
      | _ -> Alcotest.fail "mid-txn loss must not silently retry")

(* --- snapshot sessions --- *)

let mk_create uid =
  Trace.Create
    {
      oid = 900000 + uid;
      doc = 1;
      uid = 900000 + uid;
      ten = 1;
      hundred = 1;
      million = 1;
      near = None;
      payload = Trace.P_internal;
    }

let lookup c uid =
  match Client.call c [ Trace.Lookup_unique { doc = 1; uid = 900000 + uid } ] with
  | [ Trace.Done (Trace.V_int_opt r) ] -> r
  | _ -> Alcotest.fail "lookup failed"

let test_snapshot_session_detached () =
  with_server "snap" (fun _srv addr _layout ->
      let w = connect addr and r = connect addr in
      Client.snapshot r ~active:true;
      (* A writer commits after the view was cloned; the snapshot
         session keeps the pre-image, a live session sees the write. *)
      (match Client.call w [ Trace.Begin; mk_create 1; Trace.Commit ] with
      | [ Trace.Done _; Trace.Done _; Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "writer commit failed");
      check Alcotest.bool "snapshot keeps the pre-image" true
        (lookup r 1 = None);
      check Alcotest.bool "live session sees the commit" true
        (lookup w 1 <> None);
      (* Deactivating returns the session to live reads. *)
      Client.snapshot r ~active:false;
      check Alcotest.bool "deactivated session reads live state" true
        (lookup r 1 <> None);
      Client.close w;
      Client.close r)

let test_snapshot_reads_bypass_lease () =
  with_server "snaplease" (fun _srv addr _layout ->
      let w = connect addr and r = connect addr in
      Client.snapshot r ~active:true;
      (* The writer stays inside a transaction across batches, which
         parks every live batch of other sessions.  The snapshot
         session must still get replies — its reads never touch the
         engine. *)
      (match Client.call w [ Trace.Begin; mk_create 2 ] with
      | [ Trace.Done _; Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "begin failed");
      check Alcotest.bool "snapshot read answered mid-txn" true
        (lookup r 2 = None);
      (match Client.call w [ Trace.Commit ] with
      | [ Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "commit failed");
      Client.close w;
      Client.close r)

let test_snapshot_session_read_only () =
  with_server "snapro" (fun _srv addr _layout ->
      let r = connect addr in
      Client.snapshot r ~active:true;
      (match Client.call r [ mk_create 3 ] with
      | [ Trace.Raised "Snapshot_read_only" ] -> ()
      | _ -> Alcotest.fail "mutation must be rejected on a snapshot");
      (match Client.call r [ Trace.Begin ] with
      | [ Trace.Raised "Snapshot_read_only" ] -> ()
      | _ -> Alcotest.fail "txn control must be rejected on a snapshot");
      Client.close r)

let test_snapshot_inside_txn_rejected () =
  with_server "snaptxn" (fun _srv addr _layout ->
      let c = connect addr in
      (match Client.call c [ Trace.Begin ] with
      | [ Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "begin failed");
      (match Client.snapshot c ~active:true with
      | exception Client.Server_fault (Wire.F_bad_op, _) -> ()
      | () -> Alcotest.fail "snapshot inside a transaction must fault");
      (* The session survives the fault and can finish its txn. *)
      (match Client.call c [ Trace.Commit ] with
      | [ Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "commit after fault failed");
      Client.close c)

(* --- scheduling --- *)

(* Run [f] on a thread and fail if it has not finished after [s]
   seconds, so a stalled server fails the case instead of hanging the
   battery. *)
let within s what f =
  let finished = Atomic.make false in
  let th = Thread.create (fun () -> f (); Atomic.set finished true) () in
  let now () = Int64.to_float (Hyper_util.Mtime_stub.now_ns ()) /. 1e9 in
  let deadline = now () +. s in
  while (not (Atomic.get finished)) && now () < deadline do
    Thread.delay 0.01
  done;
  if not (Atomic.get finished) then Alcotest.failf "%s: no reply after %.0fs" what s;
  Thread.join th

let test_live_read_waits_for_commit () =
  with_server "park" (fun _srv addr layout ->
      let oid = probe_oid layout in
      let a = connect addr and b = connect addr in
      let v = get_hundred a oid + 5 in
      (match Client.call a [ Trace.Begin; Trace.Set_hundred { oid; value = v } ] with
      | [ Trace.Done _; Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "txn write failed");
      (* B's live read parks behind A's open transaction: it may only
         be answered once A's commit has been sent. *)
      let committing = Atomic.make false in
      let seen = ref (false, 0) in
      let reader =
        Thread.create
          (fun () ->
            let h = get_hundred b oid in
            seen := (Atomic.get committing, h))
          ()
      in
      Thread.delay 0.1;
      Atomic.set committing true;
      (match Client.call a [ Trace.Commit ] with
      | [ Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "commit failed");
      within 5.0 "parked read" (fun () -> Thread.join reader);
      let after_commit, h = !seen in
      check Alcotest.bool "answered only after the commit" true after_commit;
      check Alcotest.int "reads the committed value" v h;
      Client.close a;
      Client.close b)

let test_snapshot_waits_for_commit () =
  with_server "snappark" (fun _srv addr _layout ->
      let a = connect addr and b = connect addr in
      (match Client.call a [ Trace.Begin; mk_create 4 ] with
      | [ Trace.Done _; Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "begin failed");
      (* Cloning the engine inside A's transaction is impossible, so B's
         snapshot request waits for the commit instead of faulting. *)
      let committing = Atomic.make false in
      let result = ref (Error "no reply") in
      let taker =
        Thread.create
          (fun () ->
            result :=
              match Client.snapshot b ~active:true with
              | () -> Ok (Atomic.get committing)
              | exception Client.Server_fault (_, m) -> Error m)
          ()
      in
      Thread.delay 0.1;
      Atomic.set committing true;
      (match Client.call a [ Trace.Commit ] with
      | [ Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "commit failed");
      within 5.0 "parked snapshot" (fun () -> Thread.join taker);
      (match !result with
      | Ok after_commit ->
        check Alcotest.bool "snapshot taken after the commit" true after_commit
      | Error m -> Alcotest.failf "snapshot faulted: %s" m);
      check Alcotest.bool "the view holds A's commit" true (lookup b 4 <> None);
      Client.close a;
      Client.close b)

let raw_connect addr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match addr with
  | Netaddr.Unix_sock p -> Unix.connect fd (Unix.ADDR_UNIX p)
  | _ -> assert false);
  fd

let test_unread_replies_stall_one_session () =
  with_server "noread" (fun _srv addr layout ->
      let oid = probe_oid layout in
      (* A raw session pipelines reads and never reads a reply: once
         the socket buffers fill, the server holds its replies and stops
         reading from it. *)
      let fd = raw_connect addr in
      let frame = Wire.encode_request (Wire.Ops { rid = 1; ops = [ Trace.Attrs oid ] }) in
      let chunk = Bytes.concat Bytes.empty (List.init 100 (fun _ -> frame)) in
      Unix.set_nonblock fd;
      let rec flood n =
        if n > 0 then
          match Unix.write fd chunk 0 (Bytes.length chunk) with
          | _ -> flood (n - 1)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      in
      (* Closing the raw socket first unblocks a server stuck writing
         to it, so a failure here cannot hang the shutdown. *)
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          flood 100_000;
          within 5.0 "second client" (fun () ->
              let c = connect addr in
              ignore (get_hundred c oid);
              Client.close c)))

let test_accept_survives_emfile () =
  with_server "emfile" (fun _srv addr layout ->
      let oid = probe_oid layout in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (* Fill the fd table so the server's accept of the next
         connection fails with EMFILE. *)
      let spare = ref [] in
      (try
         for _ = 1 to 1_000_000 do
           spare := Unix.dup fd :: !spare
         done
       with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> ());
      let exhausted = List.length !spare < 1_000_000 in
      (match addr with
      | Netaddr.Unix_sock p -> (
        try Unix.connect fd (Unix.ADDR_UNIX p) with Unix.Unix_error _ -> ())
      | _ -> assert false);
      Thread.delay 0.2;
      List.iter Unix.close !spare;
      Unix.close fd;
      if not exhausted then Alcotest.skip ();
      let c = connect addr in
      check Alcotest.bool "still accepting" true (get_hundred c oid >= 0);
      Client.close c)

let () =
  Alcotest.run "test_server"
    [
      ( "txn",
        [
          Alcotest.test_case "commit/abort visibility" `Quick
            test_commit_and_abort_visibility;
          Alcotest.test_case "concurrent rmw serialises" `Quick
            test_concurrent_txns_serialize;
          Alcotest.test_case "mid-txn kill rolls back" `Quick
            test_client_kill_mid_txn_rolls_back;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "in-order replies" `Quick test_pipelined_in_order ]
      );
      ( "lifecycle",
        [
          Alcotest.test_case "drain finishes in-flight" `Quick
            test_drain_finishes_in_flight;
          Alcotest.test_case "reconnect after restart" `Quick
            test_reconnect_after_restart;
          Alcotest.test_case "mid-txn loss not retried" `Quick
            test_mid_txn_loss_is_not_retried;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "detached view" `Quick
            test_snapshot_session_detached;
          Alcotest.test_case "reads bypass the lease" `Quick
            test_snapshot_reads_bypass_lease;
          Alcotest.test_case "read-only enforced" `Quick
            test_snapshot_session_read_only;
          Alcotest.test_case "rejected inside txn" `Quick
            test_snapshot_inside_txn_rejected;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "live read waits for commit" `Quick
            test_live_read_waits_for_commit;
          Alcotest.test_case "snapshot waits for commit" `Quick
            test_snapshot_waits_for_commit;
          Alcotest.test_case "unread replies stall one session" `Quick
            test_unread_replies_stall_one_session;
          Alcotest.test_case "accept survives EMFILE" `Quick
            test_accept_survives_emfile;
        ] );
    ]

(* Alcotest.run returns only when every test passed; a lockdep report
   accumulated along the way still fails the binary. *)
let () =
  match Lockdep.reports () with
  | [] -> ()
  | rs ->
    List.iter (fun r -> prerr_endline (Lockdep.report_to_string r)) rs;
    exit 70

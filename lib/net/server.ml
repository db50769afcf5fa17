open Hyper_core
module Obs = Hyper_obs.Obs

let m_sessions = Obs.Counter.make "hyper_net_sessions_total"
let m_requests = Obs.Counter.make "hyper_net_requests_total"
let m_ops = Obs.Counter.make "hyper_net_ops_total"
let m_faults = Obs.Counter.make "hyper_net_faults_total"
let m_batch_ns = Obs.Histogram.make "hyper_net_server_batch_ns"

let ignore_sigpipe () =
  (* A peer that vanished between select and write must surface as
     EPIPE, not kill the process. *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

type session = {
  sid : int;
  fd : Unix.file_descr;
  dec : Wire.request Wire.Decoder.t;
  mutable out : bytes;  (* the reply being written; empty when none *)
  mutable sent : int;  (* bytes of [out] the kernel has taken *)
  mutable in_txn : bool;  (* this session owns the open transaction *)
  mutable snap : Backend.instance option;
      (* snapshot mode: batches read this detached view *)
  mutable parked : Wire.request option;
      (* decoded, waiting for another session's transaction to close *)
  mutable closing : bool;  (* read no more; close once [out] is written *)
}

(* Everything but the two atomics is owned by the loop thread. *)
type t = {
  name : string;
  reraise : exn -> bool;
  max_frame : int;
  layout : Layout.t;
  instance : Backend.instance;
  address : Netaddr.t;
  listen_fd : Unix.file_descr;
  sessions : (Unix.file_descr, session) Hashtbl.t;
  waiting : session Queue.t;  (* parked sessions, oldest first *)
  buf : bytes;
  drain_at : int64 option Atomic.t;  (* grace deadline, set by [drain] *)
  killed : bool Atomic.t;
  mutable crash : exn option;
  mutable listening : bool;
  mutable accept_failed : bool;  (* leave [listen_fd] out for a tick *)
  mutable next_sid : int;
  mutable thread : Thread.t option;
}

let addr t = t.address
let crashed t = t.crash
let session_count t = Hashtbl.length t.sessions

(* --- socket plumbing --- *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let would_block = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true
  | _ -> false

let pending sess = sess.sent < Bytes.length sess.out

(* Sockets are not store files: the Vfs seam covers page/WAL I/O, and
   crash injection for the served backend happens underneath it.  The
   network byte stream talks to the OS directly.  Write what the kernel
   takes; the rest waits for a writable tick. *)
let[@lint.allow "vfs-boundary"] rec flush sess =
  if pending sess then
    match
      Unix.single_write sess.fd sess.out sess.sent
        (Bytes.length sess.out - sess.sent)
    with
    | n ->
      sess.sent <- sess.sent + n;
      flush sess
    | exception Unix.Unix_error (e, _, _) when would_block e -> ()
    | exception Unix.Unix_error _ ->
      sess.out <- Bytes.empty;
      sess.closing <- true

(* Frames are decoded only while nothing is pending (see [pump]), so a
   session never has more than one reply to write. *)
let send sess resp =
  sess.out <- Wire.encode_response resp;
  sess.sent <- 0;
  flush sess

let[@lint.allow "vfs-boundary"] receive t sess =
  match Unix.read sess.fd t.buf 0 (Bytes.length t.buf) with
  | 0 -> sess.closing <- true (* EOF *)
  | n -> Wire.Decoder.feed sess.dec t.buf ~off:0 ~len:n
  | exception Unix.Unix_error (e, _, _) when would_block e -> ()
  | exception Unix.Unix_error _ -> sess.closing <- true

(* --- session execution --- *)

let fault rid code message =
  Obs.Counter.incr m_faults;
  Wire.Fault { rid; code; message }

let unit_reply rid = Wire.Results { rid; outcomes = [ Trace.Done Trace.V_unit ] }

let rollback t sess =
  (* The client vanished (or drain expired) mid-transaction. *)
  if sess.in_txn then begin
    (match Trace.apply ~layout:t.layout t.instance Trace.Abort with
    | Trace.Done _ | Trace.Raised _ -> ());
    sess.in_txn <- false
  end

(* A snapshot batch reads the session's detached view; anything that
   could change state (or pretends to: transaction control) is
   refused. *)
let exec_batch t sess rid ops =
  let t0 = Hyper_util.Mtime_stub.now_ns () in
  let apply op =
    match (sess.snap, op) with
    | Some _, (Trace.Begin | Trace.Commit | Trace.Abort) ->
      Trace.Raised "Snapshot_read_only"
    | Some _, op when Trace.is_mutation op -> Trace.Raised "Snapshot_read_only"
    | Some snap, op -> Trace.apply ~reraise:t.reraise ~layout:t.layout snap op
    | None, op ->
      let o = Trace.apply ~reraise:t.reraise ~layout:t.layout t.instance op in
      (match (op, o) with
      | Trace.Begin, Trace.Done _ -> sess.in_txn <- true
      | (Trace.Commit | Trace.Abort), _ -> sess.in_txn <- false
      | _ -> ());
      o
  in
  let outcomes = List.map apply ops in
  Obs.Counter.incr m_requests;
  Obs.Counter.add m_ops (List.length ops);
  Obs.Histogram.observe m_batch_ns
    (Int64.to_float (Int64.sub (Hyper_util.Mtime_stub.now_ns ()) t0));
  Wire.Results { rid; outcomes }

let take_snapshot t sess rid =
  if sess.in_txn then
    fault rid Wire.F_bad_op "snapshot: session is inside a transaction"
  else
    match Backend.instance_snapshot t.instance with
    | None ->
      fault rid Wire.F_bad_op
        (Printf.sprintf "snapshot: backend %s cannot produce a detached view"
           (Backend.instance_name t.instance))
    | Some view ->
      sess.snap <- Some view;
      unit_reply rid

(* Deliberate normalization seam: crash points are checked first and
   kill the server un-acked; every other backend exception becomes a
   typed Fault reply after rollback — a serving loop must not die on a
   bad request. *)
let guarded t sess rid f =
  (match f () with
  | resp -> send sess resp
  | exception e when t.reraise e ->
    t.crash <- Some e;
    Atomic.set t.killed true
  | exception e ->
    rollback t sess;
    send sess (fault rid Wire.F_internal (Printexc.to_string e)))
  [@lint.allow "no-catchall-swallow"]

let run t sess = function
  | Wire.Hello { client = _; protocol } when protocol <> Wire.protocol_version ->
    send sess
      (fault (-1) Wire.F_bad_frame
         (Printf.sprintf "protocol %d, server speaks %d" protocol
            Wire.protocol_version));
    sess.closing <- true
  | Wire.Hello _ ->
    send sess
      (Wire.Welcome
         { session = sess.sid; server = t.name; protocol = Wire.protocol_version })
  | Wire.Ping { rid } -> send sess (Wire.Pong { rid })
  | Wire.Snapshot { rid; active = true } ->
    guarded t sess rid (fun () -> take_snapshot t sess rid)
  | Wire.Snapshot { rid; active = false } ->
    sess.snap <- None;
    send sess (unit_reply rid)
  | Wire.Bye -> sess.closing <- true
  | Wire.Ops { rid; ops } -> guarded t sess rid (fun () -> exec_batch t sess rid ops)

(* The open transaction's owner, derived: at most one session has
   [in_txn] set, because a live batch runs only when no other session
   owns one. *)
let owner t =
  Hashtbl.fold (fun _ s acc -> if s.in_txn then Some s else acc) t.sessions None

(* Requests that need the engine (a live batch, taking a snapshot) wait
   behind the owner and behind sessions parked before them. *)
let runnable t sess = function
  | Wire.Ops _ when Option.is_some sess.snap -> true
  | Wire.Ops _ | Wire.Snapshot { active = true; _ } ->
    sess.in_txn || (Queue.is_empty t.waiting && Option.is_none (owner t))
  | Wire.Hello _ | Wire.Ping _ | Wire.Snapshot _ | Wire.Bye -> true

(* Answer complete frames in arrival order — the in-order guarantee is
   exactly this loop.  It stops at a parked request and while a reply
   is still pending, so a client that does not read stalls only its own
   session. *)
let rec pump t sess =
  if
    (not (sess.closing || pending sess || Atomic.get t.killed))
    && Option.is_none sess.parked
  then
    match Wire.Decoder.next sess.dec with
    | None -> ()
    | Some (Error e) ->
      send sess (fault (-1) Wire.F_bad_frame (Wire.error_to_string e));
      sess.closing <- true
    | Some (Ok req) when runnable t sess req ->
      run t sess req;
      pump t sess
    | Some (Ok req) ->
      sess.parked <- Some req;
      Queue.push sess t.waiting

(* Hand the engine to parked sessions, oldest first, while no
   transaction is open. *)
let rec resume t =
  if Option.is_none (owner t) then
    match Queue.take_opt t.waiting with
    | None -> ()
    | Some sess ->
      Option.iter
        (fun req ->
          sess.parked <- None;
          run t sess req;
          pump t sess)
        sess.parked;
      if not (Atomic.get t.killed) then resume t

(* --- the loop --- *)

let accept t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error (e, _, _) ->
    (* EMFILE, ENFILE, ECONNABORTED...: the server keeps accepting.
       Leaving the listening socket out of the next [select] keeps a
       full fd table from spinning the loop. *)
    t.accept_failed <- not (would_block e)
  | fd, _ -> (
    (* [select] raises EINVAL for every watched fd once one is past
       FD_SETSIZE; such a connection is refused here instead. *)
    match Unix.select [ fd ] [] [] 0.0 with
    | exception Unix.Unix_error _ -> close_quiet fd
    | _ ->
      Unix.set_nonblock fd;
      Obs.Counter.incr m_sessions;
      let dec = Wire.Decoder.create_request ~max_frame:t.max_frame () in
      Hashtbl.replace t.sessions fd
        { sid = t.next_sid; fd; dec; out = Bytes.empty; sent = 0;
          in_txn = false; snap = None; parked = None; closing = false };
      t.next_sid <- t.next_sid + 1)

(* Close finished sessions.  Draining, every session with nothing left
   to do goes once a tick passes [quiet] (nothing read or written); past
   the grace deadline every session that is not parked goes, rolling
   back the open transaction, so the parked ones resume. *)
let reap t ~quiet =
  let drain_at = Atomic.get t.drain_at in
  let expired =
    Option.fold ~none:false
      ~some:(fun d -> Hyper_util.Mtime_stub.now_ns () > d)
      drain_at
  in
  Hashtbl.filter_map_inplace
    (fun _ sess ->
      let parked = Option.is_some sess.parked in
      if
        (sess.closing && not (pending sess))
        || (expired && not parked)
        || quiet && Option.is_some drain_at && (not parked)
           && (not (pending sess))
           && Wire.Decoder.buffered sess.dec = 0
      then begin
        rollback t sess;
        sess.parked <- None;
        close_quiet sess.fd;
        None
      end
      else Some sess)
    t.sessions

let tick t =
  if t.listening && Option.is_some (Atomic.get t.drain_at) then begin
    t.listening <- false;
    close_quiet t.listen_fd
  end;
  let listen = if t.listening && not t.accept_failed then [ t.listen_fd ] else [] in
  t.accept_failed <- false;
  let reads, writes =
    Hashtbl.fold
      (fun fd sess (r, w) ->
        if pending sess then (r, fd :: w)
        else if sess.closing || Option.is_some sess.parked then (r, w)
        else (fd :: r, w))
      t.sessions (listen, [])
  in
  match Unix.select reads writes [] 0.05 with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
    let serve_fd io fd =
      if fd = t.listen_fd then accept t
      else
        Option.iter
          (fun sess ->
            io sess;
            pump t sess)
          (Hashtbl.find_opt t.sessions fd)
    in
    List.iter (serve_fd flush) writable;
    List.iter (serve_fd (receive t)) readable;
    if not (Atomic.get t.killed) then begin
      reap t ~quiet:(readable = [] && writable = []);
      resume t
    end

(* After a crash or [kill] the engine must not be touched (the crash
   fuzzer's backend raises on any access): sockets just close. *)
let serve t =
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.iter (fun fd _ -> close_quiet fd) t.sessions;
      Hashtbl.reset t.sessions;
      if t.listening then close_quiet t.listen_fd)
    (fun () ->
      while
        not
          (Atomic.get t.killed
          || ((not t.listening) && Hashtbl.length t.sessions = 0))
      do
        tick t
      done)

(* --- lifecycle --- *)

let start ?(name = "hypermodel") ?(reraise = fun _ -> false)
    ?(max_frame = Wire.max_frame_default) ~layout instance address =
  ignore_sigpipe ();
  (match address with
  | Netaddr.Unix_sock path when Sys.file_exists path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let listen_fd = Unix.socket (Netaddr.domain address) Unix.SOCK_STREAM 0 in
  (match address with
  | Netaddr.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | Netaddr.Unix_sock _ -> ());
  Unix.bind listen_fd (Netaddr.to_sockaddr address);
  Unix.listen listen_fd 512;
  Unix.set_nonblock listen_fd;
  let t =
    {
      name;
      reraise;
      max_frame;
      layout;
      instance;
      address;
      listen_fd;
      sessions = Hashtbl.create 64;
      waiting = Queue.create ();
      buf = Bytes.create 65536;
      drain_at = Atomic.make None;
      killed = Atomic.make false;
      crash = None;
      listening = true;
      accept_failed = false;
      next_sid = 1;
      thread = None;
    }
  in
  t.thread <- Some (Thread.create serve t);
  t

let join t = Option.iter Thread.join t.thread

let drain ?(grace_s = 5.0) t =
  let now = Hyper_util.Mtime_stub.now_ns () in
  Atomic.set t.drain_at (Some (Int64.add now (Int64.of_float (grace_s *. 1e9))));
  join t

let kill t =
  Atomic.set t.killed true;
  join t

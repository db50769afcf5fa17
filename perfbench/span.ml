(* Thread-correct spans, recorded from outside the program.

   Every thread gets its own state (stack, per-kind aggregates, request
   id), found through a table indexed by [Thread.id]; a span only ever
   touches its own thread's stack, so concurrent threads cannot mis-nest
   or drop each other's spans.  Self time is computed when a span ends:
   its duration minus the part of it that its child spans covered.

   Aggregates are exact for every span.  Individual span records (name,
   start, end, parent, request id, thread) are kept in memory up to
   [record_cap] and written out by [dump] when the run ends.

   Time comes from [Mtime_stub.now_ns], the monotonic clock: never from
   the virtual clock, whose simulated offset is process-global. *)

module Sync = Hyper_util.Sync

type kind = int

let now () = Int64.to_int (Hyper_util.Mtime_stub.now_ns ())

(* --- kinds --- *)

let registry_lock = Sync.Mutex.create "perfbench.span.registry"
let names : string array ref = ref [||]

let kind name =
  Sync.Mutex.with_lock registry_lock (fun () ->
      let rec find i =
        if i = Array.length !names then begin
          names := Array.append !names [| name |];
          i
        end
        else if String.equal !names.(i) name then i
        else find (i + 1)
      in
      find 0)

let name k = !names.(k)

(* --- per-thread state --- *)

type agg = { mutable calls : int; mutable total_ns : int; mutable self_ns : int }

type frame = { f_kind : kind; f_id : int; f_start : int; mutable f_child : int }

type record = {
  r_id : int;
  r_parent : int;  (* -1 for a root span *)
  r_tid : int;
  r_rid : int;
  r_kind : kind;
  r_start : int;
  r_stop : int;
  r_self : int;
}

type state = {
  tid : int;
  mutable stack : frame list;
  mutable aggs : agg array;
  mutable rid : int;
  mutable mark : int;
  mutable opened : int;  (* start of the first root span since [close_unit]; 0 = none *)
}

let enabled = ref false
let table : state option array ref = ref (Array.make 64 None)
let table_lock = Sync.Mutex.create "perfbench.span.table"

let fresh_aggs n = Array.init n (fun _ -> { calls = 0; total_ns = 0; self_ns = 0 })

let create tid =
  Sync.Mutex.with_lock table_lock (fun () ->
      if tid >= Array.length !table then begin
        let bigger = Array.make (max (2 * Array.length !table) (tid + 1)) None in
        Array.blit !table 0 bigger 0 (Array.length !table);
        table := bigger
      end;
      match !table.(tid) with
      | Some s -> s
      | None ->
        let s =
          { tid; stack = []; aggs = fresh_aggs (Array.length !names); rid = 0;
            mark = 0; opened = 0 }
        in
        !table.(tid) <- Some s;
        s)

let self () =
  let tid = Thread.id (Thread.self ()) in
  let t = !table in
  if tid < Array.length t then
    match t.(tid) with Some s -> s | None -> create tid
  else create tid

let agg st k =
  if k >= Array.length st.aggs then begin
    let bigger = fresh_aggs (Array.length !names) in
    Array.blit st.aggs 0 bigger 0 (Array.length st.aggs);
    st.aggs <- bigger
  end;
  st.aggs.(k)

(* --- span records --- *)

let record_cap = 200_000
let records : record option array = Array.make record_cap None
let next_record = Atomic.make 0
let next_id = Atomic.make 0

let finish st fr parent =
  let stop = now () in
  let dur = stop - fr.f_start in
  (match st.stack with
  | top :: rest when top == fr -> st.stack <- rest
  | _ -> invalid_arg "Span: unbalanced stack");
  (match st.stack with p :: _ -> p.f_child <- p.f_child + dur | [] -> ());
  let self_ns = dur - fr.f_child in
  let a = agg st fr.f_kind in
  a.calls <- a.calls + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + self_ns;
  let i = Atomic.fetch_and_add next_record 1 in
  if i < record_cap then
    records.(i) <-
      Some
        { r_id = fr.f_id; r_parent = parent; r_tid = st.tid; r_rid = st.rid;
          r_kind = fr.f_kind; r_start = fr.f_start; r_stop = stop;
          r_self = self_ns }

let with_ k f =
  if not !enabled then f ()
  else begin
    let st = self () in
    let parent = match st.stack with [] -> -1 | p :: _ -> p.f_id in
    let fr =
      { f_kind = k; f_id = Atomic.fetch_and_add next_id 1; f_start = now ();
        f_child = 0 }
    in
    if parent < 0 && st.opened = 0 then st.opened <- fr.f_start;
    st.stack <- fr :: st.stack;
    match f () with
    | v ->
      finish st fr parent;
      v
    | exception e ->
      finish st fr parent;
      raise e
  end

(* --- per-thread marks --- *)

let set_request rid = (self ()).rid <- rid
let set_mark () = (self ()).mark <- now ()
let mark () = (self ()).mark

let close_unit () =
  let st = self () in
  let t = st.opened in
  st.opened <- 0;
  t

(* --- read-out --- *)

let states () =
  Sync.Mutex.with_lock table_lock (fun () ->
      Array.to_list !table |> List.filter_map Fun.id)

let per_thread k =
  List.filter_map
    (fun st ->
      let a = agg st k in
      if a.calls = 0 then None else Some (st.tid, a))
    (states ())

let totals k =
  List.fold_left
    (fun acc (_, a) ->
      { calls = acc.calls + a.calls; total_ns = acc.total_ns + a.total_ns;
        self_ns = acc.self_ns + a.self_ns })
    { calls = 0; total_ns = 0; self_ns = 0 }
    (per_thread k)

let recorded () = Atomic.get next_record

let dump path =
  let oc = open_out path in
  output_string oc "id\tparent\tthread\trequest\tname\tstart_ns\tend_ns\tself_ns\n";
  Array.iter
    (function
      | None -> ()
      | Some r ->
        Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n" r.r_id r.r_parent
          r.r_tid r.r_rid (name r.r_kind) r.r_start r.r_stop r.r_self)
    records;
  close_out oc

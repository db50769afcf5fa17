(* Rounds of the paper's §6 protocol, timed call by call.

   One round runs all 20 operations in paper order.  For each: draw 50
   inputs from the layout arithmetic (never from the database), drop
   the caches, time the 50 cold calls with the commit inside the window,
   time the same 50 calls warm, drop the caches again.  Inputs of round
   [r] are a pure function of the seed and [r], so a round can be
   replayed on another backend to check its node counts. *)

open Hyper_core
module Prng = Hyper_util.Prng

let reps = 50
let depth = 25
let op_ids = Protocol.op_ids

let op_class = function
  | "09" -> "scan"
  | "10" | "11" | "13" | "14" | "15" | "18" -> "closure"
  | "12" | "16" | "17" -> "edit"
  | _ -> "lookup"

let classes = [ "lookup"; "scan"; "closure"; "edit" ]

(* Span kinds of the timed calls, one per operation and temperature. *)
let call_kind =
  let kinds =
    List.concat_map
      (fun id ->
        List.map
          (fun temp -> ((id, temp), Span.kind (Printf.sprintf "op.%s.%s" id temp)))
          [ "cold"; "warm" ])
      op_ids
  in
  fun id temp -> List.assoc (id, temp) kinds

type batch = {
  window_ms : float;  (* calls plus commit *)
  counts : int array;  (* nodes returned by each call *)
}

type op_run = { op : string; cold : batch; warm : batch }

let nodes b = Array.fold_left ( + ) 0 b.counts

let ms_per_node b =
  let n = nodes b in
  if n = 0 then 0.0 else b.window_ms /. float_of_int n

let round_rng ~seed ~round id =
  Prng.create
    (Int64.add (Int64.mul seed 1_000_003L)
       (Int64.of_int ((round * 7919) + Hashtbl.hash id)))

let ms_between t0 t1 = float_of_int (t1 - t0) /. 1e6

module Make (B : Backend.S) = struct
  module O = Ops.Make (B)

  (* Input thunks per operation, drawn as [Protocol] draws them. *)
  let thunks layout rng b id =
    let doc = layout.Layout.doc in
    let mk f = Array.init reps (fun _ -> f ()) in
    let level3 () = Layout.random_level layout rng 3 in
    match id with
    | "01" ->
      mk (fun () ->
          let uid = Layout.random_uid layout rng in
          fun () -> match O.name_lookup b ~doc ~uid with Some _ -> 1 | None -> 0)
    | "02" ->
      mk (fun () ->
          let oid = Layout.random_node layout rng in
          fun () ->
            ignore (O.name_oid_lookup b ~oid : int);
            1)
    | "03" ->
      mk (fun () ->
          let x = Prng.int_in rng 1 91 in
          fun () -> List.length (O.range_lookup_hundred b ~doc ~x))
    | "04" ->
      mk (fun () ->
          let x = Prng.int_in rng 1 990_001 in
          fun () -> List.length (O.range_lookup_million b ~doc ~x))
    | "05A" ->
      mk (fun () ->
          let oid = Layout.random_internal layout rng in
          fun () -> Array.length (O.group_lookup_1n b ~oid))
    | "05B" ->
      mk (fun () ->
          let oid = Layout.random_internal layout rng in
          fun () -> Array.length (O.group_lookup_mn b ~oid))
    | "06" ->
      mk (fun () ->
          let oid = Layout.random_node layout rng in
          fun () -> Array.length (O.group_lookup_mnatt b ~oid))
    | "07A" ->
      mk (fun () ->
          let oid = Layout.random_non_root layout rng in
          fun () -> match O.ref_lookup_1n b ~oid with Some _ -> 1 | None -> 0)
    | "07B" ->
      mk (fun () ->
          let oid = Layout.random_non_root layout rng in
          fun () -> Array.length (O.ref_lookup_mn b ~oid))
    | "08" ->
      mk (fun () ->
          let oid = Layout.random_node layout rng in
          fun () -> Array.length (O.ref_lookup_mnatt b ~oid))
    | "09" -> [| (fun () -> O.seq_scan b ~doc) |]
    | "10" ->
      mk (fun () ->
          let start = level3 () in
          fun () -> List.length (O.closure_1n b ~start))
    | "11" ->
      mk (fun () ->
          let start = level3 () in
          fun () ->
            ignore (O.closure_1n_att_sum b ~start : int);
            Layout.closure_size layout ~from_level:3)
    | "12" ->
      mk (fun () ->
          let start = level3 () in
          fun () -> O.closure_1n_att_set b ~start)
    | "13" ->
      mk (fun () ->
          let start = level3 () in
          let x = Prng.int_in rng 1 990_001 in
          fun () -> List.length (O.closure_1n_pred b ~start ~x))
    | "14" ->
      mk (fun () ->
          let start = level3 () in
          fun () -> List.length (O.closure_mn b ~start))
    | "15" ->
      mk (fun () ->
          let start = level3 () in
          fun () -> List.length (O.closure_mnatt b ~start ~depth))
    | "16" ->
      mk (fun () ->
          let oid = Layout.random_text layout rng in
          fun () ->
            O.text_node_edit b ~oid;
            1)
    | "17" ->
      let oid = Layout.random_form layout rng in
      mk (fun () ->
          let w = Prng.int_in rng 25 50 and h = Prng.int_in rng 25 50 in
          let x = Prng.int_in rng 0 49 and y = Prng.int_in rng 0 49 in
          fun () ->
            O.form_node_edit b ~oid ~x ~y ~w ~h;
            1)
    | "18" ->
      mk (fun () ->
          let start = level3 () in
          fun () -> List.length (O.closure_mnatt_link_sum b ~start ~depth))
    | other -> invalid_arg ("Rounds: unknown op " ^ other)

  (* [on_call ms] sees every timed call's latency. *)
  let batch b ~kind ~on_call calls =
    let t0 = Span.now () in
    B.begin_txn b;
    let counts =
      Array.mapi
        (fun i f ->
          Span.set_request i;
          let c0 = Span.now () in
          let n = Span.with_ kind f in
          on_call (ms_between c0 (Span.now ()));
          n)
        calls
    in
    B.commit b;
    { window_ms = ms_between t0 (Span.now ()); counts }

  let round ?(on_call = ignore) ~seed ~round b layout =
    List.map
      (fun id ->
        let calls = thunks layout (round_rng ~seed ~round id) b id in
        B.clear_caches b;
        let cold = batch b ~kind:(call_kind id "cold") ~on_call calls in
        let warm = batch b ~kind:(call_kind id "warm") ~on_call calls in
        B.clear_caches b;
        { op = id; cold; warm })
      op_ids
end

(* Headline of a set of rounds: for each operation its best round (the
   least ms/node over the rounds), then the geometric mean over the
   operations in [ops].  The best round, not the median one: on a shared
   machine interference only ever adds time, and it drifts over minutes,
   so the median round moves with the neighbours (between-run spread of
   the warm headline 0.18 over 12 runs on a 2-vCPU VM) while the best
   round tracks the code (0.06 on the same runs). *)
let geo_ms_per_node ?(ops = op_ids) temp (rounds : op_run list list) =
  let pick r = match temp with `Cold -> r.cold | `Warm -> r.warm in
  Pctl.geomean
    (List.map
       (fun id ->
         List.fold_left
           (fun best rs -> Float.min best (ms_per_node (pick (List.find (fun r -> r.op = id) rs))))
           Float.infinity rounds)
       ops)

let class_ops c = List.filter (fun id -> String.equal (op_class id) c) op_ids

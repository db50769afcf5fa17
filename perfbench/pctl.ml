(* Percentiles as the benchmark reports them: a timing is its median
   plus the highest percentile that still has at least [min_beyond]
   samples beyond it, always with the sample count. *)

let min_beyond = 10
let ladder = [ 99.9; 99.0; 90.0; 50.0 ]

(* [p]-th percentile of sorted samples, interpolating linearly between
   ranks (rank = p/100 * (n-1)). *)
let of_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pctl.of_sorted: no samples";
  let r = p /. 100.0 *. float_of_int (n - 1) in
  let i = truncate r in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* Samples strictly above the rank of the [p]-th percentile. *)
let beyond n p = n - 1 - truncate (p /. 100.0 *. float_of_int (n - 1))

type summary = {
  n : int;
  median : float;
  tail : (float * float) option;
      (* (percentile, value) for the highest [ladder] percentile with at
         least [min_beyond] samples beyond it *)
}

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let summary samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pctl.summary: no samples";
  let tail =
    List.find_opt (fun p -> beyond n p >= min_beyond) ladder
    |> Option.map (fun p -> (p, of_sorted a p))
  in
  { n; median = of_sorted a 50.0; tail }

(* The [p]-th percentile, refused when fewer than [min_beyond] samples
   lie beyond it: such a tail is one or two outliers, not a percentile. *)
let at samples p =
  let n = Array.length samples in
  if n = 0 || beyond n p < min_beyond then
    failwith
      (Printf.sprintf "p%g needs at least %d samples beyond it; have %d samples"
         p min_beyond n);
  of_sorted (sorted samples) p

let median samples = (summary samples).median

let geomean xs =
  if xs = [] then invalid_arg "Pctl.geomean: empty";
  List.iter (fun x -> if x <= 0.0 then invalid_arg "Pctl.geomean: non-positive") xs;
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Consecutive windows of [size] samples in completion order: each
   window's throughput ((size - 1) completions over the time between its
   first and last completion, [times] in seconds) and its samples.  A
   trailing partial window is dropped. *)
let windows ~size ~times samples =
  List.init (Array.length samples / size) (fun w ->
      let lo = w * size and hi = ((w + 1) * size) - 1 in
      (float_of_int (size - 1) /. (times.(hi) -. times.(lo)), Array.sub samples lo size))

(* A growable sample buffer. *)
module Buf = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.a then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.a 0 bigger 0 t.len;
      t.a <- bigger
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.a 0 t.len
end

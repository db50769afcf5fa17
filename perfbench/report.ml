(* What a run prints: the settings it ran with, its correctness checks,
   a table of metrics (name, value, unit, sample count), and as the
   last line one JSON object with the verdict and the metrics. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* --- JSON (flat objects only) --- *)

type json = Str of string | Num of float | Int of int | Bool of bool | Obj of (string * json) list

let rec to_json = function
  | Str s -> Printf.sprintf "%S" s
  | Num f ->
    if Float.is_finite f then Printf.sprintf "%.17g" f
    else invalid_arg "Report: non-finite number"
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (to_json v)) kvs)
    ^ "}"

(* --- correctness checks --- *)

let failures = ref []

let check name ok detail =
  Printf.printf "check %-44s %s%s\n%!" name
    (if ok then "ok" else "FAILED")
    (if ok || detail = "" then "" else ": " ^ detail);
  if not ok then failures := name :: !failures

let correct () = !failures = []

(* --- output --- *)

let settings kvs = Printf.printf "settings: %s\n%!" (to_json (Obj kvs))

let table metrics =
  List.iter
    (fun m ->
      Printf.printf "metric %-36s %16.6f %-8s n=%d\n" m.name m.value m.unit_ m.samples)
    metrics

let result ~attempted ~failed metrics =
  table metrics;
  print_endline
    (to_json
       (Obj
          [ ("correct", Bool (correct ())); ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun m ->
                     (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ]))
                   metrics) ) ]))

(* Peak resident set of this process, from /proc (0 where unavailable). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> float_of_int kb /. 1024.0
        | None -> scan ())
    in
    let v = scan () in
    close_in ic;
    v

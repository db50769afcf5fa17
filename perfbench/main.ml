(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (paper-l6, commit-l5 or serve-l5) and prints its
   settings, its correctness checks, a metric table and, as the last
   line, one JSON object.  Untraced runs report the end-to-end metrics,
   traced runs the per-layer ones.  The exit code is 1 when a check
   failed.  [serve-child] is the server process of serve-l5. *)

module Report = Perfbench.Report

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-l6|commit-l5|serve-l5 --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "serve-child" :: rest -> Serve_wl.child rest
  | _ ->
    let rec parse acc = function
      | [] -> acc
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let workload = get "workload" in
    let seed = Int64.of_string (get "seed") in
    let seconds = float_of_string (get "seconds") in
    let trace =
      match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    let run =
      match workload with
      | "paper-l6" -> Paper_wl.run
      | "commit-l5" -> Commit_wl.run
      | "serve-l5" -> Serve_wl.run
      | _ -> usage ()
    in
    let o = run ~seed ~seconds ~trace in
    if trace then begin
      let file = Filename.concat Db.run_dir (workload ^ ".spans.tsv") in
      Perfbench.Span.dump file;
      Printf.printf "spans: %d recorded, first %d written to %s\n" (Perfbench.Span.recorded ())
        (min (Perfbench.Span.recorded ()) Perfbench.Span.record_cap) file
    end;
    Report.settings
      ([ ("workload", Report.Str workload); ("seed", Report.Str (Int64.to_string seed));
         ("seconds", Report.Num seconds); ("trace", Report.Bool trace);
         ("nproc", Report.Int (Domain.recommended_domain_count ()));
         ("ocaml", Report.Str Sys.ocaml_version) ]
      @ o.Layers.settings);
    let catalogue, required =
      if trace then (Layers.per_layer, false) else (Layers.end_to_end, true)
    in
    Report.result ~attempted:o.Layers.attempted ~failed:o.Layers.failed
      (Layers.complete ~required catalogue o.Layers.values);
    exit (if Report.correct () then 0 else 1)

module Obs = Hyper_obs.Obs

let m_runs =
  Obs.Counter.make "hyper_recovery_runs_total" ~help:"recovery passes run"

let m_redone =
  Obs.Counter.make "hyper_recovery_pages_redone_total"
    ~help:"pages patched forward to a committed state"

let m_undone =
  Obs.Counter.make "hyper_recovery_pages_undone_total"
    ~help:"pages patched back over an uncommitted transaction"

type report = {
  committed : int list;
  rolled_back : int list;
  pages_redone : int;
  pages_undone : int;
}

let after_last_checkpoint entries =
  let rec strip acc = function
    | [] -> List.rev acc
    | Wal.Checkpoint :: rest -> strip [] rest
    | e :: rest -> strip (e :: acc) rest
  in
  strip [] entries

(* Patch each page in LOG ORDER: every Delta range of a committed
   transaction writes its new bytes, every range of a transaction
   without a commit record writes its old bytes, and a later record
   overwrites an earlier one.  Separate redo-then-undo passes are wrong
   here: a transaction that aborted cleanly long before the crash also
   has no commit record, and replaying its old bytes *after* the redo
   pass would clobber bytes that later committed transactions
   rewrote — its ranges are only current up to the point in the log
   where it ran.  Applying in log order makes a later committed range
   win over a stale undo, while a transaction still in flight at the
   crash (whose records end the log) is undone exactly as before.

   Patching in place is sound because transactions run one at a time:
   the last record covering a byte belongs to the last transaction that
   changed it, and carries that byte's final value (its new bytes if
   the transaction committed, the value it started from if not).  A
   byte no record covers was never changed since the log began, so
   every state of the page the data file can hold — including a write
   torn between two states — already has it right.  [read] must
   therefore skip checksum verification: a torn page has a stale
   checksum, and [write] recomputes it.

   Shared with replication: a replica replaying its received log is
   exactly this resolution over a log whose tail may lack a commit. *)
let apply_log entries ~read ~write =
  let committed = Hashtbl.create 8 in
  List.iter
    (function
      | Wal.Commit t -> Hashtbl.replace committed t ()
      | Wal.Begin _ | Wal.Delta _ | Wal.Checkpoint -> ())
    entries;
  (* page -> (patched image, whether its last record was a redo) *)
  let pages = Hashtbl.create 64 in
  List.iter
    (function
      | Wal.Delta (t, p, ranges) ->
        let img =
          match Hashtbl.find_opt pages p with
          | Some (img, _) -> img
          | None -> read p
        in
        let redo = Hashtbl.mem committed t in
        List.iter
          (fun (r : Wal.range) ->
            Page.set_sub img ~pos:r.off
              (if redo then r.new_bytes else r.old_bytes))
          ranges;
        Hashtbl.replace pages p (img, redo)
      | Wal.Begin _ | Wal.Commit _ | Wal.Checkpoint -> ())
    entries;
  let redone = ref 0 in
  let undone = ref 0 in
  Hashtbl.iter
    (fun p (img, redo) ->
      write p img;
      incr (if redo then redone else undone))
    pages;
  (!redone, !undone)

let recover ?(vfs = Vfs.real) ~wal_path pager =
  let entries = after_last_checkpoint (Wal.read_all ~vfs wal_path) in
  let committed = Hashtbl.create 8 in
  let started = Hashtbl.create 8 in
  List.iter
    (function
      | Wal.Begin t -> Hashtbl.replace started t ()
      | Wal.Commit t -> Hashtbl.replace committed t ()
      | Wal.Delta _ | Wal.Checkpoint -> ())
    entries;
  let ensure_page id =
    while Pager.page_count pager <= id do
      ignore (Pager.allocate pager)
    done
  in
  let redone, undone =
    apply_log entries
      ~read:(fun p ->
        ensure_page p;
        Pager.read_unverified pager p)
      ~write:(Pager.write pager)
  in
  Obs.Counter.incr m_runs;
  Obs.Counter.add m_redone redone;
  Obs.Counter.add m_undone undone;
  let ids tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] in
  let rolled_back =
    List.filter (fun t -> not (Hashtbl.mem committed t)) (ids started)
  in
  { committed = List.sort compare (ids committed);
    rolled_back = List.sort compare rolled_back;
    pages_redone = redone;
    pages_undone = undone }

let needs_recovery ?(vfs = Vfs.real) wal_path =
  after_last_checkpoint (Wal.read_all ~vfs wal_path) <> []

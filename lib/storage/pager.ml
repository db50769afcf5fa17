type stats = { mutable reads : int; mutable writes : int; mutable allocs : int }

type backing =
  | File of { data : Vfs.file; sums : Vfs.file }
  | Memory of { mutable pages : bytes array }
      (* capacity = Array.length pages; the pager's [count] is the used
         prefix, so growth is amortized doubling, not O(n) per alloc *)

type t = {
  backing : backing;
  mutable count : int;
  mutable on_read : int -> unit;
  mutable on_write : int -> unit;
  mutable on_read_many : (int list -> unit) option;
      (* batched-read hook; [None] falls back to [on_read] per page *)
  stats : stats;
  mutable closed : bool;
}

let no_hook (_ : int) = ()

let fresh_stats () = { reads = 0; writes = 0; allocs = 0 }

(* Each page's CRC lives in a 4-byte slot of the [.sum] sidecar.  Zero
   means "no checksum recorded" (a hole, or a pre-checksum file) and is
   accepted; a computed CRC of zero is stored as 1. *)
let sum_width = 4

let page_crc buf = match Page.checksum buf with 0 -> 1 | c -> c

let create ?(vfs = Vfs.real) path =
  let data = vfs.Vfs.open_rw path in
  let len = data.Vfs.size () in
  let count = len / Page.size in
  (* A partial page at the tail is a torn append from a crash: the
     allocation never committed, so drop it.  WAL replay re-extends the
     file if the page is mentioned by a committed transaction. *)
  if len mod Page.size <> 0 then data.Vfs.truncate (count * Page.size);
  let sums = vfs.Vfs.open_rw (path ^ ".sum") in
  (* Discard checksums beyond the data (stale sidecar, fresh file). *)
  if sums.Vfs.size () > count * sum_width then
    sums.Vfs.truncate (count * sum_width);
  { backing = File { data; sums }; count; on_read = no_hook;
    on_write = no_hook; on_read_many = None; stats = fresh_stats ();
    closed = false }

let in_memory () =
  { backing = Memory { pages = [||] }; count = 0; on_read = no_hook;
    on_write = no_hook; on_read_many = None; stats = fresh_stats ();
    closed = false }

let check_open t = if t.closed then invalid_arg "Pager: store is closed"

let check_id t id =
  if id < 0 || id >= t.count then
    invalid_arg (Printf.sprintf "Pager: page %d out of range (count %d)" id t.count)

let page_count t = t.count

let write_sum sums id buf =
  let sb = Bytes.create sum_width in
  Page.set_u32 sb 0 (page_crc buf);
  sums.Vfs.pwrite ~buf:sb ~off:(id * sum_width)

let verify_sum_value ~data id buf ~expected =
  if expected <> 0 then begin
    let actual = page_crc buf in
    if actual <> expected then
      raise
        (Storage_error.Error
           (Storage_error.Corrupt_page
              { path = data.Vfs.path; page = id; expected; actual }))
  end

let verify_sum ~data ~sums id buf =
  let sb = Bytes.create sum_width in
  sums.Vfs.pread ~buf:sb ~off:(id * sum_width);
  verify_sum_value ~data id buf ~expected:(Page.get_u32 sb 0)

let allocate t =
  check_open t;
  let id = t.count in
  t.count <- t.count + 1;
  t.stats.allocs <- t.stats.allocs + 1;
  (match t.backing with
  | File { data; sums } ->
    let zero = Page.alloc () in
    data.Vfs.pwrite ~buf:zero ~off:(id * Page.size);
    write_sum sums id zero
  | Memory m ->
    let cap = Array.length m.pages in
    if id >= cap then begin
      let grown = Array.make (max 8 (2 * cap)) Bytes.empty in
      Array.blit m.pages 0 grown 0 cap;
      m.pages <- grown
    end;
    m.pages.(id) <- Page.alloc ());
  id

(* A view is the page bytes plus an ownership flag.  [true] = freshly
   allocated, the caller may keep and mutate it.  [false] = the buffer
   aliases the backing store (Memory backend) — read-only, copy before
   mutating, never retain past the next [write]/[allocate]. *)
let read_view t id =
  check_open t;
  check_id t id;
  t.stats.reads <- t.stats.reads + 1;
  t.on_read id;
  match t.backing with
  | File { data; sums } ->
    let buf = Bytes.create Page.size in
    data.Vfs.pread ~buf ~off:(id * Page.size);
    verify_sum ~data ~sums id buf;
    (buf, true)
  | Memory m -> (m.pages.(id), false)

let read t id =
  let buf, owned = read_view t id in
  if owned then buf else Bytes.copy buf

(* Vectored read: one [pread_multi] for the page contents and one for
   their checksum slots, then per-page verification.  Statistics count
   every page; the batched hook (when installed) fires once for the
   whole group — that is what lets a remote channel charge a single
   round trip for a group fetch. *)
let read_many_views t ids =
  check_open t;
  List.iter (fun id -> check_id t id) ids;
  if ids = [] then []
  else begin
    t.stats.reads <- t.stats.reads + List.length ids;
    (match t.on_read_many with
    | Some f -> f ids
    | None -> List.iter t.on_read ids);
    match t.backing with
    | File { data; sums } ->
      let bufs = List.map (fun _ -> Bytes.create Page.size) ids in
      data.Vfs.pread_multi
        (List.map2 (fun id buf -> (buf, id * Page.size)) ids bufs);
      let sum_bufs = List.map (fun _ -> Bytes.create sum_width) ids in
      sums.Vfs.pread_multi
        (List.map2 (fun id sb -> (sb, id * sum_width)) ids sum_bufs);
      let rec verify ids bufs sbs =
        match (ids, bufs, sbs) with
        | [], [], [] -> ()
        | id :: ids, buf :: bufs, sb :: sbs ->
          verify_sum_value ~data id buf ~expected:(Page.get_u32 sb 0);
          verify ids bufs sbs
        | _ -> assert false
      in
      verify ids bufs sum_bufs;
      List.map (fun buf -> (buf, true)) bufs
    | Memory m -> List.map (fun id -> (m.pages.(id), false)) ids
  end

let read_many t ids =
  List.map
    (fun (buf, owned) -> if owned then buf else Bytes.copy buf)
    (read_many_views t ids)

let read_unverified t id =
  check_open t;
  check_id t id;
  match t.backing with
  | File { data; _ } ->
    let buf = Bytes.create Page.size in
    data.Vfs.pread ~buf ~off:(id * Page.size);
    buf
  | Memory m -> Bytes.copy m.pages.(id)

let write t id data_buf =
  check_open t;
  check_id t id;
  if Bytes.length data_buf <> Page.size then
    invalid_arg "Pager.write: buffer is not one page";
  t.stats.writes <- t.stats.writes + 1;
  t.on_write id;
  match t.backing with
  | File { data; sums } ->
    data.Vfs.pwrite ~buf:data_buf ~off:(id * Page.size);
    write_sum sums id data_buf
  (* The copy keeps the store disjoint from the caller's buffer (a pool
     frame keeps mutating its own copy after write-back).  The previous
     store buffer is replaced, not mutated — an outstanding read view
     keeps seeing the pre-write bytes, which is why views must not be
     retained across a write. *)
  | Memory m -> m.pages.(id) <- Bytes.copy data_buf

let sync t =
  check_open t;
  match t.backing with
  | File { data; sums } ->
    data.Vfs.sync ();
    sums.Vfs.sync ()
  | Memory _ -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.backing with
    | File { data; sums } ->
      data.Vfs.close ();
      sums.Vfs.close ()
    | Memory _ -> ()
  end

let set_hooks ?on_read_many t ~on_read ~on_write =
  t.on_read <- on_read;
  t.on_write <- on_write;
  t.on_read_many <- on_read_many

let clear_hooks t =
  t.on_read <- no_hook;
  t.on_write <- no_hook;
  t.on_read_many <- None

let stats t = t.stats

let reset_stats t =
  t.stats.reads <- 0;
  t.stats.writes <- 0;
  t.stats.allocs <- 0

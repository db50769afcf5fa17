module Obs = Hyper_obs.Obs

let m_appends =
  Obs.Counter.make "hyper_wal_appends_total" ~help:"log entries appended"

let m_append_bytes =
  Obs.Counter.make "hyper_wal_append_bytes_total"
    ~help:"serialized entry bytes appended (header + payload + crc)"

let m_flushes =
  Obs.Counter.make "hyper_wal_flushes_total"
    ~help:"buffered batches issued to the VFS"

let m_syncs =
  Obs.Counter.make "hyper_wal_syncs_total" ~help:"WAL durability barriers"

let h_flush_bytes =
  Obs.Histogram.make "hyper_wal_flush_bytes"
    ~help:"bytes per flushed batch (fsync batching efficacy)"

let g_size =
  Obs.Gauge.make "hyper_wal_size_bytes"
    ~help:"bytes issued to the log file since the last truncate"

type range = { off : int; old_bytes : bytes; new_bytes : bytes }

type entry =
  | Begin of int
  | Delta of int * int * range list
  | Commit of int
  | Checkpoint

(* Equal bytes between two differences that still share one range:
   splitting there would cost a 4-byte range header, more than the
   bytes saved. *)
let merge_gap = 2

let diff old_page new_page =
  let n = Bytes.length new_page in
  if Bytes.length old_page <> n then invalid_arg "Wal.diff: length mismatch";
  let same i = Bytes.unsafe_get old_page i = Bytes.unsafe_get new_page i in
  let ranges = ref [] in
  let i = ref 0 in
  while !i < n do
    (* skip an equal stretch, a word at a time where possible *)
    while
      !i + 8 <= n
      && Int64.equal (Bytes.get_int64_ne old_page !i)
           (Bytes.get_int64_ne new_page !i)
    do
      i := !i + 8
    done;
    while !i < n && same !i do
      incr i
    done;
    if !i < n then begin
      (* a range: [start, stop), [stop] one past its last differing
         byte; it closes at the first run of more than [merge_gap]
         equal bytes *)
      let start = !i in
      let stop = ref (start + 1) in
      i := !stop;
      while !i < n && !i - !stop <= merge_gap do
        if not (same !i) then stop := !i + 1;
        incr i
      done;
      let len = !stop - start in
      ranges :=
        { off = start;
          old_bytes = Bytes.sub old_page start len;
          new_bytes = Bytes.sub new_page start len }
        :: !ranges
    end
  done;
  List.rev !ranges

let whole_page old_page new_page =
  [ { off = 0; old_bytes = Bytes.copy old_page;
      new_bytes = Bytes.copy new_page } ]

type t = {
  path : string;
  file : Vfs.file;
  buf : Buffer.t; (* appended entries not yet issued to the vfs *)
  mutable issued : int; (* bytes already written to the file *)
  mutable next_lsn : int; (* sequence number of the next appended entry *)
  mutable syncs : int; (* durability barriers since open (not Obs-gated) *)
  mutable on_append : (int -> entry -> unit) option; (* stream cursor *)
}

let entry_magic = 0xA7

let kind_of = function
  | Begin _ -> 1
  | Commit _ -> 4
  | Checkpoint -> 5
  | Delta _ -> 6

(* Cheap rolling checksum — only needs to catch torn/garbled tails. *)
let checksum b =
  let h = ref 5381 in
  Bytes.iter (fun c -> h := (((!h lsl 5) + !h) + Char.code c) land 0x3FFFFFFF) b;
  !h

(* Delta payload: per range a u16 offset, a u16 length, the old bytes
   and the new bytes. *)
let range_header = 4

let payload_of = function
  | Begin _ | Commit _ | Checkpoint -> Bytes.empty
  | Delta (_, _, ranges) ->
    let size =
      List.fold_left
        (fun acc r -> acc + range_header + (2 * Bytes.length r.new_bytes))
        0 ranges
    in
    let b = Bytes.create size in
    ignore
      (List.fold_left
         (fun pos r ->
           let len = Bytes.length r.new_bytes in
           Page.set_u16 b pos r.off;
           Page.set_u16 b (pos + 2) len;
           Bytes.blit r.old_bytes 0 b (pos + range_header) len;
           Bytes.blit r.new_bytes 0 b (pos + range_header + len) len;
           pos + range_header + (2 * len))
         0 ranges);
    b

(* Inverse of [payload_of] for a Delta; [None] when the ranges do not
   tile the payload exactly or fall outside a page. *)
let ranges_of_payload b =
  let n = Bytes.length b in
  let rec go pos acc =
    if pos = n then Some (List.rev acc)
    else if pos + range_header > n then None
    else begin
      let off = Page.get_u16 b pos and len = Page.get_u16 b (pos + 2) in
      let body = pos + range_header in
      if off + len > Page.size || body + (2 * len) > n then None
      else
        go (body + (2 * len))
          ({ off; old_bytes = Bytes.sub b body len;
             new_bytes = Bytes.sub b (body + len) len }
          :: acc)
    end
  in
  go 0 []

let ids_of = function
  | Begin t -> (t, 0)
  | Commit t -> (t, 0)
  | Checkpoint -> (0, 0)
  | Delta (t, p, _) -> (t, p)

let header_bytes = 14

let encode_header e plen =
  let txn, page = ids_of e in
  let b = Bytes.create header_bytes in
  Page.set_u8 b 0 entry_magic;
  Page.set_u8 b 1 (kind_of e);
  Page.set_u32 b 2 txn;
  Page.set_u32 b 6 page;
  Page.set_u32 b 10 plen;
  b

(* The exact on-disk (and on-wire) representation of one record:
   header, payload, record CRC.  Replication ships these bytes verbatim,
   so a shipped frame carries the same per-record checksum the log file
   does. *)
let encode_entry e =
  let payload = payload_of e in
  let plen = Bytes.length payload in
  let hdr = encode_header e plen in
  let b = Bytes.create (header_bytes + plen + 4) in
  Bytes.blit hdr 0 b 0 header_bytes;
  Bytes.blit payload 0 b header_bytes plen;
  Page.set_u32 b (header_bytes + plen) (checksum payload lxor checksum hdr);
  b

(* Decode the clean prefix of [data.(0 .. len)]: entries plus the byte
   offset where decoding stopped; [pos < len] means a torn or garbled
   tail. *)
let decode_prefix data len =
  let entries = ref [] in
  let pos = ref 0 in
  let ok = ref true in
  while !ok && !pos + 18 <= len do
    let hdr = !pos in
    if Page.get_u8 data hdr <> entry_magic then ok := false
    else begin
      let kind = Page.get_u8 data (hdr + 1) in
      let txn = Page.get_u32 data (hdr + 2) in
      let page = Page.get_u32 data (hdr + 6) in
      let plen = Page.get_u32 data (hdr + 10) in
      if hdr + 14 + plen + 4 > len then ok := false
      else begin
        let payload = Bytes.sub data (hdr + 14) plen in
        let crc = Page.get_u32 data (hdr + 14 + plen) in
        if crc <> checksum payload lxor checksum (Bytes.sub data hdr 14) then
          ok := false
        else
          let entry =
            match kind with
            | 1 -> Some (Begin txn)
            | 4 -> Some (Commit txn)
            | 5 -> Some Checkpoint
            | 6 ->
              Option.map
                (fun ranges -> Delta (txn, page, ranges))
                (ranges_of_payload payload)
            | _ -> None
          in
          match entry with
          | Some e ->
            entries := e :: !entries;
            pos := hdr + 14 + plen + 4
          | None -> ok := false
      end
    end
  done;
  (List.rev !entries, !pos)

let decode_entries b =
  let entries, pos = decode_prefix b (Bytes.length b) in
  (entries, pos < Bytes.length b)

(* A torn final record — a crash mid-append — must be truncated away at
   open: appending past it would bury live records behind garbage that
   every subsequent read stops at.  This is load-bearing for replication
   (a replica's received log is reopened after a replica crash and then
   appended to), and harmless for the engine (which truncates the log
   right after recovery anyway). *)
let open_ ?(vfs = Vfs.real) path =
  let file = vfs.Vfs.open_rw path in
  let len = file.Vfs.size () in
  let clean =
    if len = 0 then 0
    else begin
      let data = Bytes.create len in
      file.Vfs.pread ~buf:data ~off:0;
      let _, pos = decode_prefix data len in
      pos
    end
  in
  if clean < len then file.Vfs.truncate clean;
  { path; file; buf = Buffer.create 4096; issued = clean; next_lsn = 0;
    syncs = 0; on_append = None }

let lsn t = t.next_lsn
let set_on_append t hook = t.on_append <- hook

let append t e =
  (* Encode straight into the append buffer: one blit of the payload
     instead of encode-into-scratch plus a second whole-record copy.
     Byte-for-byte identical to [encode_entry]. *)
  let payload = payload_of e in
  let plen = Bytes.length payload in
  let hdr = encode_header e plen in
  Buffer.add_bytes t.buf hdr;
  Buffer.add_bytes t.buf payload;
  let crc = Bytes.create 4 in
  Page.set_u32 crc 0 (checksum payload lxor checksum hdr);
  Buffer.add_bytes t.buf crc;
  let size = header_bytes + plen + 4 in
  Obs.Counter.incr m_appends;
  Obs.Counter.add m_append_bytes size;
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  match t.on_append with None -> () | Some f -> f lsn e

(* Issue the buffered suffix to the vfs.  This is the point where WAL
   bytes enter the (possibly simulated) OS — write-ahead ordering is
   established by flushing before the corresponding page writes. *)
let flush t =
  if Buffer.length t.buf > 0 then begin
    let b = Buffer.to_bytes t.buf in
    t.file.Vfs.pwrite ~buf:b ~off:t.issued;
    t.issued <- t.issued + Bytes.length b;
    Buffer.clear t.buf;
    Obs.Counter.incr m_flushes;
    Obs.Histogram.observe h_flush_bytes (float_of_int (Bytes.length b));
    Obs.Gauge.set g_size (float_of_int t.issued)
  end

let sync t =
  flush t;
  t.syncs <- t.syncs + 1;
  Obs.Counter.incr m_syncs;
  t.file.Vfs.sync ()

(* Durability barrier only, no buffer access: the group-commit leader
   fsyncs on behalf of committers that each flushed their own bytes
   before registering, so this must not touch [t.buf] (another thread
   may be appending its next transaction concurrently). *)
let sync_file t =
  t.syncs <- t.syncs + 1;
  Obs.Counter.incr m_syncs;
  t.file.Vfs.sync ()

let sync_count t = t.syncs

let truncate t =
  Buffer.clear t.buf;
  t.file.Vfs.truncate 0;
  t.issued <- 0

let size_bytes t = t.issued + Buffer.length t.buf

let close t =
  (* Try to issue what is buffered, but never let a full disk turn close
     into a crash loop; simulated power failures still propagate. *)
  (try flush t with Storage_error.Error _ -> Buffer.clear t.buf);
  t.file.Vfs.close ()

type scan_result = { entries : entry list; clean_bytes : int; torn : bool }

let scan ?(vfs = Vfs.real) path =
  if not (vfs.Vfs.exists path) then
    { entries = []; clean_bytes = 0; torn = false }
  else begin
    let file = vfs.Vfs.open_rw path in
    let len = file.Vfs.size () in
    let data = Bytes.create len in
    if len > 0 then file.Vfs.pread ~buf:data ~off:0;
    file.Vfs.close ();
    let entries, pos = decode_prefix data len in
    { entries; clean_bytes = pos; torn = pos < len }
  end

let read_all ?(vfs = Vfs.real) path = (scan ~vfs path).entries

let entry_to_string = function
  | Begin t -> Printf.sprintf "begin(%d)" t
  | Delta (t, p, ranges) ->
    Printf.sprintf "delta(%d, page %d, %d ranges, %d bytes)" t p
      (List.length ranges)
      (List.fold_left (fun acc r -> acc + Bytes.length r.new_bytes) 0 ranges)
  | Commit t -> Printf.sprintf "commit(%d)" t
  | Checkpoint -> "checkpoint"

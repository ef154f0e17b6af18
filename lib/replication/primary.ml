exception Replication_error of string

let error fmt = Format.kasprintf (fun s -> raise (Replication_error s)) fmt

type t = {
  db : Durability.Db.t;
  frame_bytes : int;
  digest_every : int;
  mutable next_seq : int;
  mutable sent : (int * Frame.t) list;  (* unacked, newest first *)
  mutable resend_from : int option;
  mutable shipped_gen : int;  (* 0 = nothing shipped yet *)
  mutable shipped_off : int;
  (* Incremental committed-prefix tracking of our own log: feed only the
     file's new bytes, never rescan history. *)
  mutable scanner : Durability.Wal.Scanner.t;
  mutable scan_gen : int;
  mutable read_off : int;
  mutable committed : int;
  mutable data_since_digest : int;
}

let create ?(frame_bytes = 4096) ?(digest_every = 8) db =
  if frame_bytes < 1 then invalid_arg "Primary.create: frame_bytes < 1";
  {
    db;
    frame_bytes;
    digest_every;
    next_seq = 0;
    sent = [];
    resend_from = None;
    shipped_gen = 0;
    shipped_off = 0;
    scanner = Durability.Wal.Scanner.create ();
    scan_gen = 0;
    read_off = 0;
    committed = 0;
    data_since_digest = 0;
  }

let db t = t.db
let next_seq t = t.next_seq
let committed_bytes t = t.committed
let unacked t = List.length t.sent
let resending t = Option.is_some t.resend_from
let lag t = max 0 (t.committed - t.shipped_off)

(* Refresh the committed watermark from our own log file and return the
   file's full contents (the shipping loop slices frames out of it). *)
let refresh t =
  let gen = Durability.Db.generation t.db in
  if gen <> t.scan_gen then begin
    t.scanner <- Durability.Wal.Scanner.create ();
    t.scan_gen <- gen;
    t.read_off <- 0
  end;
  let text =
    Durability.Fault.read_all (Durability.Db.wal_file (Durability.Db.dir t.db) gen)
  in
  let len = String.length text in
  if len > t.read_off then begin
    (try
       Durability.Wal.Scanner.feed t.scanner
         (String.sub text t.read_off (len - t.read_off))
     with Durability.Wal.Scanner.Bad_record { recno; off } ->
       error "primary log %d corrupt at record %d (byte %d)" gen recno off);
    ignore (Durability.Wal.Scanner.take_groups t.scanner);
    t.read_off <- len
  end;
  t.committed <- Durability.Wal.Scanner.committed_bytes t.scanner;
  text

(* Assign a sequence number, remember the frame for rewind, ship it.
   If the channel refuses (partition), the frame is already buffered:
   arm the resend pointer so a later ship retries it. *)
let send_frame t ch payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let f = { Frame.seq; payload } in
  t.sent <- (seq, f) :: t.sent;
  try Channel.send ch f
  with e ->
    t.resend_from <-
      Some (match t.resend_from with Some r -> min r seq | None -> seq);
    raise e

let resend t ch =
  match t.resend_from with
  | None -> 0
  | Some from ->
    let pending =
      List.filter (fun (s, _) -> s >= from) t.sent
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let n = ref 0 in
    List.iter
      (fun (s, f) ->
        (* If this send raises, resume exactly here next time. *)
        t.resend_from <- Some s;
        Channel.send ch f;
        incr n)
      pending;
    t.resend_from <- None;
    !n

let ship_digest t ch =
  (* A digest asserts "my store equals the committed prefix ending at
     [off]" — only true outside an open transaction, i.e. when the
     scanner has no pending records past the committed point. *)
  if Durability.Wal.Scanner.pending_records t.scanner = 0 && t.shipped_gen > 0
  then begin
    let specs = Durability.Db.asr_specs t.db in
    let asrs = Durability.Db.asrs t.db in
    let asr_crcs =
      List.map2
        (fun spec a -> (Durability.Db.spec_to_string spec, Digest.of_asr a))
        specs asrs
    in
    send_frame t ch
      (Frame.Digest_frame
         {
           gen = t.shipped_gen;
           off = t.committed;
           store_crc = Digest.store (Durability.Db.store t.db);
           asr_crcs;
         });
    t.data_since_digest <- 0;
    true
  end
  else false

let ship t ch =
  let n = ref 0 in
  n := resend t ch;
  let gen = Durability.Db.generation t.db in
  let text = refresh t in
  if gen <> t.shipped_gen then begin
    (* Generation rotated under the replica (or nothing shipped yet):
       re-seed it with the checkpoint image; the log restarts at 0. *)
    let snapshot =
      Durability.Fault.read_all
        (Durability.Db.snapshot_file (Durability.Db.dir t.db) gen)
    in
    if snapshot = "" then error "generation %d snapshot missing" gen;
    let specs =
      List.map Durability.Db.spec_to_string (Durability.Db.asr_specs t.db)
    in
    send_frame t ch (Frame.Reset { gen; snapshot; specs });
    incr n;
    t.shipped_gen <- gen;
    t.shipped_off <- 0;
    t.data_since_digest <- 0
  end;
  if t.shipped_off > t.committed then
    error "replica claims offset %d past our committed prefix %d" t.shipped_off
      t.committed;
  while t.shipped_off < t.committed do
    let len = min t.frame_bytes (t.committed - t.shipped_off) in
    let bytes = String.sub text t.shipped_off len in
    let off = t.shipped_off in
    (* Advance first: the frame owns these bytes now — if the send is
       refused, the armed resend pointer retries the buffered frame. *)
    t.shipped_off <- t.shipped_off + len;
    t.data_since_digest <- t.data_since_digest + 1;
    send_frame t ch (Frame.Wal_slice { gen; off; bytes });
    incr n
  done;
  (* Digests assert the state at the committed offset, so they may only
     ride behind a fully shipped prefix — never between its slices. *)
  if
    t.digest_every > 0
    && t.data_since_digest >= t.digest_every
    && t.shipped_off = t.committed
  then if ship_digest t ch then incr n;
  !n

let attach t ~gen ~off =
  (* The replica's durable byte offset is the authority on what it
     holds; any frames buffered for a previous connection describe
     stale slices and must not resend over the fresh stream. *)
  t.sent <- [];
  t.resend_from <- None;
  if gen > 0 && gen = Durability.Db.generation t.db then begin
    t.shipped_gen <- gen;
    t.shipped_off <- off
  end

let ack t ~seq = t.sent <- List.filter (fun (s, _) -> s > seq) t.sent

let rewind t ~seq =
  if List.exists (fun (s, _) -> s >= seq) t.sent then
    t.resend_from <-
      Some (match t.resend_from with Some r -> min r seq | None -> seq)

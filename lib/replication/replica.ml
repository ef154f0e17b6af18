exception Replica_error of string

let error fmt = Format.kasprintf (fun s -> raise (Replica_error s)) fmt
let marker_file dir = Filename.concat dir "REPLICA"
let marker_header = "asr-replica v1"

let read_all path =
  if not (Sys.file_exists path) then ""
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))

type state = {
  rs_store : Gom.Store.t;
  rs_heap : Storage.Heap.t;
  rs_mgr : Core.Maintenance.t;
  rs_source : Parallel.Snapshot.source;
  rs_specs : Durability.Db.spec list;
  mutable rs_snap : Parallel.Snapshot.t;
}

type t = {
  r_dir : string;
  fault : Durability.Fault.t;
  stats : Storage.Stats.t option;
  policy : Core.Maintenance.flush_policy;
  publish_every : int;
  mutable gen : int;  (* 0 = never seeded *)
  mutable expected_seq : int;
  mutable wal_bytes : int;  (* bytes accepted into our log copy *)
  mutable applied_off : int;  (* committed bytes replayed into the store *)
  mutable applied_records : int;
  mutable scanner : Durability.Wal.Scanner.t;
  mutable wal_out : Durability.Fault.file option;
  mutable state : state option;
  mutable watermark : int;  (* primary's committed bytes, as last heard *)
  mutable r_diverged : string option;
  mutable epochs : int;
  mutable applies_since_publish : int;
  mutable closed : bool;
}

type reject =
  | Bad_frame of { at : int; reason : string }
  | Stale of { expected : int; got : int }
  | Gap of { expected : int; got : int }
  | Wrong_gen of { expected : int; got : int }
  | Misaligned of { expected : int; got : int }
  | Diverged of { off : int; what : string }

type outcome = Applied of { groups : int; records : int } | Rejected of reject

let reject_to_string = function
  | Bad_frame { at; reason } ->
    Printf.sprintf "damaged frame (at byte %d: %s)" at reason
  | Stale { expected; got } ->
    Printf.sprintf "stale frame %d (expecting %d)" got expected
  | Gap { expected; got } ->
    Printf.sprintf "sequence gap: got %d, expecting %d" got expected
  | Wrong_gen { expected; got } ->
    Printf.sprintf "wrong generation %d (replica holds %d)" got expected
  | Misaligned { expected; got } ->
    Printf.sprintf "misaligned slice at byte %d (log stands at %d)" got expected
  | Diverged { off; what } ->
    Printf.sprintf "diverged at byte %d: %s" off what

let write_marker t =
  Durability.Db.atomic_write (marker_file t.r_dir)
    (Printf.sprintf "%s\ngen %d\n" marker_header t.gen)

let build_state t store specs =
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  let mgr = Core.Maintenance.create (Core.Exec.make store heap) in
  Core.Maintenance.set_policy mgr t.policy;
  let snap_specs =
    List.map
      (fun spec ->
        let path, kind, dec = Durability.Db.spec_components store spec in
        {
          Parallel.Snapshot.sp_path = path;
          sp_kind = kind;
          sp_decomposition = dec;
        })
      specs
  in
  let source =
    Parallel.Snapshot.source ~maintenance:mgr ~specs:snap_specs store
  in
  let snap = Parallel.Snapshot.advance source in
  t.epochs <- t.epochs + 1;
  { rs_store = store; rs_heap = heap; rs_mgr = mgr; rs_source = source;
    rs_specs = specs; rs_snap = snap }

(* Detach a state's listeners from its store: on reseeding, and on
   close, where the state stays readable. *)
let close_state t =
  Option.iter
    (fun st ->
      Parallel.Snapshot.close_source st.rs_source;
      Core.Maintenance.close st.rs_mgr;
      Storage.Heap.close st.rs_heap)
    t.state

let open_wal t =
  (match t.wal_out with
  | Some f -> ( try Durability.Fault.close f with Sys_error _ -> ())
  | None -> ());
  t.wal_out <-
    Some
      (Durability.Fault.open_append t.fault
         (Durability.Db.wal_file t.r_dir t.gen))

(* Resume from our own files: load the generation snapshot, chop the
   local log back to its last intact record — a torn tail from a
   mid-frame kill is damage, but intact records of a still-open span
   are kept, because the next shipped slice completes them — and
   replay the committed prefix.  ASRs rebuild from the manifest specs,
   exactly like crash recovery of a durable base. *)
let resume t =
  let gen, specs = Durability.Db.read_manifest t.r_dir in
  let snap_path = Durability.Db.snapshot_file t.r_dir gen in
  if not (Sys.file_exists snap_path) then
    error "replica %s: generation %d snapshot missing" t.r_dir gen;
  let store =
    try Gom.Serial.store_of_string (read_all snap_path)
    with Gom.Serial.Corrupt m -> error "replica snapshot %d: %s" gen m
  in
  let wal_path = Durability.Db.wal_file t.r_dir gen in
  let scanned = Durability.Wal.scan wal_path in
  if scanned.Durability.Wal.total_bytes > scanned.Durability.Wal.valid_bytes
  then Unix.truncate wal_path scanned.Durability.Wal.valid_bytes;
  let text = read_all wal_path in
  let scanner = Durability.Wal.Scanner.create () in
  (try Durability.Wal.Scanner.feed scanner text
   with Durability.Wal.Scanner.Bad_record { recno; off } ->
     error "replica log %d corrupt at record %d (byte %d)" gen recno off);
  let groups = Durability.Wal.Scanner.take_groups scanner in
  let records = ref 0 in
  List.iter
    (fun g ->
      match Durability.Wal.replay store g.Durability.Wal.Scanner.g_records with
      | n -> records := !records + n
      | exception Durability.Wal.Replay_error m ->
        error "replica log %d: %s" gen m)
    groups;
  t.gen <- gen;
  t.scanner <- scanner;
  t.wal_bytes <- String.length text;
  t.applied_off <- Durability.Wal.Scanner.committed_bytes scanner;
  t.applied_records <- !records;
  close_state t;
  t.state <- Some (build_state t store specs);
  open_wal t

let create ?fault ?stats ?(policy = Core.Maintenance.Every_k_events 32)
    ?(publish_every = 1) ~dir () =
  if publish_every < 1 then invalid_arg "Replica.create: publish_every < 1";
  let fault = match fault with Some f -> f | None -> Durability.Fault.real () in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let t =
    {
      r_dir = dir;
      fault;
      stats;
      policy;
      publish_every;
      gen = 0;
      expected_seq = 0;
      wal_bytes = 0;
      applied_off = 0;
      applied_records = 0;
      scanner = Durability.Wal.Scanner.create ();
      wal_out = None;
      state = None;
      watermark = 0;
      r_diverged = None;
      epochs = 0;
      applies_since_publish = 0;
      closed = false;
    }
  in
  let has_marker = Sys.file_exists (marker_file dir) in
  let has_manifest = Sys.file_exists (Durability.Db.manifest_file dir) in
  if has_manifest && not has_marker then
    error "%s holds a durable base, not a replica (no REPLICA marker)" dir;
  if has_manifest then resume t else write_marker t;
  t

(* ---------------- the apply path ---------------- *)

exception Bail of reject

let note t c = match t.stats with Some s -> Storage.Stats.incr s c | None -> ()

let diverge t ~off what =
  t.r_diverged <- Some (Printf.sprintf "byte %d: %s" off what);
  raise (Bail (Diverged { off; what }))

let publish t st =
  st.rs_snap <- Parallel.Snapshot.advance st.rs_source;
  t.epochs <- t.epochs + 1;
  t.applies_since_publish <- 0

let apply_reset t ~gen ~snapshot ~specs =
  if gen < t.gen then raise (Bail (Wrong_gen { expected = t.gen; got = gen }));
  let store =
    try Gom.Serial.store_of_string snapshot
    with Gom.Serial.Corrupt m ->
      raise (Bail (Bad_frame { at = 0; reason = "reset snapshot: " ^ m }))
  in
  let specs =
    List.map
      (fun line ->
        match Durability.Db.spec_of_string line with
        | Some s -> s
        | None ->
          raise
            (Bail (Bad_frame { at = 0; reason = "reset spec: " ^ line })))
      specs
  in
  let old_gen = t.gen in
  (* Materialise the new generation on disk before adopting it: the raw
     snapshot bytes (byte-identical to the primary's file), the
     manifest, an empty log. *)
  Durability.Db.atomic_write (Durability.Db.snapshot_file t.r_dir gen) snapshot;
  (try Sys.remove (Durability.Db.wal_file t.r_dir gen) with Sys_error _ -> ());
  Durability.Db.write_manifest t.r_dir gen specs;
  t.gen <- gen;
  write_marker t;
  if old_gen > 0 && old_gen <> gen then begin
    (try Sys.remove (Durability.Db.snapshot_file t.r_dir old_gen)
     with Sys_error _ -> ());
    (try Sys.remove (Durability.Db.wal_file t.r_dir old_gen)
     with Sys_error _ -> ())
  end;
  t.scanner <- Durability.Wal.Scanner.create ();
  t.wal_bytes <- 0;
  t.applied_off <- 0;
  t.applied_records <- 0;
  t.applies_since_publish <- 0;
  close_state t;
  t.state <- Some (build_state t store specs);
  open_wal t

let apply_slice t st ~gen ~off ~bytes =
  if gen <> t.gen then
    raise (Bail (Wrong_gen { expected = t.gen; got = gen }));
  if off <> t.wal_bytes then
    raise (Bail (Misaligned { expected = t.wal_bytes; got = off }));
  let file =
    match t.wal_out with
    | Some f -> f
    | None -> error "replica %s: no open log" t.r_dir
  in
  (* The verified bytes are durable before they are applied — a replica
     killed mid-apply recovers from its own files like any durable
     base.  [Fault.write] is where a crash-sweep plan fires. *)
  Durability.Fault.write file bytes;
  Durability.Fault.sync file;
  t.wal_bytes <- t.wal_bytes + String.length bytes;
  (try Durability.Wal.Scanner.feed t.scanner bytes
   with Durability.Wal.Scanner.Bad_record { recno; off } ->
     (* The frame's CRC held, so the damage is inside committed bytes
        the primary itself shipped: that is divergence, not transport
        noise. *)
     diverge t ~off (Printf.sprintf "record %d fails its frame check" recno));
  let groups = Durability.Wal.Scanner.take_groups t.scanner in
  let records = ref 0 in
  List.iter
    (fun g ->
      (match Durability.Wal.replay st.rs_store g.Durability.Wal.Scanner.g_records with
      | n -> records := !records + n
      | exception Durability.Wal.Replay_error m ->
        diverge t ~off:g.Durability.Wal.Scanner.g_end
          ("committed group does not replay: " ^ m));
      (* Mirror the primary's maintenance flush barriers, so the
         deferred-delta cadence tracks the primary's rather than
         drifting on its own. *)
      if
        List.exists
          (function Durability.Wal.Flush _ -> true | _ -> false)
          g.Durability.Wal.Scanner.g_records
      then ignore (Core.Maintenance.flush_all st.rs_mgr))
    groups;
  t.applied_off <- Durability.Wal.Scanner.committed_bytes t.scanner;
  t.applied_records <- t.applied_records + !records;
  if groups <> [] then begin
    t.applies_since_publish <- t.applies_since_publish + 1;
    if t.applies_since_publish >= t.publish_every then publish t st
  end;
  (List.length groups, !records)

let apply_digest t st ~gen ~off ~store_crc ~asr_crcs =
  if gen <> t.gen then
    raise (Bail (Wrong_gen { expected = t.gen; got = gen }));
  t.watermark <- max t.watermark off;
  if off > t.applied_off then
    raise (Bail (Misaligned { expected = t.applied_off; got = off }));
  if off = t.applied_off then begin
    let mine = Digest.store st.rs_store in
    if not (Int32.equal mine store_crc) then
      diverge t ~off
        (Printf.sprintf "store digest %s, primary says %s" (Digest.to_hex mine)
           (Digest.to_hex store_crc));
    let indexes = Parallel.Snapshot.source_indexes st.rs_source in
    let mine_by_spec =
      List.map2
        (fun spec a -> (Durability.Db.spec_to_string spec, a))
        st.rs_specs indexes
    in
    List.iter
      (fun (spec, theirs) ->
        match List.assoc_opt spec mine_by_spec with
        | None -> diverge t ~off (Printf.sprintf "no such asr: %s" spec)
        | Some a ->
          let mine = Digest.of_asr a in
          if not (Int32.equal mine theirs) then
            diverge t ~off
              (Printf.sprintf "asr %s digest %s, primary says %s" spec
                 (Digest.to_hex mine) (Digest.to_hex theirs)))
      asr_crcs
  end
  (* [off < applied_off]: a digest resent after a rewind refers to a
     boundary we already moved past; there is nothing to check it
     against, and the in-sequence copy was checked when it applied. *)

let offer t encoded =
  if t.closed then error "replica %s: closed" t.r_dir;
  let result =
    try
      (match t.r_diverged with
      | Some what -> raise (Bail (Diverged { off = t.applied_off; what }))
      | None -> ());
      match Frame.decode encoded with
      | Error { at; reason } -> raise (Bail (Bad_frame { at; reason }))
      | Ok { seq; payload } ->
        if seq < t.expected_seq then
          raise (Bail (Stale { expected = t.expected_seq; got = seq }));
        if seq > t.expected_seq then
          raise (Bail (Gap { expected = t.expected_seq; got = seq }));
        let groups, records =
          match payload with
          | Frame.Reset { gen; snapshot; specs } ->
            apply_reset t ~gen ~snapshot ~specs;
            (0, 0)
          | Frame.Wal_slice { gen; off; bytes } -> (
            match t.state with
            | None -> raise (Bail (Wrong_gen { expected = 0; got = gen }))
            | Some st -> apply_slice t st ~gen ~off ~bytes)
          | Frame.Digest_frame { gen; off; store_crc; asr_crcs } -> (
            match t.state with
            | None -> raise (Bail (Wrong_gen { expected = 0; got = gen }))
            | Some st ->
              apply_digest t st ~gen ~off ~store_crc ~asr_crcs;
              (0, 0))
        in
        t.expected_seq <- t.expected_seq + 1;
        Applied { groups; records }
    with Bail r -> Rejected r
  in
  (match result with
  | Applied _ -> note t Storage.Stats.Frames_applied
  | Rejected _ -> note t Storage.Stats.Frames_retried);
  result

(* ---------------- observation ---------------- *)

let dir t = t.r_dir
let generation t = t.gen
let expected_seq t = t.expected_seq

(* Sequence numbers are per-connection, not durable: a resumed replica
   (or a long-lived primary meeting a fresh replica) adopts the
   primary's counter at attach and relies on byte offsets — which ARE
   durable — to guard against misdirected slices. *)
let expect t ~seq = t.expected_seq <- seq
let wal_bytes t = t.wal_bytes
let applied_bytes t = t.applied_off
let applied_records t = t.applied_records
let diverged t = t.r_diverged
let epochs t = t.epochs
let note_watermark t bytes = t.watermark <- max t.watermark bytes
let lag_bytes t = max 0 (t.watermark - t.applied_off)
let seeded t = Option.is_some t.state

let store t =
  match t.state with
  | Some st -> st.rs_store
  | None -> error "replica %s: not seeded yet" t.r_dir

let asrs t =
  match t.state with
  | Some st -> Parallel.Snapshot.source_indexes st.rs_source
  | None -> []

let snapshot t = Option.map (fun st -> st.rs_snap) t.state

let flush_maintenance t =
  match t.state with
  | Some st -> Core.Maintenance.flush_all st.rs_mgr
  | None -> 0

let env ?deadline ?max_lag_bytes t =
  match t.state with
  | None -> Error `Unseeded
  | Some st -> (
    let lag = lag_bytes t in
    match max_lag_bytes with
    | Some m when lag > m -> Error (`Lagging lag)
    | _ -> Ok (Parallel.Snapshot.env ?deadline st.rs_snap))

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_state t;
    match t.wal_out with
    | Some f ->
      t.wal_out <- None;
      Durability.Fault.close f
    | None -> ()
  end

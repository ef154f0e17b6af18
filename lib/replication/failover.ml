type divergence =
  | Log_prefix_mismatch of { byte : int }
  | Log_beyond_primary of { bytes : int; primary_bytes : int }
  | Generation_skew of { replica_gen : int; primary_gen : int }
  | Snapshot_mismatch of { gen : int }
  | Store_digest_mismatch of { off : int; expected : string; actual : string }
  | Asr_digest_mismatch of {
      spec : string;
      off : int;
      expected : string;
      actual : string;
    }
  | Asr_rebuild_failed of { spec : string }
  | Scrub_divergences of { spec : string; count : int; first : string }
  | Primary_unreadable of { what : string }

let divergence_to_string = function
  | Log_prefix_mismatch { byte } ->
    Printf.sprintf "log prefix mismatch at byte %d: replica log is not a prefix of the primary's"
      byte
  | Log_beyond_primary { bytes; primary_bytes } ->
    Printf.sprintf
      "replica log holds %d committed bytes but the primary only has %d" bytes
      primary_bytes
  | Generation_skew { replica_gen; primary_gen } ->
    Printf.sprintf
      "generation skew: replica holds %d, primary checkpoint is %d (history unverifiable)"
      replica_gen primary_gen
  | Snapshot_mismatch { gen } ->
    Printf.sprintf "generation %d snapshot differs from the primary's" gen
  | Store_digest_mismatch { off; expected; actual } ->
    Printf.sprintf
      "store digest %s at committed byte %d, primary prefix digests to %s"
      actual off expected
  | Asr_digest_mismatch { spec; off; expected; actual } ->
    Printf.sprintf
      "asr %s digest %s at committed byte %d, primary prefix digests to %s"
      spec actual off expected
  | Asr_rebuild_failed { spec } ->
    Printf.sprintf "asr %s rebuilt from the recovered base failed verification"
      spec
  | Scrub_divergences { spec; count; first } ->
    Printf.sprintf "asr %s: %d scrub divergence(s), first: %s" spec count first
  | Primary_unreadable { what } ->
    Printf.sprintf "primary files unreadable for verification: %s" what

type report = {
  f_dir : string;
  f_generation : int;
  f_recovery : Durability.Db.report;
  f_committed_bytes : int;
  f_store_digest : string;
  f_asr_digests : (string * string) list;
  f_checked_against : string option;
  f_divergences : divergence list;
}

let promoted r = r.f_divergences = []

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "promotion of %s (generation %d): %s\n" r.f_dir
       r.f_generation
       (if promoted r then "clean" else "DIVERGED"));
  Buffer.add_string b
    (Printf.sprintf
       "  replayed %d records, truncated %d bytes, committed prefix %d bytes\n"
       r.f_recovery.Durability.Db.records_replayed
       r.f_recovery.Durability.Db.bytes_truncated r.f_committed_bytes);
  Buffer.add_string b (Printf.sprintf "  store digest %s\n" r.f_store_digest);
  List.iter
    (fun (spec, d) -> Buffer.add_string b (Printf.sprintf "  asr %s digest %s\n" spec d))
    r.f_asr_digests;
  (match r.f_checked_against with
  | Some p -> Buffer.add_string b (Printf.sprintf "  verified against %s\n" p)
  | None -> Buffer.add_string b "  no primary to verify against\n");
  List.iter
    (fun d -> Buffer.add_string b ("  divergence: " ^ divergence_to_string d ^ "\n"))
    r.f_divergences;
  Buffer.contents b

let report_to_json r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"dir\": %S, \"generation\": %d, \"promoted\": %b, \
        \"records_replayed\": %d, \"bytes_truncated\": %d, \
        \"committed_bytes\": %d, \"store_digest\": %S, \"asr_digests\": {"
       r.f_dir r.f_generation (promoted r)
       r.f_recovery.Durability.Db.records_replayed
       r.f_recovery.Durability.Db.bytes_truncated r.f_committed_bytes
       r.f_store_digest);
  List.iteri
    (fun i (spec, d) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "%S: %S" spec d))
    r.f_asr_digests;
  Buffer.add_string b "}, \"checked_against\": ";
  (match r.f_checked_against with
  | Some p -> Buffer.add_string b (Printf.sprintf "%S" p)
  | None -> Buffer.add_string b "null");
  Buffer.add_string b ", \"divergences\": [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "%S" (divergence_to_string d)))
    r.f_divergences;
  Buffer.add_string b "]}";
  Buffer.contents b

(* Rebuild the state the primary's own files describe at [prefix_len]
   committed bytes: its snapshot plus the replay of that log prefix.
   The replica's byte-for-byte prefix equality has already been
   checked, so any digest difference below indicts the replica's
   {e materialisation} of the history (snapshot rot, replay or
   maintenance defect), not the history itself. *)
let reconstruct_prefix ~snapshot ~log ~prefix_len =
  let store = Gom.Serial.store_of_string snapshot in
  let scanner = Durability.Wal.Scanner.create () in
  Durability.Wal.Scanner.feed scanner (String.sub log 0 prefix_len);
  List.iter
    (fun g ->
      ignore
        (Durability.Wal.replay store g.Durability.Wal.Scanner.g_records))
    (Durability.Wal.Scanner.take_groups scanner);
  store

let check_against_primary ~dir ~pdir db divs =
  let gen = Durability.Db.generation db in
  let pgen, _ = Durability.Db.read_manifest pdir in
  if pgen <> gen then
    divs := Generation_skew { replica_gen = gen; primary_gen = pgen } :: !divs
  else begin
    let psnap = Durability.Fault.read_all (Durability.Db.snapshot_file pdir gen) in
    let rsnap = Durability.Fault.read_all (Durability.Db.snapshot_file dir gen) in
    if psnap <> rsnap then divs := Snapshot_mismatch { gen } :: !divs;
    let plog = Durability.Fault.read_all (Durability.Db.wal_file pdir gen) in
    let rlog = Durability.Fault.read_all (Durability.Db.wal_file dir gen) in
    let rlen = String.length rlog and plen = String.length plog in
    if rlen > plen then
      divs := Log_beyond_primary { bytes = rlen; primary_bytes = plen } :: !divs
    else begin
      let diff = ref None in
      (try
         for i = 0 to rlen - 1 do
           if rlog.[i] <> plog.[i] then begin
             diff := Some i;
             raise Exit
           end
         done
       with Exit -> ());
      match !diff with
      | Some byte -> divs := Log_prefix_mismatch { byte } :: !divs
      | None ->
        if psnap = rsnap && psnap <> "" then begin
          match
            reconstruct_prefix ~snapshot:psnap ~log:plog ~prefix_len:rlen
          with
          | exception Gom.Serial.Corrupt m ->
            divs := Primary_unreadable { what = "snapshot: " ^ m } :: !divs
          | exception Durability.Wal.Scanner.Bad_record { recno; off } ->
            divs :=
              Primary_unreadable
                {
                  what =
                    Printf.sprintf "log record %d (byte %d) fails its frame check"
                      recno off;
                }
              :: !divs
          | exception Durability.Wal.Replay_error m ->
            divs := Primary_unreadable { what = "log replay: " ^ m } :: !divs
          | pstore ->
            let expected = Digest.store pstore in
            let actual = Digest.store (Durability.Db.store db) in
            if not (Int32.equal expected actual) then
              divs :=
                Store_digest_mismatch
                  {
                    off = rlen;
                    expected = Digest.to_hex expected;
                    actual = Digest.to_hex actual;
                  }
                :: !divs;
            List.iter2
              (fun spec a ->
                let path, kind, _ = Durability.Db.spec_components pstore spec in
                let expected =
                  Digest.extension (Core.Extension.compute pstore path kind)
                in
                let actual = Digest.of_asr a in
                if not (Int32.equal expected actual) then
                  divs :=
                    Asr_digest_mismatch
                      {
                        spec = Durability.Db.spec_to_string spec;
                        off = rlen;
                        expected = Digest.to_hex expected;
                        actual = Digest.to_hex actual;
                      }
                    :: !divs)
              (Durability.Db.asr_specs db)
              (Durability.Db.asrs db)
        end
    end
  end

let promote ?primary_dir ~dir () =
  if not (Sys.file_exists (Replica.marker_file dir)) then
    raise
      (Replica.Replica_error
         (dir ^ ": no REPLICA marker — refusing to promote a non-replica"));
  (* Step 1 is literally crash recovery: chop the torn tail to the
     committed prefix, replay it, rebuild every registered ASR and
     verify each against a from-scratch extension computation. *)
  let db = Durability.Db.open_ ~dir () in
  let recovery =
    match Durability.Db.last_recovery db with
    | Some r -> r
    | None -> assert false
  in
  let divs = ref [] in
  List.iter
    (fun (spec, ok) ->
      if not ok then divs := Asr_rebuild_failed { spec } :: !divs)
    recovery.Durability.Db.asr_checks;
  (* Step 2: scrubber audit of every partition tree, refcounts
     included — rebuild verification plus physical-layout audit. *)
  List.iter2
    (fun spec a ->
      let r = Integrity.Scrub.run a in
      if not (Integrity.Scrub.clean r) then
        divs :=
          Scrub_divergences
            {
              spec = Durability.Db.spec_to_string spec;
              count = List.length r.Integrity.Scrub.r_divergences;
              first =
                Integrity.Scrub.divergence_to_string
                  (List.hd r.Integrity.Scrub.r_divergences);
            }
          :: !divs)
    (Durability.Db.asr_specs db)
    (Durability.Db.asrs db);
  (* Step 3: digest comparison against the dead primary's files. *)
  (match primary_dir with
  | Some pdir -> check_against_primary ~dir ~pdir db divs
  | None -> ());
  let committed_bytes =
    String.length
      (Durability.Fault.read_all
         (Durability.Db.wal_file dir (Durability.Db.generation db)))
  in
  let report =
    {
      f_dir = dir;
      f_generation = Durability.Db.generation db;
      f_recovery = recovery;
      f_committed_bytes = committed_bytes;
      f_store_digest = Digest.to_hex (Digest.store (Durability.Db.store db));
      f_asr_digests =
        List.map2
          (fun spec a ->
            (Durability.Db.spec_to_string spec, Digest.to_hex (Digest.of_asr a)))
          (Durability.Db.asr_specs db)
          (Durability.Db.asrs db);
      f_checked_against = primary_dir;
      f_divergences = List.rev !divs;
    }
  in
  if promoted report then begin
    (* The commit point of failover: once the marker is gone, the
       directory is an ordinary durable base and the handle may write. *)
    Sys.remove (Replica.marker_file dir);
    Ok (db, report)
  end
  else begin
    Durability.Db.close db;
    Error report
  end

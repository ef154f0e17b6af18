(* Tests for the replication layer: WAL shipping over a faulty channel,
   replica catch-up and reads, failover promotion, and divergence
   detection.

   The two centrepieces mirror the durability suite's method:

   - a QCheck property holding replica ≡ primary — store serialisation
     byte-identical, every ASR partition tree equal, forward/backward
     lookups answering identically — after random churn shipped through
     a seeded-random faulty channel (drops, duplicates, reorders,
     corruption, partitions);

   - a crash-at-every-frame sweep: the replica's own log write is
     killed at every slice, under three tail-survival variants, and
     promotion of the half-dead directory must always yield a clean,
     divergence-free base equal to a committed prefix of the primary's
     history. *)

module V = Gom.Value
module C = Workload.Schemas.Company
module Db = Durability.Db
module Wal = Durability.Wal
module Fault = Durability.Fault
module R = Replication

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- scratch directories ---------------- *)

let fresh_dir () =
  let d = Filename.temp_file "asrrepl-test" "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_dirs f =
  let pdir = fresh_dir () and rdir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf pdir;
      rm_rf rdir)
    (fun () -> f pdir rdir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------------- primary + churn ---------------- *)

let name_path_spec = "Division.Manufactures.Composition.Name"

let txn store f =
  match Gom.Txn.with_txn store f with
  | Ok v -> v
  | Error e -> raise e

let make_primary ?(kinds = [ Core.Extension.Full; Core.Extension.Canonical ]) pdir =
  let b = C.base () in
  let db = Db.create ~dir:pdir b.C.store in
  List.iter
    (fun kind -> ignore (Db.register_asr db ~path:name_path_spec ~kind ()))
    kinds;
  (db, b)

(* A deterministic churn script touching every record kind the log can
   carry: sets, new objects, set-element surgery, deletion, a rollback
   whose compensations must net out, and a name binding. *)
let churn_round db (b : C.base) i =
  let s = Db.store db in
  let parts_of o = V.oid_exn (Gom.Store.get_attr s o "Composition") in
  txn s (fun () ->
      Gom.Store.set_attr s b.C.door "Name" (V.Str (Printf.sprintf "Door-%d" i));
      let nut = Gom.Store.new_object s "BasePart" in
      Gom.Store.set_attr s nut "Name" (V.Str (Printf.sprintf "Nut-%d" i));
      Gom.Store.insert_elem s (parts_of b.C.sec560) (V.Ref nut));
  (match
     Gom.Txn.with_txn s (fun () ->
         Gom.Store.set_attr s b.C.truck "Name" (V.Str "Ghost");
         raise Exit)
   with
  | Ok () -> assert false
  | Error Exit -> ()
  | Error e -> raise e);
  if i mod 2 = 0 then
    txn s (fun () ->
        Gom.Store.set_attr s b.C.mb_trak "Name"
          (V.Str (Printf.sprintf "Trak-%d" i)));
  Db.bind_name db (Printf.sprintf "round-%d" i) b.C.door

(* ---------------- a wired session ---------------- *)

type rig = {
  g_db : Db.t;
  g_base : C.base;
  g_primary : R.Primary.t;
  g_channel : R.Channel.t;
  g_replica : R.Replica.t;
  g_session : R.Session.t;
  g_stats : Storage.Stats.t;
}

let make_rig ?channel_plans ?replica_fault ?frame_bytes ?digest_every
    ?stop_after_sends pdir rdir =
  let db, base = make_primary pdir in
  let stats = Storage.Stats.create () in
  let fault = Option.map Fault.faulty_channel channel_plans in
  let channel = R.Channel.create ?fault ~stats () in
  let primary = R.Primary.create ?frame_bytes ?digest_every db in
  let replica = R.Replica.create ?fault:replica_fault ~stats ~dir:rdir () in
  let session =
    R.Session.create ~stats ?stop_after_sends ~primary ~channel ~replica ()
  in
  {
    g_db = db;
    g_base = base;
    g_primary = primary;
    g_channel = channel;
    g_replica = replica;
    g_session = session;
    g_stats = stats;
  }

let close_rig rig =
  R.Replica.close rig.g_replica;
  Db.close rig.g_db

(* Replica ≡ primary, checked three ways: canonical store serialisation
   byte-identical; every ASR partition tree equal as a relation; and
   forward/backward lookups over every live key answering identically
   (the scan-oracle face of the same equality). *)
let assert_equivalent ctx db replica =
  check_string
    (ctx ^ ": store serialisations byte-identical")
    (Gom.Serial.store_to_string (Db.store db))
    (Gom.Serial.store_to_string (R.Replica.store replica));
  let pas = Db.asrs db and ras = R.Replica.asrs replica in
  check_int (ctx ^ ": same ASR count") (List.length pas) (List.length ras);
  List.iter2
    (fun pa ra ->
      ignore (Core.Asr.flush pa);
      ignore (Core.Asr.flush ra);
      check_int
        (ctx ^ ": same partition count")
        (Core.Asr.partition_count pa)
        (Core.Asr.partition_count ra);
      for p = 0 to Core.Asr.partition_count pa - 1 do
        check
          (Printf.sprintf "%s: partition %d tree-for-tree equal" ctx p)
          true
          (Relation.equal
             (Core.Asr.partition_relation pa p)
             (Core.Asr.partition_relation ra p))
      done;
      List.iter
        (fun tu ->
          let k0 = Relation.Tuple.get tu 0 in
          let kn = Relation.Tuple.get tu (Relation.Tuple.width tu - 1) in
          let one a part ~fwd key = Core.Asr.lookup a part ~fwd [ key ] key in
          check (ctx ^ ": fw lookup identical") true
            (one pa 0 ~fwd:true k0 = one ra 0 ~fwd:true k0);
          let last = Core.Asr.partition_count pa - 1 in
          check (ctx ^ ": bw lookup identical") true
            (one pa last ~fwd:false kn = one ra last ~fwd:false kn))
        (Relation.to_list (Core.Asr.extension_relation pa)))
    pas ras

let assert_counters_balanced ctx stats =
  let s = Storage.Stats.snapshot stats in
  check_int
    (ctx ^ ": frames shipped = applied + dropped + retried")
    Storage.Stats.(summary_count s Frames_shipped)
    (Storage.Stats.(summary_count s Frames_applied) + Storage.Stats.(summary_count s Frames_dropped)
   + Storage.Stats.(summary_count s Frames_retried))

(* ---------------- basic catch-up ---------------- *)

let test_catch_up () =
  with_dirs (fun pdir rdir ->
      let rig = make_rig ~frame_bytes:64 pdir rdir in
      for i = 1 to 4 do
        churn_round rig.g_db rig.g_base i
      done;
      ignore (R.Session.drain rig.g_session);
      check "quiescent" true (R.Session.quiescent rig.g_session);
      check_int "no lag" 0 (R.Replica.lag_bytes rig.g_replica);
      check "no divergence" true (R.Replica.diverged rig.g_replica = None);
      check "epochs published" true (R.Replica.epochs rig.g_replica > 0);
      assert_equivalent "catch-up" rig.g_db rig.g_replica;
      assert_counters_balanced "catch-up" rig.g_stats;
      (* Incremental rounds ship without a reseed: generation stays 1
         and already-applied frames are never resent. *)
      let seq0 = R.Replica.expected_seq rig.g_replica in
      churn_round rig.g_db rig.g_base 5;
      ignore (R.Session.drain rig.g_session);
      check_int "still generation 1" 1 (R.Replica.generation rig.g_replica);
      check "sequence advanced" true
        (R.Replica.expected_seq rig.g_replica > seq0);
      assert_equivalent "incremental" rig.g_db rig.g_replica;
      close_rig rig)

let test_scanner_incremental_equals_scan () =
  with_dirs (fun pdir _ ->
      let db, b = make_primary pdir in
      for i = 1 to 3 do
        churn_round db b i
      done;
      Db.close db;
      let log = read_file (Db.wal_file pdir 1) in
      let whole = Wal.scan (Db.wal_file pdir 1) in
      (* Byte-at-a-time feeding must find exactly the committed prefix
         the batch scanner reports. *)
      let sc = Wal.Scanner.create () in
      String.iter (fun c -> Wal.Scanner.feed sc (String.make 1 c)) log;
      check_int "committed bytes equal" whole.Wal.committed_bytes
        (Wal.Scanner.committed_bytes sc);
      check_int "committed records equal" whole.Wal.committed
        (Wal.Scanner.committed_records sc);
      let records =
        List.concat_map
          (fun g -> g.Wal.Scanner.g_records)
          (Wal.Scanner.take_groups sc)
      in
      check_int "group records cover the committed prefix" whole.Wal.committed
        (List.length records))

let test_checkpoint_reseeds () =
  with_dirs (fun pdir rdir ->
      let rig = make_rig ~frame_bytes:64 pdir rdir in
      churn_round rig.g_db rig.g_base 1;
      ignore (R.Session.drain rig.g_session);
      check_int "generation 1 first" 1 (R.Replica.generation rig.g_replica);
      Db.checkpoint rig.g_db;
      churn_round rig.g_db rig.g_base 2;
      ignore (R.Session.drain rig.g_session);
      check_int "reseeded to generation 2" 2
        (R.Replica.generation rig.g_replica);
      check "replica snapshot file equals primary's" true
        (read_file (Db.snapshot_file pdir 2) = read_file (Db.snapshot_file rdir 2));
      assert_equivalent "post-checkpoint" rig.g_db rig.g_replica;
      close_rig rig)

(* ---------------- the channel fault classes, one by one ------------ *)

let fault_case name plans extra_checks =
  ( name,
    `Quick,
    fun () ->
      with_dirs (fun pdir rdir ->
          let rig = make_rig ~channel_plans:plans ~frame_bytes:64 pdir rdir in
          for i = 1 to 4 do
            churn_round rig.g_db rig.g_base i
          done;
          ignore (R.Session.drain rig.g_session);
          check "no divergence" true (R.Replica.diverged rig.g_replica = None);
          check_int "no lag" 0 (R.Replica.lag_bytes rig.g_replica);
          assert_equivalent name rig.g_db rig.g_replica;
          assert_counters_balanced name rig.g_stats;
          extra_checks rig;
          close_rig rig) )

let fault_cases =
  [
    fault_case "drop resends through the gap"
      [ { Fault.fail_at_frame = 2; channel_fault = Fault.Drop_frame } ]
      (fun rig ->
        let s = Storage.Stats.snapshot rig.g_stats in
        check "the drop was counted" true (Storage.Stats.(summary_count s Frames_dropped) >= 1);
        check "loss surfaced as a retry" true
          (Storage.Stats.(summary_count s Frames_retried) >= 1));
    fault_case "duplicate rejected as stale"
      [ { Fault.fail_at_frame = 2; channel_fault = Fault.Dup_frame } ]
      (fun rig ->
        let s = Storage.Stats.snapshot rig.g_stats in
        check "second copy counted shipped" true
          (Storage.Stats.(summary_count s Frames_shipped)
          > Storage.Stats.(summary_count s Frames_applied));
        check "second copy counted retried" true
          (Storage.Stats.(summary_count s Frames_retried) >= 1));
    fault_case "reorder rewinds and reconciles"
      [ { Fault.fail_at_frame = 2; channel_fault = Fault.Reorder_frames } ]
      (fun _ -> ());
    fault_case "corruption is caught by the frame CRC"
      [ { Fault.fail_at_frame = 2; channel_fault = Fault.Corrupt_frame 3 } ]
      (fun rig ->
        let s = Storage.Stats.snapshot rig.g_stats in
        check "damaged frame counted retried" true
          (Storage.Stats.(summary_count s Frames_retried) >= 1));
    fault_case "partition trips the breaker, then reconnects"
      [ { Fault.fail_at_frame = 2; channel_fault = Fault.Partition 4 } ]
      (fun rig ->
        (* Four refused sends against the default three-failure
           threshold: the breaker must have opened and then recovered
           through its half-open probe. *)
        check "breaker saw the partition" true
          (R.Session.steps rig.g_session > 2));
  ]

(* ---------------- digest divergence detection ---------------- *)

let test_digest_catches_divergence () =
  with_dirs (fun pdir rdir ->
      let rig = make_rig ~frame_bytes:64 ~digest_every:0 pdir rdir in
      churn_round rig.g_db rig.g_base 1;
      ignore (R.Session.drain rig.g_session);
      assert_equivalent "before damage" rig.g_db rig.g_replica;
      (* Corrupt the replica's live store behind the protocol's back. *)
      Gom.Store.set_attr
        (R.Replica.store rig.g_replica)
        rig.g_base.C.door "Name" (V.Str "Tampered");
      check "digest frame sent" true
        (R.Primary.ship_digest rig.g_primary rig.g_channel);
      ignore (R.Session.step rig.g_session);
      (match R.Replica.diverged rig.g_replica with
      | Some what ->
        check "divergence names the store digest" true
          (String.length what > 0)
      | None -> Alcotest.fail "tampered replica accepted a digest frame");
      (* Divergence is sticky: further frames are refused, drain stops. *)
      churn_round rig.g_db rig.g_base 2;
      ignore (R.Session.drain rig.g_session);
      check "still diverged" true (R.Replica.diverged rig.g_replica <> None);
      close_rig rig)

let test_digest_cadence_catches_asr_divergence () =
  with_dirs (fun pdir rdir ->
      (* digest_every 1: every data frame boundary carries digests, so
         the tampered ASR is caught during ordinary catch-up without
         any explicit ship_digest call. *)
      let rig = make_rig ~frame_bytes:4096 ~digest_every:1 pdir rdir in
      churn_round rig.g_db rig.g_base 1;
      ignore (R.Session.drain rig.g_session);
      (match R.Replica.asrs rig.g_replica with
      | a :: _ ->
        ignore (Core.Asr.flush a);
        (match Relation.to_list (Core.Asr.extension_relation a) with
        | tu :: _ ->
          ignore (Core.Asr.apply_delta a ~remove:[ tu ] ~add:[] : int);
          ignore (Core.Asr.flush a : int)
        | [] -> Alcotest.fail "replica ASR is empty")
      | [] -> Alcotest.fail "replica has no ASRs");
      churn_round rig.g_db rig.g_base 2;
      ignore (R.Session.drain rig.g_session);
      check "ASR tampering caught by shipped digests" true
        (R.Replica.diverged rig.g_replica <> None);
      close_rig rig)

(* ---------------- bounded-staleness reads ---------------- *)

let test_lag_gated_reads () =
  with_dirs (fun pdir rdir ->
      let rig = make_rig pdir rdir in
      (match R.Replica.env rig.g_replica with
      | Error `Unseeded -> ()
      | _ -> Alcotest.fail "unseeded replica offered an env");
      churn_round rig.g_db rig.g_base 1;
      ignore (R.Session.drain rig.g_session);
      (match R.Replica.env rig.g_replica with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "caught-up replica refused an env");
      (* Teach it the primary ran ahead 100 bytes: a zero-staleness
         reader is turned away with the exact lag, a tolerant one is
         served from the last published epoch. *)
      R.Replica.note_watermark rig.g_replica
        (R.Replica.applied_bytes rig.g_replica + 100);
      (match R.Replica.env ~max_lag_bytes:0 rig.g_replica with
      | Error (`Lagging n) -> check_int "lag is located" 100 n
      | _ -> Alcotest.fail "lagging replica served a zero-staleness read");
      (match R.Replica.env ~max_lag_bytes:200 rig.g_replica with
      | Ok _ -> ()
      | _ -> Alcotest.fail "bounded-staleness read refused within bound");
      close_rig rig)

(* ---------------- resume after restart ---------------- *)

let test_resume_catch_up () =
  with_dirs (fun pdir rdir ->
      let rig = make_rig ~frame_bytes:64 pdir rdir in
      churn_round rig.g_db rig.g_base 1;
      ignore (R.Session.drain rig.g_session);
      let applied0 = R.Replica.applied_bytes rig.g_replica in
      R.Replica.close rig.g_replica;
      churn_round rig.g_db rig.g_base 2;
      (* A fresh process over the same directory resumes from its
         files and attaches at its byte offset: no reseed, no replayed
         duplicates, and the churn that happened while it was down
         arrives incrementally. *)
      let stats = Storage.Stats.create () in
      let channel = R.Channel.create ~stats () in
      let replica = R.Replica.create ~stats ~dir:rdir () in
      check_int "resume kept the applied prefix" applied0
        (R.Replica.applied_bytes replica);
      let session =
        R.Session.create ~stats ~primary:rig.g_primary ~channel ~replica ()
      in
      ignore (R.Session.drain session);
      check_int "still generation 1" 1 (R.Replica.generation replica);
      assert_equivalent "resumed" rig.g_db replica;
      R.Replica.close replica;
      Db.close rig.g_db)

(* A replica killed mid-frame inside a transaction leaves the intact
   records of an open span followed by a torn record.  Resuming reads
   its log once: the torn bytes are cut from the file and from the
   scanner, the open span stays pending, and the next shipped slice
   completes it. *)
let test_resume_torn_tail_in_open_span () =
  with_dirs (fun pdir rdir ->
      let rig = make_rig ~frame_bytes:64 pdir rdir in
      churn_round rig.g_db rig.g_base 1;
      ignore (R.Session.drain rig.g_session);
      R.Replica.close rig.g_replica;
      let log = Db.wal_file rdir 1 in
      (* The records with their start offsets. *)
      let lines =
        String.split_on_char '\n' (read_file log)
        |> List.filter (fun l -> l <> "")
        |> Array.of_list
      in
      let start = Array.make (Array.length lines + 1) 0 in
      Array.iteri (fun i l -> start.(i + 1) <- start.(i) + String.length l + 1) lines;
      (* The last [begin] with two records after it: keep it and the next
         record, and half of the one after. *)
      let b = ref (-1) in
      Array.iteri
        (fun i l ->
          if String.ends_with ~suffix:" begin" l && i + 2 < Array.length lines then b := i)
        lines;
      check "the log holds a transaction" true (!b >= 0);
      let committed = start.(!b) and intact = start.(!b + 2) in
      Unix.truncate log (intact + (String.length lines.(!b + 2) / 2));
      churn_round rig.g_db rig.g_base 2;
      let stats = Storage.Stats.create () in
      let channel = R.Channel.create ~stats () in
      let replica = R.Replica.create ~stats ~dir:rdir () in
      check_int "applied up to the open span" committed (R.Replica.applied_bytes replica);
      check_int "log kept through the intact records" intact (R.Replica.wal_bytes replica);
      check_int "torn bytes cut from the file" intact (String.length (read_file log));
      let session =
        R.Session.create ~stats ~primary:rig.g_primary ~channel ~replica ()
      in
      ignore (R.Session.drain session);
      check "no divergence" true (R.Replica.diverged replica = None);
      check_string "log byte-identical to the primary's" (read_file (Db.wal_file pdir 1))
        (read_file log);
      assert_equivalent "resumed over a torn tail" rig.g_db replica;
      R.Replica.close replica;
      Db.close rig.g_db)

(* ---------------- promotion ---------------- *)

let test_promote_refuses_non_replica () =
  with_dirs (fun pdir _ ->
      let db, _ = make_primary pdir in
      Db.close db;
      match R.Failover.promote ~dir:pdir () with
      | exception R.Replica.Replica_error _ -> ()
      | Ok _ | Error _ -> Alcotest.fail "promoted a primary directory")

let test_promote_clean_after_kill () =
  with_dirs (fun pdir rdir ->
      let rig = make_rig ~frame_bytes:64 pdir rdir in
      churn_round rig.g_db rig.g_base 1;
      ignore (R.Session.drain rig.g_session);
      churn_round rig.g_db rig.g_base 2;
      churn_round rig.g_db rig.g_base 3;
      (* One pump round ships a few frames, then the primary dies with
         frames still in flight; the replica holds a proper prefix. *)
      ignore (R.Session.step rig.g_session);
      ignore (R.Session.kill rig.g_session);
      let rbytes = R.Replica.applied_bytes rig.g_replica in
      let pbytes = R.Primary.committed_bytes rig.g_primary in
      check "replica holds a prefix" true (rbytes <= pbytes);
      R.Replica.close rig.g_replica;
      (match R.Failover.promote ~primary_dir:pdir ~dir:rdir () with
      | Ok (db, report) ->
        check "promotion clean" true (R.Failover.promoted report);
        check "marker removed" false
          (Sys.file_exists (R.Replica.marker_file rdir));
        check "recovery verified every ASR" true (Db.verified report.R.Failover.f_recovery);
        (* The promoted store equals the primary's own snapshot+prefix
           replay — re-derive it here as an independent oracle. *)
        let snapshot = read_file (Db.snapshot_file pdir 1) in
        let plog = read_file (Db.wal_file pdir 1) in
        let oracle = Gom.Serial.store_of_string snapshot in
        let sc = Wal.Scanner.create () in
        Wal.Scanner.feed sc
          (String.sub plog 0 report.R.Failover.f_committed_bytes);
        List.iter
          (fun g -> ignore (Wal.replay oracle g.Wal.Scanner.g_records))
          (Wal.Scanner.take_groups sc);
        check_string "promoted store equals the primary prefix replay"
          (Gom.Serial.store_to_string oracle)
          (Gom.Serial.store_to_string (Db.store db));
        Gom.Txn.clear_hooks oracle;
        Db.close db
      | Error report ->
        Alcotest.fail (R.Failover.report_to_string report));
      assert_counters_balanced "kill" rig.g_stats;
      Db.close rig.g_db)

let test_promote_detects_forged_tail () =
  with_dirs (fun pdir rdir ->
      let rig = make_rig ~frame_bytes:64 pdir rdir in
      churn_round rig.g_db rig.g_base 1;
      ignore (R.Session.drain rig.g_session);
      R.Replica.close rig.g_replica;
      (* Forge a CRC-valid committed group past the primary's history
         by copying one off the primary's own log: recovery keeps it
         (it is a perfectly well-formed commit), so only the
         against-primary comparison can catch it. *)
      let plog = read_file (Db.wal_file pdir 1) in
      let whole = Wal.scan (Db.wal_file pdir 1) in
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o600 (Db.wal_file rdir 1)
      in
      output_string oc
        (String.sub plog 0 whole.Wal.committed_bytes
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> (fun ls -> [ List.nth ls (List.length ls - 2); List.nth ls (List.length ls - 1) ])
        |> String.concat "\n");
      output_char oc '\n';
      close_out oc;
      (match R.Failover.promote ~primary_dir:pdir ~dir:rdir () with
      | Ok _ -> Alcotest.fail "promoted a replica with a forged log tail"
      | Error report ->
        check "report refuses" false (R.Failover.promoted report);
        check "divergence is byte-located" true
          (List.exists
             (function
               | R.Failover.Log_beyond_primary _
               | R.Failover.Log_prefix_mismatch _
               | R.Failover.Store_digest_mismatch _ ->
                 true
               | _ -> false)
             report.R.Failover.f_divergences));
      check "marker kept on refusal" true
        (Sys.file_exists (R.Replica.marker_file rdir));
      Db.close rig.g_db)

let test_promote_detects_prefix_mismatch () =
  with_dirs (fun pdir rdir ->
      (* Two primaries born identical (same demo base, same specs, so
         byte-identical snapshots) that then diverge: a replica of the
         second, checked against the first, must fail at exactly the
         first byte where the histories part ways. *)
      let db1, b1 = make_primary pdir in
      churn_round db1 b1 1;
      Db.close db1;
      let p2 = fresh_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf p2)
        (fun () ->
          let db2, b2 = make_primary p2 in
          txn (Db.store db2) (fun () ->
              Gom.Store.set_attr (Db.store db2) b2.C.door "Name"
                (V.Str "Other-History"));
          let stats = Storage.Stats.create () in
          let channel = R.Channel.create ~stats () in
          let primary = R.Primary.create ~frame_bytes:64 db2 in
          let replica = R.Replica.create ~stats ~dir:rdir () in
          let session =
            R.Session.create ~stats ~primary ~channel ~replica ()
          in
          ignore (R.Session.drain session);
          R.Replica.close replica;
          Db.close db2;
          let log1 = read_file (Db.wal_file pdir 1) in
          let log2 = read_file (Db.wal_file p2 1) in
          let limit = min (String.length log1) (String.length log2) in
          let expect = ref limit in
          (try
             for i = 0 to limit - 1 do
               if log1.[i] <> log2.[i] then begin
                 expect := i;
                 raise Exit
               end
             done
           with Exit -> ());
          match R.Failover.promote ~primary_dir:pdir ~dir:rdir () with
          | Ok _ -> Alcotest.fail "promoted against a foreign history"
          | Error report ->
            check "located at the first differing byte" true
              (List.exists
                 (function
                   | R.Failover.Log_prefix_mismatch { byte } -> byte = !expect
                   | _ -> false)
                 report.R.Failover.f_divergences)))

(* ---------------- crash at every frame apply ---------------- *)

let sweep_variants =
  [
    ("tail-survives",
     fun c -> { Fault.crash_at_write = c; survive_bytes = max_int; corrupt_bytes = 0 });
    ("tail-lost",
     fun c -> { Fault.crash_at_write = c; survive_bytes = 0; corrupt_bytes = 0 });
    ("tail-torn",
     fun c -> { Fault.crash_at_write = c; survive_bytes = 7; corrupt_bytes = 3 });
  ]

let test_crash_sweep () =
  (* Reference run: how many log writes does a clean catch-up make on
     the replica side?  (Slice frames write; reset and digest frames
     do not, so this is counted at the fault layer, not in frames.) *)
  let total_writes =
    with_dirs (fun pdir rdir ->
        let fault = Fault.real () in
        let rig = make_rig ~replica_fault:fault ~frame_bytes:64 pdir rdir in
        for i = 1 to 3 do
          churn_round rig.g_db rig.g_base i
        done;
        ignore (R.Session.drain rig.g_session);
        assert_equivalent "crash-sweep reference" rig.g_db rig.g_replica;
        close_rig rig;
        Fault.writes fault)
  in
  check "reference run produced frames" true (total_writes > 4);
  List.iter
    (fun (vname, plan_of) ->
      for c = 1 to total_writes do
        with_dirs (fun pdir rdir ->
            let ctx = Printf.sprintf "%s crash at slice %d" vname c in
            let rig =
              make_rig ~replica_fault:(Fault.faulty (plan_of c))
                ~frame_bytes:64 pdir rdir
            in
            for i = 1 to 3 do
              churn_round rig.g_db rig.g_base i
            done;
            let crashed =
              match R.Session.drain rig.g_session with
              | _ -> false
              | exception Fault.Crash -> true
            in
            check (ctx ^ ": the crash fired") true crashed;
            (* The in-memory replica is dead.  Its directory must
               promote cleanly to a committed prefix of the primary. *)
            (match R.Failover.promote ~primary_dir:pdir ~dir:rdir () with
            | Ok (db, report) ->
              check (ctx ^ ": promotion clean") true
                (R.Failover.promoted report);
              check (ctx ^ ": ASRs verified") true
                (Db.verified report.R.Failover.f_recovery);
              let plog = read_file (Db.wal_file pdir 1) in
              let rlog = read_file (Db.wal_file rdir 1) in
              check (ctx ^ ": recovered log is a primary byte-prefix") true
                (String.length rlog <= String.length plog
                && String.sub plog 0 (String.length rlog) = rlog);
              Db.close db
            | Error report ->
              Alcotest.fail (ctx ^ "\n" ^ R.Failover.report_to_string report));
            Db.close rig.g_db)
      done)
    sweep_variants

(* ---------------- the QCheck property ---------------- *)

let prop_replica_equals_primary =
  QCheck.Test.make
    ~name:"replica = primary under random churn x channel chaos"
    ~count:25
    QCheck.(
      triple (int_bound 100000) (int_range 1 5) (int_range 0 2))
    (fun (chaos_seed, rounds, kind_idx) ->
      with_dirs (fun pdir rdir ->
          let kinds =
            List.sort_uniq compare
              [ List.nth Core.Extension.all kind_idx; Core.Extension.Full ]
          in
          let db, b = make_primary ~kinds pdir in
          let stats = Storage.Stats.create () in
          let fault =
            Fault.faulty_channel
              (R.Channel.chaos ~seed:chaos_seed ~upto:1000)
          in
          let channel = R.Channel.create ~fault ~stats () in
          let primary = R.Primary.create ~frame_bytes:48 ~digest_every:4 db in
          let replica = R.Replica.create ~stats ~dir:rdir () in
          let session =
            R.Session.create ~stats ~seed:chaos_seed ~primary ~channel
              ~replica ()
          in
          let rng = Random.State.make [| chaos_seed; 0xc4a5e |] in
          let path = C.name_path (Db.store db) in
          Fun.protect
            ~finally:(fun () ->
              R.Replica.close replica;
              Db.close db)
            (fun () ->
              for i = 1 to rounds do
                (* Random ops may have deleted an object the script
                   touches: the transaction rolls back and its logged
                   abort group is itself useful churn. *)
                (try churn_round db b i
                 with Gom.Store.Type_error _ | Invalid_argument _ -> ());
                for _ = 1 to Random.State.int rng 4 do
                  match
                    Gom.Txn.with_txn (Db.store db) (fun () ->
                        Test_maintenance.apply_random_op rng (Db.store db) path)
                  with
                  | Ok () -> ()
                  | Error (Gom.Store.Type_error _) -> ()
                  | Error e -> raise e
                done;
                ignore (R.Session.drain session)
              done;
              ignore (R.Session.drain session);
              if R.Replica.diverged replica <> None then
                QCheck.Test.fail_reportf "replica diverged: %s"
                  (Option.get (R.Replica.diverged replica));
              assert_equivalent "property" db replica;
              assert_counters_balanced "property" stats;
              R.Replica.lag_bytes replica = 0)))

(* Every component that subscribes to a store detaches when closed:
   built and closed one by one over one base, each must leave the
   store's listener count where it found it.  A replica's listeners sit
   on its own store, which it must leave with none. *)
let test_close_restores_listener_count () =
  with_dirs (fun pdir rdir ->
      let b = C.base () in
      let store = b.C.store in
      let path = C.name_path store in
      let m = Gom.Path.arity path - 1 in
      let baseline = Gom.Store.listener_count store in
      let closes name open_ =
        let close = open_ () in
        check (name ^ " subscribes") true (Gom.Store.listener_count store > baseline);
        close ();
        check_int (name ^ " closed: listener count restored") baseline
          (Gom.Store.listener_count store)
      in
      let heap () = Storage.Heap.create ~size_of:(fun _ -> 100) store in
      let specs =
        [
          {
            Parallel.Snapshot.sp_path = path;
            sp_kind = Core.Extension.Full;
            sp_decomposition = Core.Decomposition.binary ~m;
          };
        ]
      in
      closes "heap" (fun () ->
          let h = heap () in
          fun () -> Storage.Heap.close h);
      closes "engine" (fun () ->
          let h = heap () in
          let e = Engine.create (Core.Exec.make store h) in
          fun () ->
            Engine.close e;
            Storage.Heap.close h);
      closes "maintenance" (fun () ->
          let h = heap () in
          let mgr = Core.Maintenance.create (Core.Exec.make store h) in
          fun () ->
            Core.Maintenance.close mgr;
            Storage.Heap.close h);
      closes "profiler monitor" (fun () ->
          let mon = Workload.Profiler.Monitor.create store path in
          fun () -> Workload.Profiler.Monitor.close mon);
      (* A snapshot source's heap, engine, maintenance manager and event
         tap: all a replica should hang on its store. *)
      let source_listeners = ref 0 in
      closes "snapshot source" (fun () ->
          let src = Parallel.Snapshot.source ~specs store in
          ignore (Parallel.Snapshot.advance src);
          source_listeners := Gom.Store.listener_count store - baseline;
          fun () -> Parallel.Snapshot.close_source src);
      closes "server" (fun () ->
          let server = Parallel.Server.create ~jobs:2 ~specs store in
          fun () -> Parallel.Server.shutdown server);
      closes "shard group" (fun () ->
          let g = Shard.Group.create ~placement:(Shard.Placement.make 2) store in
          Shard.Group.register g ~path ~kind:Core.Extension.Full
            ~dec:(Core.Decomposition.binary ~m);
          fun () -> Shard.Group.close g);
      closes "transaction" (fun () ->
          let txn = Gom.Txn.start store in
          fun () -> Gom.Txn.commit txn);
      closes "durable base" (fun () ->
          let db = Db.create ~dir:pdir store in
          ignore (Db.register_asr db ~path:name_path_spec ~kind:Core.Extension.Full ());
          fun () -> Db.close db);
      let qdir = fresh_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf qdir)
        (fun () ->
          let rig = make_rig qdir rdir in
          churn_round rig.g_db rig.g_base 1;
          ignore (R.Session.drain rig.g_session);
          let rstore = R.Replica.store rig.g_replica in
          check_int "open replica: one heap and one manager, its source's"
            !source_listeners (Gom.Store.listener_count rstore);
          close_rig rig;
          check_int "replica closed: its store has no listener" 0
            (Gom.Store.listener_count rstore)))

let suite =
  [
    ("catch-up replicates and stays in sync", `Quick, test_catch_up);
    ( "closing every subscriber restores the listener count",
      `Quick,
      test_close_restores_listener_count );
    ( "incremental scanner = batch scan (byte-at-a-time)",
      `Quick,
      test_scanner_incremental_equals_scan );
    ("checkpoint reseeds the replica", `Quick, test_checkpoint_reseeds);
  ]
  @ fault_cases
  @ [
      ( "digest frame catches behind-the-back store damage",
        `Quick,
        test_digest_catches_divergence );
      ( "digest cadence catches ASR damage during catch-up",
        `Quick,
        test_digest_cadence_catches_asr_divergence );
      ("bounded-staleness read gating", `Quick, test_lag_gated_reads);
      ("replica resumes from its files", `Quick, test_resume_catch_up);
      ("replica resumes over a torn tail in an open span", `Quick,
       test_resume_torn_tail_in_open_span);
      ("promote refuses a non-replica", `Quick, test_promote_refuses_non_replica);
      ( "mid-churn kill promotes to the committed prefix",
        `Quick,
        test_promote_clean_after_kill );
      ( "promotion refuses a forged log tail",
        `Quick,
        test_promote_detects_forged_tail );
      ( "promotion locates a history prefix mismatch",
        `Quick,
        test_promote_detects_prefix_mismatch );
      ("crash at every replica slice write, promote", `Slow, test_crash_sweep);
      Qc.to_alcotest prop_replica_equals_primary;
    ]

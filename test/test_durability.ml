(* Tests for the durability layer: write-ahead logging, atomic
   snapshots, crash recovery, and the fault-injection harness.

   The centrepiece is an exhaustive crash-point sweep: a scripted
   workload (transactions, a rollback, object creation/deletion, set
   surgery, a name binding) runs against a durable base with all four
   extension kinds registered, a simulated power failure is injected at
   EVERY log write — under three tail-survival variants — and recovery
   must always produce a store equal to a transaction-consistent prefix
   of the crash-free history, with every ASR matching a from-scratch
   recomputation. *)

module V = Gom.Value
module C = Workload.Schemas.Company
module Db = Durability.Db
module Wal = Durability.Wal
module Fault = Durability.Fault

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- scratch directories ---------------- *)

let fresh_dir () =
  let d = Filename.temp_file "asrdb-test" "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let wal_path dir gen = Filename.concat dir (Printf.sprintf "wal-%d.log" gen)
let snap_path dir gen = Filename.concat dir (Printf.sprintf "snapshot-%d.base" gen)

(* ---------------- the scripted workload ---------------- *)

(* Transaction helpers that let a simulated [Fault.Crash] propagate
   untouched: after a crash the process is dead, so nothing — not even
   a rollback — may run against the log.  ([Txn.with_txn] would try to
   roll back, and under [Sync_on_commit] the abort marker's flush
   barrier would overwrite the post-crash file image.) *)
let txn store f =
  let t = Gom.Txn.start store in
  f ();
  Gom.Txn.commit t

let rollback_txn store f =
  let t = Gom.Txn.start store in
  f ();
  Gom.Txn.rollback t

let name_path_spec = "Division.Manufactures.Composition.Name"

let register_all_kinds db =
  List.iter
    (fun kind -> ignore (Db.register_asr db ~path:name_path_spec ~kind ()))
    Core.Extension.all

(* Every kind of log record is exercised: set/new/ins/rem/del, a name
   binding (autocommitted), and a rolled-back transaction whose
   compensation records must net out on replay. *)
let run_workload db (b : C.base) =
  let s = Db.store db in
  let parts_of o = V.oid_exn (Gom.Store.get_attr s o "Composition") in
  txn s (fun () ->
      Gom.Store.set_attr s b.C.door "Name" (V.Str "Hatch");
      Gom.Store.set_attr s b.C.door "Price" (V.Dec 99.95));
  txn s (fun () ->
      let nut = Gom.Store.new_object s "BasePart" in
      Gom.Store.set_attr s nut "Name" (V.Str "Nut");
      Gom.Store.insert_elem s (parts_of b.C.sec560) (V.Ref nut));
  Db.bind_name db "TheDoor" b.C.door;
  rollback_txn s (fun () ->
      Gom.Store.set_attr s b.C.mb_trak "Name" (V.Str "Ghost");
      Gom.Store.remove_elem s (parts_of b.C.sec560) (V.Ref b.C.door));
  txn s (fun () ->
      Gom.Store.remove_elem s (parts_of b.C.sec560) (V.Ref b.C.door);
      Gom.Store.delete s b.C.pepper);
  txn s (fun () -> Gom.Store.set_attr s b.C.truck "Name" (V.Str "Trucks+"))

(* A crash-free reference execution; returns the log-write count, the
   scanned reference log, its raw bytes, and — for every record-prefix
   length — the canonical serialisation of the store that prefix
   produces. *)
type reference = {
  ref_writes : int;
  ref_records : Wal.record list;
  ref_log_bytes : string;
  prefix_state : int -> string;  (* #records replayed -> store string *)
}

let reference_run ~policy =
  with_dir (fun dir ->
      let fault = Fault.real () in
      let b = C.base () in
      let db = Db.create ~fault ~policy ~dir b.C.store in
      register_all_kinds db;
      run_workload db b;
      Db.close db;
      let scanned = Wal.scan (wal_path dir 1) in
      (* The whole log is committed when the run ends cleanly. *)
      check_int "reference log fully committed"
        (List.length scanned.Wal.records)
        scanned.Wal.committed;
      let snapshot = read_file (snap_path dir 1) in
      let log_bytes = read_file (wal_path dir 1) in
      let prefix_state k =
        let store = Gom.Serial.store_of_string snapshot in
        let prefix = List.filteri (fun i _ -> i < k) scanned.Wal.records in
        ignore (Wal.replay store prefix);
        Gom.Serial.store_to_string store
      in
      {
        ref_writes = Fault.writes fault;
        ref_records = scanned.Wal.records;
        ref_log_bytes = log_bytes;
        prefix_state;
      })

(* Run the workload under an armed fault plan; the crash must fire.
   Leaves the post-crash files in [dir] for recovery. *)
let crashed_run ~policy ~plan dir =
  let fault = Fault.faulty plan in
  let b = C.base () in
  let db = Db.create ~fault ~policy ~dir b.C.store in
  register_all_kinds db;
  let crashed =
    match run_workload db b with
    | () -> false
    | exception Fault.Crash -> true
  in
  (* The dead process's store is abandoned; only drop the global txn
     hooks so the sweep does not accumulate registrations. *)
  Gom.Txn.clear_hooks (Db.store db);
  crashed

(* Recover [dir] and hold the recovered state against the reference:
   the truncated log must be a byte-prefix of the crash-free log, the
   store must equal the state that prefix produces, and every ASR check
   must have passed. *)
let check_recovery ~reference ~ctx dir =
  let rdb = Db.open_ ~dir () in
  Fun.protect
    ~finally:(fun () -> Db.close rdb)
    (fun () ->
      let r = match Db.last_recovery rdb with Some r -> r | None -> assert false in
      check (ctx ^ ": all ASRs verified") true (Db.verified r);
      check_int (ctx ^ ": four ASRs rebuilt") 4 (List.length r.Db.asr_checks);
      let k = r.Db.records_scanned - r.Db.records_dropped in
      let log_now = read_file (wal_path dir 1) in
      check
        (ctx ^ ": recovered log is a byte-prefix of the crash-free log")
        true
        (String.length log_now <= String.length reference.ref_log_bytes
        && String.sub reference.ref_log_bytes 0 (String.length log_now) = log_now);
      check_string
        (ctx ^ ": store equals the committed prefix state")
        (reference.prefix_state k)
        (Gom.Serial.store_to_string (Db.store rdb));
      k)

(* Position (1-based) of the last commit/abort marker at or before
   write [c-1]: under [Sync_on_commit] everything up to it was fsynced,
   so recovery must retain at least that much even when the whole
   unsynced tail is lost. *)
let last_barrier_before reference c =
  let p = ref 0 in
  List.iteri
    (fun i r ->
      match r with
      | (Wal.Commit | Wal.Abort) when i + 1 < c -> p := i + 1
      | _ -> ())
    reference.ref_records;
  !p

let sweep_variants =
  [
    ("tail-survives", fun c -> { Fault.crash_at_write = c; survive_bytes = max_int; corrupt_bytes = 0 });
    ("tail-lost", fun c -> { Fault.crash_at_write = c; survive_bytes = 0; corrupt_bytes = 0 });
    ("tail-torn", fun c -> { Fault.crash_at_write = c; survive_bytes = 7; corrupt_bytes = 3 });
  ]

let test_crash_sweep () =
  let policy = Wal.Sync_on_commit in
  let reference = reference_run ~policy in
  check "workload produced writes" true (reference.ref_writes > 0);
  List.iter
    (fun (vname, plan_of) ->
      for c = 1 to reference.ref_writes do
        with_dir (fun dir ->
            let ctx = Printf.sprintf "%s@%d" vname c in
            check (ctx ^ ": crash fired") true
              (crashed_run ~policy ~plan:(plan_of c) dir);
            let k = check_recovery ~reference ~ctx dir in
            (* Durability floor: fsynced work survives any tail loss. *)
            check
              (ctx ^ ": synced prefix retained")
              true
              (k >= last_barrier_before reference c))
      done)
    sweep_variants

let test_crash_sweep_sync_always () =
  let policy = Wal.Sync_always in
  let reference = reference_run ~policy in
  for c = 1 to reference.ref_writes do
    with_dir (fun dir ->
        let ctx = Printf.sprintf "sync-always@%d" c in
        let plan = { Fault.crash_at_write = c; survive_bytes = 0; corrupt_bytes = 0 } in
        check (ctx ^ ": crash fired") true (crashed_run ~policy ~plan dir);
        let rdb = Db.open_ ~dir () in
        let r = match Db.last_recovery rdb with Some r -> r | None -> assert false in
        Db.close rdb;
        (* Every record but the fatal one was individually fsynced: the
           scan must see exactly the first [c-1] records. *)
        check_int (ctx ^ ": all previous records durable") (c - 1) r.Db.records_scanned;
        check (ctx ^ ": ASRs verified") true (Db.verified r))
  done

(* ---------------- targeted scenarios ---------------- *)

let test_create_reopen_roundtrip () =
  with_dir (fun dir ->
      let b = C.base () in
      let db = Db.create ~dir b.C.store in
      register_all_kinds db;
      run_workload db b;
      let expected = Gom.Serial.store_to_string b.C.store in
      Db.close db;
      let rdb = Db.open_ ~dir () in
      check_string "clean reopen reproduces the store" expected
        (Gom.Serial.store_to_string (Db.store rdb));
      let r = Option.get (Db.last_recovery rdb) in
      check "clean reopen verifies" true (Db.verified r);
      check_int "nothing truncated" 0 r.Db.bytes_truncated;
      Db.close rdb)

let test_uncommitted_tail_truncated_then_reusable () =
  with_dir (fun dir ->
      let b = C.base () in
      let db = Db.create ~dir b.C.store in
      ignore
        (Gom.Txn.with_txn b.C.store (fun () ->
             Gom.Store.set_attr b.C.store b.C.door "Name" (V.Str "Hatch")));
      (* An open transaction that never commits: intact records that
         recovery must drop and physically truncate. *)
      let t = Gom.Txn.start b.C.store in
      Gom.Store.set_attr b.C.store b.C.door "Name" (V.Str "Half-done");
      Db.flush db;
      Gom.Txn.abandon t;
      Gom.Txn.clear_hooks (Db.store db);
      let size_before = String.length (read_file (wal_path dir 1)) in
      let rdb = Db.open_ ~dir () in
      let r = Option.get (Db.last_recovery rdb) in
      check_int "two records dropped" 2 r.Db.records_dropped;
      check "bytes truncated" true (r.Db.bytes_truncated > 0);
      check_int "file physically truncated" (size_before - r.Db.bytes_truncated)
        (String.length (read_file (wal_path dir 1)));
      check "committed change survived" true
        (V.equal (Gom.Store.get_attr (Db.store rdb) b.C.door "Name") (V.Str "Hatch"));
      (* The truncated log must accept new work and recover again. *)
      ignore
        (Gom.Txn.with_txn (Db.store rdb) (fun () ->
             Gom.Store.set_attr (Db.store rdb) b.C.door "Name" (V.Str "Lid")));
      Db.close rdb;
      let rdb2 = Db.open_ ~dir () in
      check "appended-after-truncation change recovered" true
        (V.equal (Gom.Store.get_attr (Db.store rdb2) b.C.door "Name") (V.Str "Lid"));
      Db.close rdb2)

let test_checkpoint_rotates_and_recovers () =
  with_dir (fun dir ->
      let b = C.base () in
      let db = Db.create ~dir b.C.store in
      register_all_kinds db;
      ignore
        (Gom.Txn.with_txn b.C.store (fun () ->
             Gom.Store.set_attr b.C.store b.C.door "Name" (V.Str "Hatch")));
      Db.checkpoint db;
      check_int "generation advanced" 2 (Db.generation db);
      check "old snapshot deleted" false (Sys.file_exists (snap_path dir 1));
      check "old log deleted" false (Sys.file_exists (wal_path dir 1));
      ignore
        (Gom.Txn.with_txn b.C.store (fun () ->
             Gom.Store.set_attr b.C.store b.C.truck "Name" (V.Str "Trucks+")));
      let expected = Gom.Serial.store_to_string b.C.store in
      Db.close db;
      let rdb = Db.open_ ~dir () in
      let r = Option.get (Db.last_recovery rdb) in
      check_int "recovered at generation 2" 2 r.Db.generation;
      check "post-checkpoint recovery verifies" true (Db.verified r);
      check_string "post-checkpoint state reproduced" expected
        (Gom.Serial.store_to_string (Db.store rdb));
      (* Only the post-checkpoint transaction is in the new log. *)
      check_int "one commit replayed" 1 r.Db.commits_replayed;
      Db.close rdb)

let test_stale_next_generation_files_ignored () =
  with_dir (fun dir ->
      let b = C.base () in
      let db = Db.create ~dir b.C.store in
      ignore
        (Gom.Txn.with_txn b.C.store (fun () ->
             Gom.Store.set_attr b.C.store b.C.door "Name" (V.Str "Hatch")));
      Db.close db;
      (* Debris of a checkpoint that died before its manifest switch:
         the manifest still names generation 1, so recovery must ignore
         the orphans, and a later checkpoint must supersede them. *)
      let oc = open_out_bin (snap_path dir 2) in
      output_string oc "half a snapshot";
      close_out oc;
      let oc = open_out_bin (wal_path dir 2) in
      output_string oc "garbage log\n";
      close_out oc;
      let rdb = Db.open_ ~dir () in
      let r = Option.get (Db.last_recovery rdb) in
      check_int "still generation 1" 1 r.Db.generation;
      check "recovery verifies despite debris" true (Db.verified r);
      Db.checkpoint rdb;
      check_int "checkpoint reclaims generation 2" 2 (Db.generation rdb);
      Db.close rdb;
      let rdb2 = Db.open_ ~dir () in
      check "generation 2 recovers cleanly" true
        (Db.verified (Option.get (Db.last_recovery rdb2)));
      check "door survived" true
        (V.equal (Gom.Store.get_attr (Db.store rdb2) b.C.door "Name") (V.Str "Hatch"));
      Db.close rdb2)

let test_corrupt_snapshot_refused () =
  with_dir (fun dir ->
      let b = C.base () in
      let db = Db.create ~dir b.C.store in
      Db.close db;
      let text = read_file (snap_path dir 1) in
      let oc = open_out_bin (snap_path dir 1) in
      output_string oc (String.sub text 0 (String.length text / 2));
      close_out oc;
      check "truncated snapshot raises Recovery_error" true
        (match Db.open_ ~dir () with
        | (_ : Db.t) -> false
        | exception Db.Recovery_error _ -> true))

let test_missing_manifest_refused () =
  with_dir (fun dir ->
      match Db.open_ ~dir () with
      | (_ : Db.t) -> Alcotest.fail "opened a directory without a manifest"
      | exception Db.Recovery_error m ->
        check "the refusal says the manifest cannot be read" true
          (String.starts_with ~prefix:"cannot read manifest" m))

let test_double_create_refused () =
  with_dir (fun dir ->
      let b = C.base () in
      let db = Db.create ~dir b.C.store in
      Db.close db;
      let b2 = C.base () in
      check "second create refused" true
        (match Db.create ~dir b2.C.store with
        | (_ : Db.t) -> false
        | exception Db.Db_error _ -> true))

let test_wal_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "roundtrip.log" in
      let records =
        [
          Wal.Begin;
          Wal.Create (Gom.Oid.of_int 7, "ROBOT");
          Wal.Set (Gom.Oid.of_int 7, "Name", V.Str "Z3 with spaces");
          Wal.Set (Gom.Oid.of_int 7, "Price", V.Dec 1205.5);
          Wal.Set (Gom.Oid.of_int 7, "Tag", V.Null);
          Wal.Insert (Gom.Oid.of_int 5, V.Ref (Gom.Oid.of_int 3));
          Wal.Remove (Gom.Oid.of_int 5, V.Bool true);
          Wal.Delete (Gom.Oid.of_int 7, "ROBOT");
          Wal.Bind ("Our \"Robots\"", Gom.Oid.of_int 5);
          Wal.Commit;
          Wal.Abort;
        ]
      in
      let w = Wal.open_append ~policy:Wal.Sync_never path in
      List.iter (Wal.append w) records;
      Wal.close w;
      let s = Wal.scan path in
      check "all records round-trip" true (s.Wal.records = records);
      check_int "all committed" (List.length records) s.Wal.committed;
      check_int "no torn bytes" s.Wal.total_bytes s.Wal.valid_bytes)

let test_scan_missing_and_damaged () =
  with_dir (fun dir ->
      let missing = Wal.scan (Filename.concat dir "nope.log") in
      check_int "missing file scans empty" 0 (List.length missing.Wal.records);
      let path = Filename.concat dir "t.log" in
      let w = Wal.open_append ~policy:Wal.Sync_never path in
      Wal.append w (Wal.Set (Gom.Oid.of_int 1, "Name", V.Str "ok"));
      Wal.close w;
      let good = read_file path in
      (* Flip one payload byte: the CRC must reject the record. *)
      let bad = Bytes.of_string good in
      Bytes.set bad (Bytes.length bad - 2) '!';
      let oc = open_out_bin path in
      output_string oc (Bytes.to_string bad);
      close_out oc;
      let s = Wal.scan path in
      check_int "bit-flipped record rejected" 0 (List.length s.Wal.records);
      check_int "nothing trusted" 0 s.Wal.valid_bytes)

(* ---------------- framing: byte identity with the Printf form ---------------- *)

(* The frame as the log has always written it, with [Printf]. *)
let printf_value = function
  | V.Null -> "null"
  | V.Ref o -> Printf.sprintf "ref:%d" (Gom.Oid.to_int o)
  | V.Int i -> Printf.sprintf "int:%d" i
  | V.Dec f -> Printf.sprintf "dec:%h" f
  | V.Str s -> Printf.sprintf "str:%S" s
  | V.Bool b -> Printf.sprintf "bool:%b" b
  | V.Char c -> Printf.sprintf "char:%d" (Char.code c)

let printf_frame record =
  let o = Gom.Oid.to_int in
  let payload =
    match record with
    | Wal.Begin -> "begin"
    | Wal.Commit -> "commit"
    | Wal.Abort -> "abort"
    | Wal.Create (x, ty) -> Printf.sprintf "new %d %s" (o x) ty
    | Wal.Set (x, a, v) -> Printf.sprintf "set %d %s %s" (o x) a (printf_value v)
    | Wal.Insert (x, v) -> Printf.sprintf "ins %d %s" (o x) (printf_value v)
    | Wal.Remove (x, v) -> Printf.sprintf "rem %d %s" (o x) (printf_value v)
    | Wal.Delete (x, ty) -> Printf.sprintf "del %d %s" (o x) ty
    | Wal.Bind (name, x) -> Printf.sprintf "name %S %d" name (o x)
    | Wal.Flush n -> Printf.sprintf "flush %d" n
  in
  Printf.sprintf "%s %d %s\n"
    (Printf.sprintf "%08lx" (Gom.Crc32.string payload))
    (String.length payload) payload

let record_gen =
  let open QCheck.Gen in
  let tricky_char =
    frequency
      [
        (3, printable);
        (2, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; ' '; '\000'; '\127'; '\128'; '\255' ]);
        (1, char);
      ]
  in
  let text = string_size ~gen:tricky_char (0 -- 12) in
  let ident = string_size ~gen:(oneofl [ 'A'; 'b'; '_'; '7'; 'z' ]) (1 -- 6) in
  let oid = map Gom.Oid.of_int (oneof [ small_nat; int; return (-1) ]) in
  let value =
    oneof
      [
        return V.Null;
        map (fun o -> V.Ref o) oid;
        map (fun i -> V.Int i) (oneof [ int; small_signed_int; return min_int; return max_int ]);
        map (fun s -> V.Str s) text;
        map (fun f -> V.Dec f)
          (oneof [ float; oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0. ] ]);
        map (fun b -> V.Bool b) bool;
        map (fun c -> V.Char c) char;
      ]
  in
  oneof
    [
      oneofl [ Wal.Begin; Wal.Commit; Wal.Abort ];
      map2 (fun o ty -> Wal.Create (o, ty)) oid ident;
      map3 (fun o a v -> Wal.Set (o, a, v)) oid ident value;
      map2 (fun o v -> Wal.Insert (o, v)) oid value;
      map2 (fun o v -> Wal.Remove (o, v)) oid value;
      map2 (fun o ty -> Wal.Delete (o, ty)) oid ident;
      map2 (fun n o -> Wal.Bind (n, o)) text oid;
      map (fun n -> Wal.Flush n) small_nat;
    ]

let prop_frame_matches_printf =
  QCheck.Test.make ~name:"wal frame = Printf frame, and scan round-trips it" ~count:200
    (QCheck.make
       ~print:(fun rs -> String.concat "" (List.map printf_frame rs))
       QCheck.Gen.(list_size (1 -- 20) record_gen))
    (fun records ->
      List.for_all (fun r -> Wal.frame r = printf_frame r) records
      && with_dir (fun dir ->
             let path = Filename.concat dir "frames.log" in
             let w = Wal.open_append ~policy:Wal.Sync_never path in
             List.iter (Wal.append w) records;
             Wal.close w;
             let s = Wal.scan path in
             (* Frames, not records, are compared: [Dec nan] is not
                structurally equal to itself. *)
             read_file path = String.concat "" (List.map printf_frame records)
             && List.map Wal.frame s.Wal.records = List.map Wal.frame records
             && s.Wal.valid_bytes = s.Wal.total_bytes))

(* The committed prefix of an intact record sequence, by the log's rule
   (a record outside a begin..commit/abort span commits by itself), as
   (records, bytes). *)
let committed_prefix records =
  let rec go n bytes in_txn ((c, cb) as committed) = function
    | [] -> committed
    | r :: rest -> (
      let n = n + 1 and bytes = bytes + String.length (Wal.frame r) in
      match r with
      | Wal.Begin -> go n bytes true committed rest
      | Wal.Commit | Wal.Abort -> go n bytes false (n, bytes) rest
      | _ when in_txn -> go n bytes true (c, cb) rest
      | _ -> go n bytes false (n, bytes) rest)
  in
  go 0 0 false (0, 0) records

(* A log of intact records, then a clean end, a torn final frame (no
   newline) or a corrupt one (a wrong CRC digit) followed by more intact
   frames; scanned whole and fed to a scanner in random slices. *)
let prop_scan_equals_scanner =
  let gen =
    QCheck.Gen.(
      quad (list_size (0 -- 25) record_gen) (int_bound 2) (pair record_gen (list_size (0 -- 3) record_gen))
        (list_size (0 -- 8) (int_bound 2000)))
  in
  let print (records, fate, _, cuts) =
    Printf.sprintf "%d records, fate %d, cuts [%s]\n%s" (List.length records) fate
      (String.concat ";" (List.map string_of_int cuts))
      (String.concat "" (List.map printf_frame records))
  in
  QCheck.Test.make ~name:"wal scan = scanner fed in random slices, torn and corrupt tails"
    ~count:300 (QCheck.make ~print gen) (fun (records, fate, (damaged, after), cuts) ->
      let intact = String.concat "" (List.map Wal.frame records) in
      let bad = Wal.frame damaged in
      let tail =
        match fate with
        | 0 -> ""
        | 1 -> String.sub bad 0 (String.length bad - 1)
        | _ ->
          let digit = if bad.[0] = '0' then "1" else "0" in
          digit ^ String.sub bad 1 (String.length bad - 1) ^ String.concat "" (List.map Wal.frame after)
      in
      let text = intact ^ tail in
      let committed, committed_bytes = committed_prefix records in
      let frames l = List.map Wal.frame l in
      let s =
        with_dir (fun dir ->
            let path = Filename.concat dir "tail.log" in
            let oc = open_out_bin path in
            output_string oc text;
            close_out oc;
            Wal.scan path)
      in
      let sc = Wal.Scanner.create () in
      let len = String.length text in
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (len + 1)) cuts) @ [ len ] in
      (try
         ignore
           (List.fold_left
              (fun from cut ->
                Wal.Scanner.feed sc (String.sub text from (cut - from));
                cut)
              0 cuts)
       with Wal.Scanner.Bad_record _ -> ());
      let groups = List.concat_map (fun g -> g.Wal.Scanner.g_records) (Wal.Scanner.take_groups sc) in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      if frames s.Wal.records <> frames records then fail "scan records differ";
      if frames groups <> frames (List.filteri (fun i _ -> i < committed) records) then
        fail "scanner groups differ from the committed prefix";
      if Wal.Scanner.pending_records sc <> List.length records - committed then
        fail "scanner holds %d pending records" (Wal.Scanner.pending_records sc);
      List.iter
        (fun (what, want, from_scan, from_scanner) ->
          if from_scan <> want || from_scanner <> want then
            fail "%s: want %d, scan %d, scanner %d" what want from_scan from_scanner)
        [
          ("committed", committed, s.Wal.committed, Wal.Scanner.committed_records sc);
          ( "committed_bytes",
            committed_bytes,
            s.Wal.committed_bytes,
            Wal.Scanner.committed_bytes sc );
          ("valid_bytes", String.length intact, s.Wal.valid_bytes, Wal.Scanner.valid_bytes sc);
        ];
      s.Wal.total_bytes = len)

(* ---------------- when bytes reach the OS ---------------- *)

let file_size path = (Unix.stat path).Unix.st_size

let set_record i = Wal.Set (Gom.Oid.of_int i, "Name", V.Str (Printf.sprintf "v%d" i))

let test_open_txn_reaches_os_at_commit () =
  with_dir (fun dir ->
      List.iter
        (fun (policy, closing) ->
          let path = Filename.concat dir "txn.log" in
          let fault = Fault.real () in
          let w = Wal.open_append ~fault ~policy path in
          let span = [ Wal.Begin; set_record 1; set_record 2; set_record 3 ] in
          List.iter
            (fun r ->
              Wal.append w r;
              check_int "open span stays in the process" 0 (file_size path))
            span;
          Wal.append w closing;
          let all = span @ [ closing ] in
          check_string "closing marker hands over the whole span"
            (String.concat "" (List.map Wal.frame all))
            (read_file path);
          check_int "one write counted per record" (List.length all) (Fault.writes fault);
          Wal.close w;
          Sys.remove path)
        [
          (Wal.Sync_never, Wal.Commit);
          (Wal.Sync_never, Wal.Abort);
          (Wal.Sync_on_commit, Wal.Commit);
        ])

let test_autocommit_and_sync_always_reach_os () =
  with_dir (fun dir ->
      let expect_on_disk path w records =
        let written = ref "" in
        List.iter
          (fun r ->
            Wal.append w r;
            written := !written ^ Wal.frame r;
            check_string "on disk when append returns" !written (read_file path))
          records
      in
      let path = Filename.concat dir "auto.log" in
      let w = Wal.open_append ~policy:Wal.Sync_never path in
      (* Records outside any span commit by themselves. *)
      expect_on_disk path w [ set_record 1; Wal.Bind ("root", Gom.Oid.of_int 1); set_record 2 ];
      Wal.close w;
      let path = Filename.concat dir "always.log" in
      let w = Wal.open_append ~policy:Wal.Sync_always path in
      expect_on_disk path w [ Wal.Begin; set_record 1; set_record 2; Wal.Commit; set_record 3 ];
      Wal.close w)

let suite =
  [
    Alcotest.test_case "crash at every write x 3 tail fates" `Quick test_crash_sweep;
    Alcotest.test_case "crash sweep under Sync_always" `Quick test_crash_sweep_sync_always;
    Alcotest.test_case "create/close/reopen round-trip" `Quick test_create_reopen_roundtrip;
    Alcotest.test_case "uncommitted tail truncated, log reusable" `Quick
      test_uncommitted_tail_truncated_then_reusable;
    Alcotest.test_case "checkpoint rotates generations" `Quick
      test_checkpoint_rotates_and_recovers;
    Alcotest.test_case "stale next-generation debris ignored" `Quick
      test_stale_next_generation_files_ignored;
    Alcotest.test_case "corrupt snapshot refused" `Quick test_corrupt_snapshot_refused;
    Alcotest.test_case "missing manifest refused" `Quick test_missing_manifest_refused;
    Alcotest.test_case "double create refused" `Quick test_double_create_refused;
    Alcotest.test_case "wal record round-trip" `Quick test_wal_roundtrip;
    Alcotest.test_case "scan: missing file, damaged record" `Quick
      test_scan_missing_and_damaged;
    Qc.to_alcotest prop_frame_matches_printf;
    Qc.to_alcotest prop_scan_equals_scanner;
    Alcotest.test_case "open transaction reaches the OS at its marker" `Quick
      test_open_txn_reaches_os_at_commit;
    Alcotest.test_case "autocommit and Sync_always reach the OS per record" `Quick
      test_autocommit_and_sync_always_reach_os;
  ]

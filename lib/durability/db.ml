exception Db_error of string
exception Recovery_error of string

let db_error fmt = Format.kasprintf (fun s -> raise (Db_error s)) fmt
let recovery_error fmt = Format.kasprintf (fun s -> raise (Recovery_error s)) fmt

(* ---------------- layout ---------------- *)

let manifest_file dir = Filename.concat dir "MANIFEST"
let snapshot_file dir gen = Filename.concat dir (Printf.sprintf "snapshot-%d.base" gen)
let wal_file dir gen = Filename.concat dir (Printf.sprintf "wal-%d.log" gen)

let manifest_header = "asr-manifest v1"

type spec = {
  s_kind : Core.Extension.kind;
  s_dec : string option; (* boundary list; None = binary *)
  s_path : string;
}

let spec_to_string s =
  Printf.sprintf "%s %s %s"
    (Core.Extension.name s.s_kind)
    (Option.value ~default:"-" s.s_dec)
    s.s_path

let spec_of_string line =
  match String.split_on_char ' ' line with
  | kind :: dec :: path_parts when path_parts <> [] -> (
    match Core.Extension.of_name kind with
    | Some k ->
      Some
        {
          s_kind = k;
          s_dec = (if dec = "-" then None else Some dec);
          s_path = String.concat " " path_parts;
        }
    | None -> None)
  | _ -> None

(* Replace a small control file atomically: temp + fsync + rename. *)
let atomic_write path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc contents;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write_manifest dir gen specs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (manifest_header ^ "\n");
  Buffer.add_string buf (Printf.sprintf "gen %d\n" gen);
  List.iter
    (fun s -> Buffer.add_string buf (Printf.sprintf "asr %s\n" (spec_to_string s)))
    specs;
  atomic_write (manifest_file dir) (Buffer.contents buf)

let read_manifest dir =
  let path = manifest_file dir in
  let text =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error m -> recovery_error "cannot read manifest: %s" m
  in
  let lines =
    String.split_on_char '\n' text |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match lines with
  | h :: rest when h = manifest_header ->
    let gen = ref None and specs = ref [] in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "gen"; g ] -> gen := int_of_string_opt g
        | "asr" :: kind :: dec :: path_parts when path_parts <> [] ->
          let kind =
            match Core.Extension.of_name kind with
            | Some k -> k
            | None -> recovery_error "manifest: unknown extension %S" kind
          in
          let dec = if dec = "-" then None else Some dec in
          specs :=
            { s_kind = kind; s_dec = dec; s_path = String.concat " " path_parts }
            :: !specs
        | _ -> recovery_error "manifest: malformed line %S" line)
      rest;
    (match !gen with
    | Some g when g > 0 -> (g, List.rev !specs)
    | _ -> recovery_error "manifest: missing generation")
  | h :: _ -> recovery_error "manifest: unknown header %S" h
  | [] -> recovery_error "manifest: empty"

(* ---------------- the handle ---------------- *)

type report = {
  generation : int;
  records_scanned : int;
  records_replayed : int;
  records_dropped : int;
  bytes_truncated : int;
  commits_replayed : int;
  flushes_replayed : int;
  asr_checks : (string * bool) list;
}

let verified r = List.for_all snd r.asr_checks

type t = {
  t_dir : string;
  fault : Fault.t;
  policy : Wal.sync_policy;
  t_store : Gom.Store.t;
  t_env : Core.Exec.env;
  mgr : Core.Maintenance.t;
  mutable specs : spec list;
  mutable handles : Core.Asr.t list;
  mutable wal : Wal.t;
  mutable gen : int;
  mutable sub : Gom.Store.subscription option;
  mutable closed : bool;
  recovery : report option;
}

let store t = t.t_store
let env t = t.t_env
let maintenance t = t.mgr
let generation t = t.gen
let dir t = t.t_dir
let asrs t = List.rev t.handles
let asr_specs t = t.specs
let last_recovery t = t.recovery
let wal_appended t = Wal.appended t.wal

let ensure_open t = if t.closed then db_error "durable base handle is closed"

(* Every mutation of the attached store is logged before control
   returns to the mutator; transaction boundaries come from Txn's
   lifecycle hooks, with commit/abort acting as flush barriers under
   [Sync_on_commit]. *)
let attach t =
  t.sub <-
    Some
      (Gom.Store.subscribe t.t_store (fun ev ->
           Wal.append t.wal (Wal.record_of_event t.t_store ev)));
  Gom.Txn.set_hooks t.t_store
    {
      Gom.Txn.on_start = (fun () -> Wal.append t.wal Wal.Begin);
      Gom.Txn.on_commit = (fun () -> Wal.append t.wal Wal.Commit);
      Gom.Txn.on_rollback = (fun () -> Wal.append t.wal Wal.Abort);
    }

let make ~dir ~fault ~policy ~store ~gen ~specs ~handles ~wal ~recovery =
  (* One environment for the handle's lifetime: the maintenance
     manager charges the same stats sheaf that [env] hands out. *)
  let env = Core.Exec.make store (Storage.Heap.create ~size_of:(fun _ -> 100) store) in
  let mgr = Core.Maintenance.create env in
  List.iter (Core.Maintenance.register mgr) handles;
  let t =
    {
      t_dir = dir;
      fault;
      policy;
      t_store = store;
      t_env = env;
      mgr;
      specs;
      handles;
      wal;
      gen;
      sub = None;
      closed = false;
      recovery;
    }
  in
  attach t;
  t

let default_fault = Fault.real

let create ?fault ?(policy = Wal.Sync_on_commit) ~dir store =
  let fault = match fault with Some f -> f | None -> default_fault () in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  if Sys.file_exists (manifest_file dir) then
    db_error "%s already holds a durable base" dir;
  let gen = 1 in
  Gom.Serial.save store (snapshot_file dir gen);
  let wal = Wal.open_append ~fault ~policy (wal_file dir gen) in
  write_manifest dir gen [];
  make ~dir ~fault ~policy ~store ~gen ~specs:[] ~handles:[] ~wal ~recovery:None

let spec_components store spec =
  let path =
    try Gom.Path.parse (Gom.Store.schema store) spec.s_path
    with Gom.Path.Path_error m -> recovery_error "asr %s: %s" spec.s_path m
  in
  let m = Gom.Path.arity path - 1 in
  let dec =
    match spec.s_dec with
    | None -> Core.Decomposition.binary ~m
    | Some s -> (
      try Core.Decomposition.of_string ~m s
      with Invalid_argument msg -> recovery_error "asr %s: %s" spec.s_path msg)
  in
  (path, spec.s_kind, dec)

let build_spec_asr store spec =
  let path, kind, dec = spec_components store spec in
  (path, Core.Asr.create store path kind dec)

let open_ ?fault ?(policy = Wal.Sync_on_commit) ~dir () =
  let fault = match fault with Some f -> f | None -> default_fault () in
  let gen, specs = read_manifest dir in
  let store =
    let file = snapshot_file dir gen in
    if not (Sys.file_exists file) then
      recovery_error "snapshot %d: missing file %s" gen file;
    (* The load goes through the fault environment: bit flips and
       truncation surface as byte-located [Serial.Corrupt], transient
       failures are absorbed by bounded retry with deterministic
       backoff, and a persistent transient becomes a recovery error. *)
    try
      Fault.with_retry fault (fun () ->
          Gom.Serial.load_via ~reader:(Fault.read_through fault) file)
    with
    | Gom.Serial.Corrupt m -> recovery_error "snapshot %d: %s" gen m
    | Fault.Retryable m ->
      recovery_error "snapshot %d: transient read failure persisted: %s" gen m
  in
  let scanned = Wal.scan (wal_file dir gen) in
  (* Chop the log back to its committed prefix: both the torn tail and
     intact records of transactions that never committed, so future
     appends continue from a transaction-consistent point. *)
  if scanned.Wal.total_bytes > scanned.Wal.committed_bytes then
    Unix.truncate (wal_file dir gen) scanned.Wal.committed_bytes;
  let committed =
    List.filteri (fun i _ -> i < scanned.Wal.committed) scanned.Wal.records
  in
  let applied =
    try Wal.replay store committed
    with Wal.Replay_error m -> recovery_error "log %d: %s" gen m
  in
  let commits =
    List.fold_left
      (fun n r -> match r with Wal.Commit -> n + 1 | _ -> n)
      0 committed
  in
  let flushes =
    List.fold_left
      (fun n r -> match r with Wal.Flush _ -> n + 1 | _ -> n)
      0 committed
  in
  let checked =
    List.map
      (fun spec ->
        let path, a = build_spec_asr store spec in
        let ok =
          Relation.equal
            (Core.Asr.extension_relation a)
            (Core.Extension.compute store path spec.s_kind)
        in
        ((spec_to_string spec, ok), a))
      specs
  in
  let report =
    {
      generation = gen;
      records_scanned = List.length scanned.Wal.records;
      records_replayed = applied;
      records_dropped = List.length scanned.Wal.records - scanned.Wal.committed;
      bytes_truncated = scanned.Wal.total_bytes - scanned.Wal.committed_bytes;
      commits_replayed = commits;
      flushes_replayed = flushes;
      asr_checks = List.map fst checked;
    }
  in
  let wal = Wal.open_append ~fault ~policy (wal_file dir gen) in
  make ~dir ~fault ~policy ~store ~gen ~specs
    ~handles:(List.rev_map snd checked)
    ~wal ~recovery:(Some report)

let register_asr t ~path ~kind ?dec () =
  ensure_open t;
  let spec = { s_kind = kind; s_dec = dec; s_path = path } in
  if List.exists (fun s -> spec_to_string s = spec_to_string spec) t.specs then
    db_error "asr already registered: %s" (spec_to_string spec);
  let _, a =
    try build_spec_asr t.t_store spec
    with Recovery_error m -> db_error "%s" m
  in
  Core.Maintenance.register t.mgr a;
  t.handles <- a :: t.handles;
  t.specs <- t.specs @ [ spec ];
  write_manifest t.t_dir t.gen t.specs;
  a

let bind_name t name oid =
  ensure_open t;
  Gom.Store.bind_name t.t_store name oid;
  Wal.append t.wal (Wal.Bind (name, oid))

let flush t =
  ensure_open t;
  Wal.sync t.wal

let flush_policy t = Core.Maintenance.policy t.mgr

let set_flush_policy t p =
  ensure_open t;
  (* Switching to Immediate drains the buffers inside the manager; that
     drain deserves its own WAL frame too, so count first. *)
  let pending = Core.Maintenance.pending t.mgr in
  if pending > 0 && p = Core.Maintenance.Immediate then begin
    Wal.append t.wal Wal.Begin;
    Core.Maintenance.set_policy t.mgr p;
    Wal.append t.wal (Wal.Flush pending);
    Wal.append t.wal Wal.Commit
  end
  else Core.Maintenance.set_policy t.mgr p

let flush_maintenance t =
  ensure_open t;
  let pending = Core.Maintenance.pending t.mgr in
  if pending = 0 then 0
  else begin
    (* One WAL group frames the whole flush: recovery either replays the
       closed group (a counted no-op — the trees are rebuilt from the
       manifest anyway) or truncates the open one, never half of it. *)
    Wal.append t.wal Wal.Begin;
    let n = Core.Maintenance.flush_all t.mgr in
    Wal.append t.wal (Wal.Flush n);
    Wal.append t.wal Wal.Commit;
    n
  end

let checkpoint t =
  ensure_open t;
  Wal.sync t.wal;
  let gen' = t.gen + 1 in
  (* A stale file from an interrupted earlier attempt must not pollute
     the fresh log. *)
  (try Sys.remove (wal_file t.t_dir gen') with Sys_error _ -> ());
  Gom.Serial.save t.t_store (snapshot_file t.t_dir gen');
  let wal' = Wal.open_append ~fault:t.fault ~policy:t.policy (wal_file t.t_dir gen') in
  (* The manifest switch is the checkpoint's commit point. *)
  write_manifest t.t_dir gen' t.specs;
  let old = t.gen in
  Wal.close t.wal;
  t.wal <- wal';
  t.gen <- gen';
  (try Sys.remove (snapshot_file t.t_dir old) with Sys_error _ -> ());
  (try Sys.remove (wal_file t.t_dir old) with Sys_error _ -> ())

let close t =
  if not t.closed then begin
    t.closed <- true;
    Gom.Txn.clear_hooks t.t_store;
    (match t.sub with
    | Some sub -> Gom.Store.unsubscribe t.t_store sub
    | None -> ());
    t.sub <- None;
    Wal.sync t.wal;
    Wal.close t.wal
  end

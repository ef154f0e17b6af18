type sync_policy = Sync_always | Sync_on_commit | Sync_never

type record =
  | Begin
  | Commit
  | Abort
  | Create of Gom.Oid.t * Gom.Schema.type_name
  | Set of Gom.Oid.t * Gom.Schema.attr_name * Gom.Value.t
  | Insert of Gom.Oid.t * Gom.Value.t
  | Remove of Gom.Oid.t * Gom.Value.t
  | Delete of Gom.Oid.t * Gom.Schema.type_name
  | Bind of string * Gom.Oid.t
  | Flush of int

let record_of_event store : Gom.Store.event -> record = function
  | Gom.Store.Created oid -> Create (oid, Gom.Store.type_of store oid)
  | Gom.Store.Attr_set { obj; attr; new_value; _ } -> Set (obj, attr, new_value)
  | Gom.Store.Set_inserted { set; elem } -> Insert (set, elem)
  | Gom.Store.Set_removed { set; elem } -> Remove (set, elem)
  | Gom.Store.Deleted { obj; ty } -> Delete (obj, ty)

(* ---------------- payload syntax ---------------- *)

(* Built by concatenation; the bytes are those of the [Printf] forms
   [%d] and [%S] ([%S] is [String.escaped] in quotes). *)
let payload_of_record record =
  let words l = String.concat " " l in
  let oid o = string_of_int (Gom.Oid.to_int o) in
  let value = Gom.Serial.value_to_string in
  match record with
  | Begin -> "begin"
  | Commit -> "commit"
  | Abort -> "abort"
  | Create (o, ty) -> words [ "new"; oid o; ty ]
  | Set (o, a, v) -> words [ "set"; oid o; a; value v ]
  | Insert (o, v) -> words [ "ins"; oid o; value v ]
  | Remove (o, v) -> words [ "rem"; oid o; value v ]
  | Delete (o, ty) -> words [ "del"; oid o; ty ]
  | Bind (name, o) -> words [ "name"; "\"" ^ String.escaped name ^ "\""; oid o ]
  | Flush n -> "flush " ^ string_of_int n

let frame record =
  let payload = payload_of_record record in
  String.concat ""
    [
      Gom.Crc32.to_hex (Gom.Crc32.string payload);
      " ";
      string_of_int (String.length payload);
      " ";
      payload;
      "\n";
    ]

(* Tokenise the first [count] space-separated fields, keeping the
   remainder verbatim (string payloads may contain spaces). *)
let fields ~count s =
  let len = String.length s in
  let rec go start acc remaining =
    if remaining = 0 then
      if start <= len then Some (List.rev (String.sub s start (len - start) :: acc))
      else None
    else
      match String.index_from_opt s start ' ' with
      | Some i -> go (i + 1) (String.sub s start (i - start) :: acc) (remaining - 1)
      | None -> None
  in
  go 0 [] count

let record_of_payload ~recno s =
  let oid s = Option.map Gom.Oid.of_int (int_of_string_opt s) in
  let value s = try Some (Gom.Serial.value_of_string ~line:recno s) with Gom.Serial.Corrupt _ -> None in
  match s with
  | "begin" -> Some Begin
  | "commit" -> Some Commit
  | "abort" -> Some Abort
  | _ -> (
    match fields ~count:1 s with
    | Some [ "new"; rest ] | Some [ "del"; rest ] -> (
      match String.split_on_char ' ' rest with
      | [ o; ty ] -> (
        match oid o with
        | Some o when ty <> "" ->
          Some (if String.length s >= 3 && s.[0] = 'n' then Create (o, ty) else Delete (o, ty))
        | _ -> None)
      | _ -> None)
    | Some [ "set"; rest ] -> (
      match fields ~count:2 rest with
      | Some [ o; a; v ] -> (
        match (oid o, value v) with
        | Some o, Some v when a <> "" -> Some (Set (o, a, v))
        | _ -> None)
      | _ -> None)
    | Some [ "ins"; rest ] | Some [ "rem"; rest ] -> (
      match fields ~count:1 rest with
      | Some [ o; v ] -> (
        match (oid o, value v) with
        | Some o, Some v ->
          Some (if s.[0] = 'i' then Insert (o, v) else Remove (o, v))
        | _ -> None)
      | _ -> None)
    | Some [ "name"; _ ] -> (
      try Scanf.sscanf s "name %S %d%!" (fun n o -> Some (Bind (n, Gom.Oid.of_int o)))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    | Some [ "flush"; rest ] -> (
      match int_of_string_opt rest with
      | Some n when n >= 0 -> Some (Flush n)
      | _ -> None)
    | _ -> None)

(* ---------------- appending ---------------- *)

type t = {
  file : Fault.file;
  policy : sync_policy;
  mutable appended : int;
  mutable in_txn : bool;  (* inside an open begin..commit/abort span *)
}

let open_append ?fault ~policy path =
  let fault = match fault with Some f -> f | None -> Fault.real () in
  { file = Fault.open_append fault path; policy; appended = 0; in_txn = false }

let sync t = Fault.sync t.file

(* The bytes leave the process where [scan] closes a commit group: at a
   commit/abort marker, or after a record outside any open span.  The
   records of one transaction thus reach the OS in one write. *)
let append t record =
  Fault.write t.file (frame record);
  t.appended <- t.appended + 1;
  let closes_group =
    match record with
    | Begin ->
      t.in_txn <- true;
      false
    | Commit | Abort ->
      t.in_txn <- false;
      true
    | _ -> not t.in_txn
  in
  match (t.policy, record) with
  | Sync_always, _ | Sync_on_commit, (Commit | Abort) -> sync t
  | (Sync_on_commit | Sync_never), _ -> if closes_group then Fault.flush t.file

let close t = Fault.close t.file
let appended t = t.appended

(* ---------------- recovery-side reading ---------------- *)

type scanned = {
  records : record list;
  committed : int;
  committed_bytes : int;
  valid_bytes : int;
  total_bytes : int;
}

let parse_frame ~recno line =
  match fields ~count:2 line with
  | Some [ crc_hex; len_s; payload ] -> (
    match (Gom.Crc32.of_hex crc_hex, int_of_string_opt len_s) with
    | Some crc, Some len
      when len = String.length payload
           && Int32.equal crc (Gom.Crc32.string payload) ->
      record_of_payload ~recno payload
    | _ -> None)
  | _ -> None

(* ---------------- incremental scanning ---------------- *)

module Scanner = struct
  exception Bad_record of { recno : int; off : int }

  type group = { g_records : record list; g_end : int }

  type t = {
    mutable buf : string;  (* intact-but-unterminated tail bytes *)
    mutable base : int;  (* absolute offset of [buf]'s first byte *)
    mutable recno : int;
    mutable in_txn : bool;
    mutable open_group : record list;  (* reversed, since last boundary *)
    mutable committed : int;
    mutable committed_records : int;
    mutable ready : group list;  (* reversed *)
  }

  let create () =
    {
      buf = "";
      base = 0;
      recno = 0;
      in_txn = false;
      open_group = [];
      committed = 0;
      committed_records = 0;
      ready = [];
    }

  let seal t =
    t.in_txn <- false;
    t.committed <- t.base;
    t.committed_records <- t.recno;
    t.ready <- { g_records = List.rev t.open_group; g_end = t.base } :: t.ready;
    t.open_group <- []

  (* The commit-boundary rule: a record outside any begin..commit/abort
     span commits by itself; a span commits (or nets out) wholesale at
     its closing marker.  The walk goes by offset through the buffer,
     which is cut once, past the last record taken — also when a bad
     line stops it. *)
  let drain t =
    let buf = t.buf in
    let rec go off =
      match String.index_from_opt buf off '\n' with
      | None -> (off, false)
      | Some nl -> (
        match parse_frame ~recno:(t.recno + 1) (String.sub buf off (nl - off)) with
        | None -> (off, true)
        | Some record ->
          t.base <- t.base + nl + 1 - off;
          t.recno <- t.recno + 1;
          t.open_group <- record :: t.open_group;
          (match record with
          | Begin -> t.in_txn <- true
          | Commit | Abort -> seal t
          | _ when t.in_txn -> ()
          | _ -> seal t);
          go (nl + 1))
    in
    let off, bad = go 0 in
    if off > 0 then t.buf <- String.sub buf off (String.length buf - off);
    if bad then raise (Bad_record { recno = t.recno + 1; off = t.base })

  let feed t s =
    t.buf <- (if t.buf = "" then s else t.buf ^ s);
    drain t

  let take_groups t =
    let gs = List.rev t.ready in
    t.ready <- [];
    gs

  let committed_bytes t = t.committed
  let committed_records t = t.committed_records
  let valid_bytes t = t.base
  let fed_bytes t = t.base + String.length t.buf
  let pending_records t = List.length t.open_group

  (* Stopped by the first bad record, and cut back to the last intact
     one: the tail it buffered is never fed again. *)
  let of_log text =
    let t = create () in
    (try feed t text with Bad_record _ -> ());
    t.buf <- "";
    t
end

let scan path =
  let text = Fault.read_all path in
  let sc = Scanner.of_log text in
  {
    records =
      List.concat_map (fun g -> g.Scanner.g_records) (Scanner.take_groups sc)
      @ List.rev sc.Scanner.open_group;
    committed = Scanner.committed_records sc;
    committed_bytes = Scanner.committed_bytes sc;
    valid_bytes = Scanner.valid_bytes sc;
    total_bytes = String.length text;
  }

exception Replay_error of string

let replay store records =
  let applied = ref 0 in
  List.iteri
    (fun i record ->
      let apply f =
        (try f ()
         with Gom.Store.Type_error m ->
           raise (Replay_error (Printf.sprintf "record %d: %s" (i + 1) m)));
        incr applied
      in
      match record with
      | Begin | Commit | Abort -> ()
      | Flush _ ->
        (* Maintenance flush barrier: the store carries no trace of it —
           recovery rebuilds every access support relation from scratch,
           so a replayed flush group is a (counted) no-op and a dropped
           one loses nothing. *)
        ()
      | Create (o, ty) -> apply (fun () -> Gom.Store.restore_object store o ty)
      | Set (o, a, v) -> apply (fun () -> Gom.Store.set_attr store o a v)
      | Insert (o, v) -> apply (fun () -> Gom.Store.insert_elem store o v)
      | Remove (o, v) -> apply (fun () -> Gom.Store.remove_elem store o v)
      | Delete (o, _) -> apply (fun () -> Gom.Store.delete store o)
      | Bind (name, o) -> apply (fun () -> Gom.Store.bind_name store name o))
    records;
  !applied

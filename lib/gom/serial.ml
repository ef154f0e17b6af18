exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let header = "asr-object-base v1"

(* ---------------- values ---------------- *)

(* The hot constructors are built by concatenation; the bytes are those
   of [Printf]'s [%d] and [%S] ([%S] is [String.escaped] in quotes). *)
let value_to_string = function
  | Value.Null -> "null"
  | Value.Ref o -> "ref:" ^ string_of_int (Oid.to_int o)
  | Value.Int i -> "int:" ^ string_of_int i
  | Value.Dec f -> Printf.sprintf "dec:%h" f
  | Value.Str s -> String.concat "" [ "str:\""; String.escaped s; "\"" ]
  | Value.Bool b -> Printf.sprintf "bool:%b" b
  | Value.Char c -> Printf.sprintf "char:%d" (Char.code c)

let value_of_string ~line s =
  if s = "null" then Value.Null
  else
    match String.index_opt s ':' with
    | None -> corrupt "line %d: malformed value %S" line s
    | Some i -> (
      let tag = String.sub s 0 i in
      let payload = String.sub s (i + 1) (String.length s - i - 1) in
      let int_payload what =
        match int_of_string_opt payload with
        | Some v -> v
        | None -> corrupt "line %d: bad %s payload %S" line what payload
      in
      match tag with
      | "ref" -> Value.Ref (Oid.of_int (int_payload "ref"))
      | "int" -> Value.Int (int_payload "int")
      | "dec" -> (
        match float_of_string_opt payload with
        | Some f -> Value.Dec f
        | None -> corrupt "line %d: bad dec payload %S" line payload)
      | "bool" -> (
        match bool_of_string_opt payload with
        | Some b -> Value.Bool b
        | None -> corrupt "line %d: bad bool payload %S" line payload)
      | "char" -> Value.Char (Char.chr (int_payload "char" land 255))
      | "str" -> (
        try Scanf.sscanf payload "%S%!" Fun.id
            |> fun s -> Value.Str s
        with Scanf.Scan_failure _ | Failure _ | End_of_file ->
          corrupt "line %d: bad string payload" line)
      | other -> corrupt "line %d: unknown value tag %S" line other)

(* ---------------- schema ---------------- *)

let builtin name =
  match name with
  | "STRING" | "INT" | "INTEGER" | "DECIMAL" | "BOOL" | "CHAR" -> true
  | _ -> false

let schema_lines schema =
  let user = List.filter (fun n -> not (builtin n)) (Schema.type_names schema) in
  let fwd = List.map (fun n -> Printf.sprintf "F %s" n) user in
  let defs =
    List.map
      (fun name ->
        match Schema.find schema name with
        | Some (Schema.Tuple { supertypes; own_attrs }) ->
          Printf.sprintf "T tuple %s %s %s" name
            (match supertypes with [] -> "-" | l -> String.concat "," l)
            (String.concat " "
               (List.map (fun (a, ty) -> Printf.sprintf "%s:%s" a ty) own_attrs))
        | Some (Schema.Set elem) -> Printf.sprintf "T set %s %s" name elem
        | Some (Schema.List elem) -> Printf.sprintf "T list %s %s" name elem
        | Some (Schema.Atomic _) | None -> assert false)
      user
  in
  fwd @ defs

let schema_to_string schema = String.concat "\n" (schema_lines schema) ^ "\n"

let split_ws s = String.split_on_char ' ' s |> List.filter (fun x -> x <> "")

let apply_schema_line ~line schema s =
  match split_ws s with
  | [ "F"; name ] -> Schema.define_forward schema name
  | "T" :: "tuple" :: name :: sups :: attrs ->
    let supertypes =
      if sups = "-" then [] else String.split_on_char ',' sups
    in
    let own_attrs =
      List.map
        (fun spec ->
          match String.index_opt spec ':' with
          | Some i ->
            (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
          | None -> corrupt "line %d: malformed attribute %S" line spec)
        attrs
    in
    Schema.define_tuple schema name ~supertypes own_attrs
  | [ "T"; "set"; name; elem ] -> Schema.define_set schema name elem
  | [ "T"; "list"; name; elem ] -> Schema.define_list schema name elem
  | _ -> corrupt "line %d: malformed schema line %S" line s

let schema_of_string text =
  let lines = String.split_on_char '\n' text in
  let _, schema =
    List.fold_left
      (fun (line, schema) s ->
        let s = String.trim s in
        if s = "" then (line + 1, schema)
        else
          ( line + 1,
            try apply_schema_line ~line schema s
            with Schema.Schema_error m -> corrupt "line %d: %s" line m ))
      (1, Schema.empty) lines
  in
  schema

(* ---------------- store ---------------- *)

(* Every serialised store ends with an integrity footer [X <crc> <len>]
   covering all preceding bytes, so that a truncated or bit-damaged file
   is detected instead of silently loading a partial object base. *)

let store_to_string store =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  out "%s" header;
  List.iter (out "%s") (schema_lines (Store.schema store));
  (* Objects first (in creation order), then state, so every reference
     target exists when values are restored. *)
  Store.fold_objects store ~init:() ~f:(fun () inst ->
      out "O %d %s" (Oid.to_int (Instance.oid inst)) (Instance.ty inst));
  Store.fold_objects store ~init:() ~f:(fun () inst ->
      let oid = Oid.to_int (Instance.oid inst) in
      match (inst : Instance.t).body with
      | Instance.Tuple_body tbl ->
        Hashtbl.fold (fun a v acc -> (a, v) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.iter (fun (a, v) ->
               if not (Value.is_null v) then out "A %d %s %s" oid a (value_to_string v))
      | Instance.Set_body _ | Instance.List_body _ ->
        List.iter
          (fun v -> out "E %d %s" oid (value_to_string v))
          (Instance.elements inst));
  List.iter
    (fun (name, oid) -> out "N %S %d" name (Oid.to_int oid))
    (Store.names store);
  let body = Buffer.contents buf in
  Printf.sprintf "%sX %s %d\n" body (Crc32.to_hex (Crc32.string body)) (String.length body)

(* Lines annotated with their 1-based line number and the byte offset of
   their first character, so Corrupt messages can point into the file. *)
let lines_with_offsets text =
  let n = String.length text in
  let rec go acc line off =
    if off >= n then List.rev acc
    else
      let stop =
        match String.index_from_opt text off '\n' with Some i -> i | None -> n
      in
      let acc = (line, off, String.trim (String.sub text off (stop - off))) :: acc in
      go acc (line + 1) (stop + 1)
  in
  go [] 1 0

let check_footer text =
  (* The writer always terminates the footer line, so an unterminated
     file lost at least its final byte. *)
  if text <> "" && text.[String.length text - 1] <> '\n' then
    corrupt "byte %d: missing final newline - file truncated?" (String.length text);
  let all =
    lines_with_offsets text |> List.filter (fun (_, _, s) -> s <> "")
  in
  match List.rev all with
  | [] -> corrupt "byte 0: empty input"
  | (fline, foff, footer) :: _ -> (
    match split_ws footer with
    | [ "X"; crc_hex; len_s ] -> (
      match (Crc32.of_hex crc_hex, int_of_string_opt len_s) with
      | Some crc, Some len when len >= 0 && len <= String.length text ->
        if foff <> len then
          corrupt
            "line %d (byte %d): integrity footer covers %d bytes but starts at byte %d - \
             file truncated or spliced"
            fline foff len foff
        else if not (Int32.equal (Crc32.sub text ~pos:0 ~len) crc) then
          corrupt "line %d (byte %d): checksum mismatch - file damaged" fline foff
      | _ -> corrupt "line %d (byte %d): malformed integrity footer %S" fline foff footer)
    | _ ->
      corrupt
        "line %d (byte %d): missing integrity footer %S - file truncated?"
        fline foff footer)

let store_of_string text =
  check_footer text;
  let lines =
    lines_with_offsets text
    |> List.filter (fun (_, _, s) -> s <> "" && s.[0] <> 'X')
    |> List.map (fun (line, off, s) -> ((line, off), s))
  in
  (match lines with
  | (_, h) :: _ when h = header -> ()
  | ((line, off), h) :: _ -> corrupt "line %d (byte %d): unknown header %S" line off h
  | [] -> corrupt "byte 0: no content before integrity footer");
  let lines = List.tl lines in
  let tagged tag = List.filter (fun (_, s) -> String.length s > 1 && s.[0] = tag) lines in
  (* Decorate errors raised while processing one line with its byte
     offset (the nested message already carries the line number). *)
  let located (_, off) f =
    try f () with Corrupt m -> corrupt "%s (byte %d)" m off
  in
  let schema =
    List.fold_left
      (fun schema ((line, _) as loc, s) ->
        located loc (fun () ->
            try apply_schema_line ~line schema s
            with Schema.Schema_error m -> corrupt "line %d: %s" line m))
      Schema.empty
      (tagged 'F' @ tagged 'T')
  in
  let store =
    try Store.create schema
    with Store.Type_error m -> corrupt "byte 0: invalid schema: %s" m
  in
  let parse_oid ~line s =
    match int_of_string_opt s with
    | Some i -> Oid.of_int i
    | None -> corrupt "line %d: bad object id %S" line s
  in
  let wrap ~line f = try f () with Store.Type_error m -> corrupt "line %d: %s" line m in
  List.iter
    (fun ((line, _) as loc, s) ->
      located loc (fun () ->
          match split_ws s with
          | [ "O"; oid; ty ] ->
            wrap ~line (fun () -> Store.restore_object store (parse_oid ~line oid) ty)
          | _ -> corrupt "line %d: malformed object line %S" line s))
    (tagged 'O');
  (* A/E lines carry a verbatim value tail (string payloads may contain
     runs of spaces), so only the leading fields are tokenised. *)
  let fields ~line ~count s =
    let len = String.length s in
    let rec go start acc remaining =
      if remaining = 0 then
        if start <= len then List.rev (String.sub s start (len - start) :: acc)
        else corrupt "line %d: truncated line %S" line s
      else
        match String.index_from_opt s start ' ' with
        | Some i -> go (i + 1) (String.sub s start (i - start) :: acc) (remaining - 1)
        | None -> corrupt "line %d: truncated line %S" line s
    in
    go 0 [] count
  in
  List.iter
    (fun ((line, _) as loc, s) ->
      located loc (fun () ->
          match fields ~line ~count:3 s with
          | [ "A"; oid; attr; value ] ->
            let v = value_of_string ~line value in
            wrap ~line (fun () -> Store.set_attr store (parse_oid ~line oid) attr v)
          | _ -> corrupt "line %d: malformed attribute line %S" line s))
    (tagged 'A');
  List.iter
    (fun ((line, _) as loc, s) ->
      located loc (fun () ->
          match fields ~line ~count:2 s with
          | [ "E"; oid; value ] ->
            let v = value_of_string ~line value in
            wrap ~line (fun () -> Store.insert_elem store (parse_oid ~line oid) v)
          | _ -> corrupt "line %d: malformed element line %S" line s))
    (tagged 'E');
  List.iter
    (fun ((line, _) as loc, s) ->
      (* N %S <oid> *)
      located loc (fun () ->
          try
            Scanf.sscanf s "N %S %d" (fun name oid ->
                wrap ~line (fun () -> Store.bind_name store name (Oid.of_int oid)))
          with Scanf.Scan_failure _ | Failure _ | End_of_file ->
            corrupt "line %d: malformed name line %S" line s))
    (tagged 'N');
  store

(* Atomic save: write a sibling temp file, fsync it, then rename over
   the destination, so a crash mid-save can never leave a half-written
   (or empty) base behind - either the old file or the new one is seen. *)
let save store filename =
  let dir = Filename.dirname filename in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename filename) ".tmp" in
  match
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (store_to_string store);
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp filename
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let load_via ~reader filename =
  let text = try reader filename with Sys_error m -> corrupt "cannot read %s: %s" filename m in
  store_of_string text

let read_file filename =
  let ic =
    try open_in_bin filename
    with Sys_error m -> corrupt "cannot open %s: %s" filename m
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try really_input_string ic (in_channel_length ic)
      with Sys_error m | Failure m -> corrupt "cannot read %s: %s" filename m
         | End_of_file -> corrupt "cannot read %s: unexpected end of file" filename)

let load filename = load_via ~reader:read_file filename

exception Shard_error of string

let shard_error fmt = Format.kasprintf (fun s -> raise (Shard_error s)) fmt

(* ---------------- layout ---------------- *)

let shards_file dir = Filename.concat dir "SHARDS"

let shards_header = "asr-shards v2"

let write_shards_manifest dir ~placement specs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (shards_header ^ "\n");
  Buffer.add_string buf (Printf.sprintf "shards %d\n" (Placement.shards placement));
  Buffer.add_string buf
    (Printf.sprintf "placement %s\n" (Placement.to_string placement));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "asr %s\n" (Durability.Db.spec_to_string s)))
    specs;
  Durability.Db.atomic_write (shards_file dir) (Buffer.contents buf)

let read_shards_manifest dir =
  let path = shards_file dir in
  let text =
    try
      if Sys.file_exists path then Durability.Fault.read_all path
      else raise (Sys_error (path ^ ": No such file or directory"))
    with Sys_error m -> shard_error "cannot read shards manifest: %s" m
  in
  let lines =
    String.split_on_char '\n' text |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match lines with
  | h :: rest when h = shards_header ->
    let shards = ref None and placement = ref None and specs = ref [] in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "shards"; n ] -> shards := int_of_string_opt n
        | [ "placement"; p ] -> placement := Some p
        | "asr" :: spec_parts -> (
          match Durability.Db.spec_of_string (String.concat " " spec_parts) with
          | Some s -> specs := s :: !specs
          | None -> shard_error "shards manifest: malformed spec %S" line)
        | _ -> shard_error "shards manifest: malformed line %S" line)
      rest;
    let n =
      match !shards with
      | Some n when n >= 1 -> n
      | Some _ | None -> shard_error "shards manifest: missing shard count"
    in
    let placement =
      match !placement with
      | Some p -> (
        match Placement.of_string ~shards:n p with
        | Some pl -> pl
        | None -> shard_error "shards manifest: bad placement %S" p)
      | None -> shard_error "shards manifest: missing placement"
    in
    (placement, List.rev !specs)
  | h :: _ when String.starts_with ~prefix:"asr-shards " h ->
    shard_error "shards manifest: unsupported version %S (this build reads %S)" h
      shards_header
  | h :: _ -> shard_error "shards manifest: unknown header %S" h
  | [] -> shard_error "shards manifest: empty"

(* ---------------- the handle ---------------- *)

type t = {
  t_dir : string;
  placement : Placement.t;
  db : Durability.Db.t;
  grp : Group.t;
  mutable specs : Durability.Db.spec list;
  mutable closed : bool;
}

let group t = t.grp
let db t = t.db
let specs t = t.specs
let report t = Durability.Db.last_recovery t.db

(* Fragment relations are created straight over the shard stores and
   registered with each shard's maintenance manager — shard 0's is the
   Db's own, so the Db's flush framing covers its fragment — but never
   with [Db.register_asr]: the Db's manifest must stay empty of them,
   or its recovery would rebuild the fragment unfiltered. *)
let register_fragments grp spec =
  let path, kind, dec =
    try Durability.Db.spec_components (Group.primary grp) spec
    with Durability.Db.Recovery_error m -> shard_error "%s" m
  in
  Group.register grp ~path ~kind ~dec

(* Shard 0 is the Db's recovered store, environment and manager; the
   replicas are seeded from it exactly as an in-memory group's are. *)
let assemble ?jobs ~placement db =
  Group.of_primary ?jobs ~placement ~env:(Durability.Db.env db)
    ~manager:(Durability.Db.maintenance db) ()

let create ?policy ?fault ?jobs ?(placement = Placement.make 1) ~dir store =
  if Sys.file_exists (shards_file dir) then
    shard_error "%s already holds a shard group" dir;
  let db = Durability.Db.create ?fault ?policy ~dir store in
  write_shards_manifest dir ~placement [];
  let grp = assemble ?jobs ~placement db in
  { t_dir = dir; placement; db; grp; specs = []; closed = false }

let open_ ?policy ?fault ?jobs ~dir () =
  let placement, specs = read_shards_manifest dir in
  let db = Durability.Db.open_ ?fault ?policy ~dir () in
  let grp = assemble ?jobs ~placement db in
  List.iter (register_fragments grp) specs;
  { t_dir = dir; placement; db; grp; specs; closed = false }

let register t ~path ~kind ?dec () =
  let spec = { Durability.Db.s_kind = kind; s_dec = dec; s_path = path } in
  let dup =
    List.exists
      (fun s -> String.equal (Durability.Db.spec_to_string s)
          (Durability.Db.spec_to_string spec))
      t.specs
  in
  if dup then shard_error "duplicate registration: %s" (Durability.Db.spec_to_string spec);
  register_fragments t.grp spec;
  t.specs <- t.specs @ [ spec ];
  write_shards_manifest t.t_dir ~placement:t.placement t.specs

(* Shard 0 drains through its Db, so the drain gets its own log frame;
   the replicas hold nothing durable and drain through their managers. *)
let flush_maintenance t =
  let n = ref (Durability.Db.flush_maintenance t.db) in
  for k = 1 to Group.shards t.grp - 1 do
    n := !n + Core.Maintenance.flush_all (Group.manager t.grp k)
  done;
  !n

let checkpoint t = Durability.Db.checkpoint t.db

let close t =
  if not t.closed then begin
    t.closed <- true;
    Group.close t.grp;
    Durability.Db.close t.db
  end

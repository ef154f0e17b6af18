type t =
  | Null
  | Ref of Oid.t
  | Int of int
  | Str of string
  | Dec of float
  | Bool of bool
  | Char of char

let null = Null

let is_null = function Null -> true | Ref _ | Int _ | Str _ | Dec _ | Bool _ | Char _ -> false

(* Rank of each constructor: values of different shapes are ordered by
   rank so that [compare] is total even on heterogeneous columns. *)
let rank = function
  | Null -> 0
  | Ref _ -> 1
  | Int _ -> 2
  | Str _ -> 3
  | Dec _ -> 4
  | Bool _ -> 5
  | Char _ -> 6

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Ref x, Ref y -> Oid.compare x y
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Dec x, Dec y -> Float.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Char x, Char y -> Char.compare x y
  | (Null | Ref _ | Int _ | Str _ | Dec _ | Bool _ | Char _), _ ->
    Int.compare (rank a) (rank b)

let equal a b = compare a b = 0
(* By constructor, without the generic structural walk. *)
let hash = function
  | Null -> 0
  | Ref o -> Oid.to_int o
  | Int i -> i
  | Str s -> Hashtbl.hash s
  | Dec f -> Hashtbl.hash f
  | Bool b -> Bool.to_int b
  | Char c -> Char.code c

let oid = function Ref o -> Some o | Null | Int _ | Str _ | Dec _ | Bool _ | Char _ -> None

let oid_exn = function
  | Ref o -> o
  | (Null | Int _ | Str _ | Dec _ | Bool _ | Char _) as v ->
    invalid_arg
      (Format.asprintf "Value.oid_exn: not a reference: %a"
         (fun ppf -> function
           | Null -> Format.pp_print_string ppf "NULL"
           | Ref o -> Oid.pp ppf o
           | Int i -> Format.pp_print_int ppf i
           | Str s -> Format.fprintf ppf "%S" s
           | Dec f -> Format.pp_print_float ppf f
           | Bool b -> Format.pp_print_bool ppf b
           | Char c -> Format.fprintf ppf "%C" c)
         v)

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Ref o -> Oid.pp ppf o
  | Int i -> Format.pp_print_int ppf i
  | Str s -> Format.fprintf ppf "%S" s
  | Dec f -> Format.fprintf ppf "%g" f
  | Bool b -> Format.pp_print_bool ppf b
  | Char c -> Format.fprintf ppf "%C" c

let to_string v = Format.asprintf "%a" pp v

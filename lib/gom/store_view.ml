type t = Live of Store.t | Frozen of Frozen.t

let live s = Live s
let frozen f = Frozen f
let is_frozen = function Live _ -> false | Frozen _ -> true
let live_store = function Live s -> Some s | Frozen _ -> None
let base = function Live s -> s | Frozen f -> Frozen.base f
let same_base a b = base a == base b
let schema = function Live s -> Store.schema s | Frozen f -> Frozen.schema f
let epoch = function Live s -> Store.epoch s | Frozen f -> Frozen.epoch f
let get t oid = match t with Live s -> Store.get s oid | Frozen f -> Frozen.get f oid

let get_exn t oid =
  match t with Live s -> Store.get_exn s oid | Frozen f -> Frozen.get_exn f oid

let mem t oid = match t with Live s -> Store.mem s oid | Frozen f -> Frozen.mem f oid

let type_of t oid =
  match t with Live s -> Store.type_of s oid | Frozen f -> Frozen.type_of f oid

let get_attr t oid attr =
  match t with
  | Live s -> Store.get_attr s oid attr
  | Frozen f -> Frozen.get_attr f oid attr

let elements t oid =
  match t with Live s -> Store.elements s oid | Frozen f -> Frozen.elements f oid

let extent ?deep t ty =
  match t with Live s -> Store.extent ?deep s ty | Frozen f -> Frozen.extent ?deep f ty

let count ?deep t ty =
  match t with Live s -> Store.count ?deep s ty | Frozen f -> Frozen.count ?deep f ty

let fold_objects t ~init ~f =
  match t with
  | Live s -> Store.fold_objects s ~init ~f
  | Frozen f_ -> Frozen.fold_objects f_ ~init ~f

let find_name t name =
  match t with Live s -> Store.find_name s name | Frozen f -> Frozen.find_name f name

let names = function Live s -> Store.names s | Frozen f -> Frozen.names f

type spec = {
  sp_path : Gom.Path.t;
  sp_kind : Core.Extension.kind;
  sp_decomposition : Core.Decomposition.t;
}

type source = {
  src_base : Gom.Store.t;
  src_heap : Storage.Heap.t;
  src_engine : Engine.t;
  src_indexes : Core.Asr.t list;
  src_maintenance : Core.Maintenance.t;
  src_owns_maintenance : bool;
  src_tap : Gom.Store.subscription;
  mutable src_frozen : Gom.Frozen.t;
  src_events : Gom.Store.event list ref;  (* reversed suffix since src_frozen *)
  mutable src_closed : bool;
}

type t = {
  epoch : int;
  view : Gom.Store_view.t;
  heap : Storage.Heap.t;
  engine : Engine.t;
  indexes : Core.Asr.t list;
  marks : (int * int) list;
  copied : int;
  shared : int;
}

let source ?(sizes = fun _ -> 100) ?maintenance ~specs base =
  let heap = Storage.Heap.create ~size_of:sizes base in
  let engine = Engine.create ~sizes (Core.Exec.make base heap) in
  let owned = maintenance = None in
  let maintenance =
    match maintenance with
    | Some m -> m
    | None -> Core.Maintenance.create (Engine.env engine)
  in
  let indexes =
    List.map
      (fun sp ->
        let index = Core.Asr.create base sp.sp_path sp.sp_kind sp.sp_decomposition in
        Engine.register engine index;
        Core.Maintenance.register maintenance index;
        index)
      specs
  in
  (* Capture the initial image before opening the event tap: every event
     the tap sees is strictly younger than [src_frozen]. *)
  let frozen = Gom.Frozen.of_store base in
  let events = ref [] in
  let tap = Gom.Store.subscribe base (fun ev -> events := ev :: !events) in
  {
    src_base = base;
    src_heap = heap;
    src_engine = engine;
    src_indexes = indexes;
    src_maintenance = maintenance;
    src_owns_maintenance = owned;
    src_tap = tap;
    src_frozen = frozen;
    src_events = events;
    src_closed = false;
  }

let close_source src =
  if not src.src_closed then begin
    src.src_closed <- true;
    Gom.Store.unsubscribe src.src_base src.src_tap;
    src.src_events := [];
    Engine.close src.src_engine;
    if src.src_owns_maintenance then Core.Maintenance.close src.src_maintenance;
    Storage.Heap.close src.src_heap
  end

let source_closed src = src.src_closed

let source_engine src = src.src_engine
let source_indexes src = src.src_indexes
let source_maintenance src = src.src_maintenance

(* Publication: O(events since the previous epoch), not O(store).  The
   caller must exclude concurrent writers (the server's writer mutex).
   The registered ASRs are shared by reference: their deferred buffers
   are drained so the trees reflect exactly this epoch, and each tree
   version is pinned as the snapshot's mark — a later tree mutation
   makes the engine degrade that snapshot's probes to navigation over
   the frozen view instead of reading future trees. *)
let advance src =
  (* A closed source no longer hears the base: publishing would pass off
     its last image as current. *)
  if src.src_closed then invalid_arg "Snapshot.advance: source closed";
  ignore (Core.Maintenance.flush_all src.src_maintenance);
  List.iter (fun a -> ignore (Core.Asr.flush a)) src.src_indexes;
  let events = List.rev !(src.src_events) in
  src.src_events := [];
  let frozen = Gom.Frozen.advance src.src_frozen events in
  src.src_frozen <- frozen;
  let marks =
    List.map (fun a -> (Core.Asr.id a, Core.Asr.tree_version a)) src.src_indexes
  in
  {
    epoch = Gom.Frozen.epoch frozen;
    view = Gom.Store_view.frozen frozen;
    heap = Storage.Heap.snapshot src.src_heap;
    engine = src.src_engine;
    indexes = src.src_indexes;
    marks;
    copied = Gom.Frozen.copied frozen;
    shared = Gom.Frozen.shared frozen;
  }

let epoch t = t.epoch
let store t = t.view
let engine t = t.engine
let indexes t = t.indexes
let copied t = t.copied
let shared t = t.shared
let env ?buffer_pages ?deadline t =
  Core.Exec.make_view ?buffer_pages ?deadline ~marks:t.marks t.view t.heap

(* Spans recorded from the benchmark's own code, around the calls it
   makes into each layer.  Each span holds a name, a start, an end, its
   parent span and an operation id; spans go into buffers allocated
   once, outside the OCaml heap, and are summarised and written out when
   the run ends.  With tracing off, [span] is one branch and a call. *)

open Bigarray

let now () = Int64.to_int (Monotonic_clock.now ())

let capacity = 1 lsl 19

let buf () = Array1.create int c_layout capacity

let names = buf ()
let starts = buf ()
let stops = buf ()
let parents = buf ()
let op_ids = buf ()

let on = ref false
let n = ref 0
let dropped = ref 0
let current = ref (-1)
let op = ref 0

(* Span names are interned to small integers. *)
let table : (string, int) Hashtbl.t = Hashtbl.create 32
let labels : string array ref = ref [||]

let intern s =
  match Hashtbl.find_opt table s with
  | Some k -> k
  | None ->
    let k = Hashtbl.length table in
    Hashtbl.replace table s k;
    labels := Array.append !labels [| s |];
    k

let label k = !labels.(k)

let push name t0 t1 parent =
  let i = !n in
  if i >= capacity then incr dropped
  else begin
    incr n;
    Array1.unsafe_set names i name;
    Array1.unsafe_set starts i t0;
    Array1.unsafe_set stops i t1;
    Array1.unsafe_set parents i parent;
    Array1.unsafe_set op_ids i !op
  end;
  i

let span name f =
  if not !on then f ()
  else begin
    let parent = !current in
    let i = push (intern name) (now ()) 0 parent in
    current := i;
    let finish () =
      if i < capacity then Array1.unsafe_set stops i (now ());
      current := parent
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let begin_op () = incr op

(* Store-listener probes.  Store listeners fire in subscription order,
   so a probe subscribed just before a subscriber and one subscribed
   just after it bracket that subscriber's work on every event: each
   probe closes the interval opened by the previous probe as a span
   named after the subscriber in between. *)
let last_probe = ref 0

let probe store ~closes =
  ignore
    (Gom.Store.subscribe store (fun _ ->
         if !on then begin
           let t = now () in
           (match closes with
           | Some name -> ignore (push (intern name) !last_probe t !current)
           | None -> ());
           last_probe := t
         end)
      : Gom.Store.subscription)

let reset () =
  n := 0;
  dropped := 0;
  current := -1

(* Per-name totals: calls, inclusive time and self time (duration minus
   the time covered by direct children), in nanoseconds. *)
type total = { mutable calls : int; mutable incl : int; mutable self : int }

let totals () =
  let k = Hashtbl.length table in
  let t = Array.init k (fun _ -> { calls = 0; incl = 0; self = 0 }) in
  for i = 0 to !n - 1 do
    let d = stops.{i} - starts.{i} in
    let r = t.(names.{i}) in
    r.calls <- r.calls + 1;
    r.incl <- r.incl + d;
    r.self <- r.self + d;
    let p = parents.{i} in
    if p >= 0 then begin
      let pr = t.(names.{p}) in
      pr.self <- pr.self - d
    end
  done;
  t

let write_out file =
  let oc = open_out file in
  Printf.fprintf oc "span\tname\tstart_ns\tend_ns\tparent\top\n";
  for i = 0 to !n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i (label names.{i}) starts.{i} stops.{i}
      parents.{i} op_ids.{i}
  done;
  close_out oc

(* Latency samples of one operation class: a growable array of
   microseconds, with the percentile and histogram summaries the report
   prints.  The samples live in a Bigarray, outside the OCaml heap, so
   that how many operations a run completes does not move the heap size
   the benchmark reports. *)

open Bigarray

type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

let create () = { a = Array1.create float64 c_layout 4096; n = 0 }

let add t us =
  if t.n = Array1.dim t.a then begin
    let b = Array1.create float64 c_layout (2 * t.n) in
    Array1.blit t.a (Array1.sub b 0 t.n);
    t.a <- b
  end;
  t.a.{t.n} <- us;
  t.n <- t.n + 1

let slice t off len = Array.init len (fun i -> t.a.{off + i})

let sorted t =
  let s = slice t 0 t.n in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of a sorted sample. *)
let rank s p =
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float n)) - 1)))

let p50 t = rank (sorted t) 50.

(* The tail: within a window of operations, the highest percentile of a
   fixed ladder that leaves at least ten samples of the window beyond
   it.  Samples are split, in the order they were taken, into as many
   equal windows of at least [window] operations as fit (one window when
   there are fewer), and the tail is the median of the windows' values,
   so a burst of interference from outside the process moves one window,
   not the result.  Returns the percentile, the value, the samples beyond
   it per window and the number of windows. *)
let ladder = [ 99.9; 99.5; 99.; 98.; 97.5; 95.; 90.; 80.; 75.; 50. ]

let window = 500

let median l =
  match List.sort Float.compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let tail t =
  let k = if t.n = 0 then 0 else max 1 (t.n / window) in
  let w = if k = 0 then 0 else t.n / k in
  let beyond p = w - int_of_float (Float.ceil (p /. 100. *. float w)) in
  let p = Option.value ~default:50. (List.find_opt (fun p -> beyond p >= 10) ladder) in
  let values =
    List.init k (fun i ->
        let s = slice t (i * w) w in
        Array.sort Float.compare s;
        rank s p)
  in
  (p, median values, beyond p, k)

(* Log-bucketed histogram, four buckets per power of two: bucket [k]
   holds samples in [2^(k/4), 2^((k+1)/4)) microseconds.  Printed so a
   reader can see that each reported percentile sits inside a mode
   rather than on the edge between two. *)
let bucket us = if us < 1.0 then 0 else int_of_float (Float.log2 us *. 4.) + 1

let bucket_lo k = if k = 0 then 0.0 else Float.pow 2.0 (float (k - 1) /. 4.)

let histogram ppf ~name t =
  let s = sorted t in
  let n = Array.length s in
  if n > 0 then begin
    let nb = bucket s.(n - 1) + 1 in
    let counts = Array.make nb 0 in
    Array.iter (fun us -> counts.(bucket us) <- counts.(bucket us) + 1) s;
    let tp, tv, tb, tk = tail t in
    Format.fprintf ppf
      "histogram %s: n=%d p50=%.1fus p%g=%.1fus (median of %d windows of %d ops, %d samples beyond \
       in each)@."
      name n (rank s 50.) tp tv tk (n / max 1 tk) tb;
    let peak = Array.fold_left max 1 counts in
    let cum = ref 0 in
    Array.iteri
      (fun k c ->
        if c > 0 then begin
          cum := !cum + c;
          let marks =
            (if rank s 50. >= bucket_lo k && rank s 50. < bucket_lo (k + 1) then " <p50" else "")
            ^
            if tv >= bucket_lo k && tv < bucket_lo (k + 1) then Printf.sprintf " <p%g" tp else ""
          in
          Format.fprintf ppf "  %10.1fus %7d %6.2f%% %s%s@." (bucket_lo k) c
            (100. *. float !cum /. float n)
            (String.make (max 1 (40 * c / peak)) '#')
            marks
        end)
      counts
  end

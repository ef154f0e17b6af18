(* Physical design advisor: the application the paper's conclusion
   proposes ("the cost model is intended ... to automate the task of
   physical database design").

   Ranks all 4 * 2^(n-1) + 1 designs - four extensions times every
   decomposition, plus "no support" - for the paper's own application
   profiles under different operation mixes, and locates break-even
   update probabilities.

   Run with: dune exec examples/design_advisor.exe *)

module Mix = Costmodel.Opmix
module Adv = Costmodel.Advisor
module X = Core.Extension
module D = Core.Decomposition

let section title = Format.printf "@.== %s ==@." title

let show ?max_storage_pages profile mix ~p_up ~top label =
  Format.printf "@.-- %s (P_up = %.3f%s) --@." label p_up
    (match max_storage_pages with
    | Some b -> Printf.sprintf ", storage budget %.0f pages" b
    | None -> "");
  let ranked = Adv.rank ?max_storage_pages profile mix ~p_up in
  Adv.pp_ranked Format.std_formatter (List.filteri (fun i _ -> i < top) ranked)

let () =
  let profile = Workload.Experiments.profile_storage in
  Format.printf "application profile (paper, section 4.4.1):@.%a@." Costmodel.Profile.pp
    profile;

  section "1. A read-mostly workload over the whole path";
  let read_mix =
    Mix.make
      ~queries:[ Mix.query 0 4 0.7; Mix.query ~kind:"fw" 0 4 0.3 ]
      ~updates:[ Mix.ins 3 1.0 ]
  in
  show profile read_mix ~p_up:0.05 ~top:6 "reads dominate";

  section "2. The paper's mixed workload (section 6.4.2)";
  let mix_642 =
    Mix.make
      ~queries:[ Mix.query 0 4 0.5; Mix.query 0 3 0.25; Mix.query ~kind:"fw" 1 2 0.25 ]
      ~updates:[ Mix.ins 2 0.5; Mix.ins 3 0.5 ]
  in
  show profile mix_642 ~p_up:0.2 ~top:6 "mixed";
  show profile mix_642 ~p_up:0.8 ~top:6 "update-heavy";

  section "3. With a storage budget";
  show ~max_storage_pages:120. profile mix_642 ~p_up:0.2 ~top:6 "small budget";

  section "4. Break-even analysis";
  let pairs =
    [ ("full(bi) vs no support", Mix.Design (X.Full, D.binary ~m:4), Mix.No_support);
      ( "left(bi) vs full(bi)",
        Mix.Design (X.Left_complete, D.binary ~m:4),
        Mix.Design (X.Full, D.binary ~m:4) );
      ( "can(0,4) vs left(0,4)",
        Mix.Design (X.Canonical, D.trivial ~m:4),
        Mix.Design (X.Left_complete, D.trivial ~m:4) ) ]
  in
  List.iter
    (fun (label, a, b) ->
      match Mix.break_even profile a b mix_642 with
      | Some p -> Format.printf "%-28s loses above P_up = %.3f@." label p
      | None -> Format.printf "%-28s never loses on [0,1]@." label)
    pairs;

  section "4b. Measure a real base and materialise the winner";
  (* The advisor can also run against a profile measured from a live
     base (Engine.measure_profile) and apply its recommendation
     directly. *)
  let spec =
    Workload.Generator.spec ~seed:77
      ~counts:[ 200; 400; 800; 1600 ]
      ~defined:[ 190; 380; 760 ] ~fan:[ 2; 2; 2 ] ()
  in
  let store, gpath = Workload.Generator.build spec in
  let live_mix = Mix.make ~queries:[ Mix.query 0 3 1.0 ] ~updates:[ Mix.ins 2 1.0 ] in
  let best, built = Workload.Autodesign.auto store gpath live_mix ~p_up:0.1 in
  Format.printf "measured winner: %s (%.2f pages/op)@."
    (Mix.design_name best.Adv.design)
    best.Adv.expected_cost;
  (match built with
  | Some a ->
    Format.printf "materialised %d tuples over %d partitions@." (Core.Asr.cardinal a)
      (Core.Asr.partition_count a)
  | None -> Format.printf "no index needed@.");

  section "5. How the winner changes with the update probability";
  Format.printf "%-8s %s@." "P_up" "best design";
  List.iter
    (fun p_up ->
      let best = Adv.best profile mix_642 ~p_up in
      Format.printf "%-8.2f %s (%.2f pages/op)@." p_up
        (Mix.design_name best.Adv.design)
        best.Adv.expected_cost)
    [ 0.01; 0.1; 0.3; 0.5; 0.7; 0.9; 0.99 ];
  Format.printf "@.done.@."

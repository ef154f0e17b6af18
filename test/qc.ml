(* Reproducible QCheck randomness for the whole suite.

   Every property test is registered through [Qc.to_alcotest], which
   seeds QCheck's generator from one run-level seed: the value of
   ASR_QCHECK_SEED when set, a fresh random one otherwise.  The seed is
   printed on startup either way, so any property failure — including
   one seen only in CI — reproduces exactly with

     ASR_QCHECK_SEED=<printed seed> dune exec test/test_main.exe

   Each test derives its own Random.State from the run seed, so running
   a filtered subset of suites does not shift the randomness of the
   tests that do run. *)

let seed =
  match Sys.getenv_opt "ASR_QCHECK_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None ->
      Printf.eprintf "ASR_QCHECK_SEED=%S is not an integer\n%!" s;
      exit 2)
  | None ->
    Random.self_init ();
    Random.int 0x3FFFFFFF

let () =
  Printf.eprintf "QCheck seed: %d (reproduce with ASR_QCHECK_SEED=%d)\n%!" seed seed

let to_alcotest test = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test

(* Iteration counts that CI raises for fuzz runs: the positive integer
   in environment variable [name], else [default]. *)
let iters_env name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> default

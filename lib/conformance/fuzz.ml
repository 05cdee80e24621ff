module R = Umlfront_casestudies.Random_models
module Flow = Umlfront_core.Flow
module Capture = Umlfront_core.Capture
module Lint = Umlfront_analysis.Lint
module Xmi = Umlfront_uml.Xmi
module Mdl_writer = Umlfront_simulink.Mdl_writer
module Obs = Umlfront_obs

type case = {
  index : int;
  case_seed : int;
  shape : string;
  uml : Umlfront_uml.Model.t;
  caam : Umlfront_simulink.Model.t;
  report : Conform.report;
}

type counterexample = {
  case : case;
  minimized : Umlfront_simulink.Model.t;
  shrink_stats : Shrink.stats option;
  corpus_dir : string option;
}

type outcome = {
  checked : int;
  skipped : int;
  failures : counterexample list;
}

(* Every generator takes a state seeded by the case seed for its size
   parameters, so (shape, case_seed) alone regenerates the model. *)
let shapes =
  [|
    ( "pipeline",
      fun st seed ->
        R.pipeline ~seed
          ~threads:(3 + Random.State.int st 3)
          ~extra_edges:(Random.State.int st 3) );
    ( "wide",
      fun st seed ->
        R.wide ~seed
          ~branches:(2 + Random.State.int st 3)
          ~depth:(1 + Random.State.int st 2) );
    ("monolithic", fun st seed -> R.monolithic ~seed ~calls:(3 + Random.State.int st 6));
    ("cyclic", fun st seed -> R.cyclic ~seed ~stages:(Random.State.int st 4));
    ( "multi-cpu",
      fun st seed ->
        R.multi_cpu ~seed
          ~threads:(3 + Random.State.int st 3)
          ~cpus:(2 + Random.State.int st 2)
          ~extra_edges:(Random.State.int st 2) );
    ( "chatty",
      fun st seed ->
        R.chatty ~seed
          ~threads:(2 + Random.State.int st 3)
          ~width:(1 + Random.State.int st 3) );
  |]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_corpus ~corpus ~rounds ~seed ~count (case : case) minimized =
  let failing = List.map fst (Conform.disagreements case.report) in
  let backends = String.concat "," (List.map Conform.backend_name failing) in
  let dir =
    Filename.concat corpus
      (Printf.sprintf "%s-%s" case.report.Conform.model_name case.shape)
  in
  mkdir_p dir;
  Xmi.save case.uml (Filename.concat dir "original.xmi");
  Mdl_writer.save minimized (Filename.concat dir "minimized.mdl");
  (* The capture pass rejects some shrunk models (it needs the CPU-SS
     role markings); the .mdl is the authoritative repro either way. *)
  (try Xmi.save (Capture.run minimized) (Filename.concat dir "minimized.xmi")
   with _ -> ());
  write_file
    (Filename.concat dir "repro.txt")
    (Printf.sprintf
       "Conformance counterexample: backend(s) [%s] disagree with the reference \
        executor.\n\n\
        Reproduce on the minimized CAAM:\n\
       \  umlfront conform minimized.mdl --rounds %d --backends %s\n\n\
        Reproduce on the original UML model:\n\
       \  umlfront conform original.xmi --rounds %d --backends %s\n\n\
        Re-run the fuzz case that found it (case %d, shape %s, seed %d):\n\
       \  umlfront fuzz --seed %d --count %d --shrink\n"
       backends rounds backends rounds backends case.index case.shape
       case.case_seed seed count);
  dir

let run ?backends ?engine ?(rounds = 10) ?(shrink = true) ?corpus ?corrupt ?progress ?ctx
    ~seed ~count () =
  (match ctx with Some c -> Obs.Context.with_current c | None -> fun f -> f ())
  @@ fun () ->
  Obs.Trace.with_span ~cat:"conform" "conform.fuzz" @@ fun () ->
  let state = Random.State.make [| seed; 0x5eed |] in
  let checked = ref 0 and skipped = ref 0 in
  let failures = ref [] in
  for index = 0 to count - 1 do
    let shape, gen = shapes.(index mod Array.length shapes) in
    let case_seed = Random.State.int state 1_000_000 in
    let uml = gen (Random.State.make [| case_seed |]) case_seed in
    match
      let caam = (Flow.run uml).Flow.caam in
      if Lint.check ~uml caam = [] then Some caam else None
    with
    | None | (exception Invalid_argument _) -> incr skipped
    | Some caam ->
        let report = Conform.check ?backends ?engine ~rounds ?corrupt caam in
        incr checked;
        let case = { index; case_seed; shape; uml; caam; report } in
        (match progress with Some f -> f case | None -> ());
        if not (Conform.agree report) then (
          let failing = List.map fst (Conform.disagreements report) in
          let minimized, shrink_stats =
            if shrink then (
              let repro m =
                not (Conform.agree (Conform.check ~backends:failing ?engine ~rounds ?corrupt m))
              in
              let m, stats = Shrink.minimize ~repro caam in
              (m, Some stats))
            else (caam, None)
          in
          let corpus_dir =
            Option.map
              (fun corpus -> write_corpus ~corpus ~rounds ~seed ~count case minimized)
              corpus
          in
          failures := { case; minimized; shrink_stats; corpus_dir } :: !failures)
  done;
  Obs.Metrics.incr "conform.fuzz.cases" ~by:!checked;
  Obs.Metrics.incr "conform.fuzz.skipped" ~by:!skipped;
  Obs.Metrics.incr "conform.fuzz.failures" ~by:(List.length !failures);
  { checked = !checked; skipped = !skipped; failures = List.rev !failures }

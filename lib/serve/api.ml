module U = Umlfront_uml
module Core = Umlfront_core
module Dataflow = Umlfront_dataflow
module Codegen = Umlfront_codegen
module A = Umlfront_analysis
module Conf = Umlfront_conformance.Conform
module Obs = Umlfront_obs
module Json = Umlfront_obs.Json

exception Timeout

type endpoint =
  | Lint
  | Transform
  | Simulate
  | Conform
  | Generate of [ `C | `Java | `Kpn ]

let endpoint_name = function
  | Lint -> "lint"
  | Transform -> "transform"
  | Simulate -> "simulate"
  | Conform -> "conform"
  | Generate `C -> "generate/c"
  | Generate `Java -> "generate/java"
  | Generate `Kpn -> "generate/kpn"

let all_endpoints =
  [ Lint; Transform; Simulate; Conform; Generate `C; Generate `Java; Generate `Kpn ]

let endpoint_of_path path =
  List.find_opt (fun e -> path = "/api/" ^ endpoint_name e) all_endpoints

type options = {
  strategy : Core.Flow.allocation_strategy;
  rounds : int;
  engine : Conf.engine;
  backends : Conf.backend list option;
  file : string option;
  trace : bool;
}

let default_options =
  {
    strategy = Core.Flow.Prefer_deployment;
    rounds = 10;
    engine = `Seq;
    backends = None;
    file = None;
    trace = false;
  }

let max_rounds = 10_000

(* The query string mirrors the CLI flag vocabulary; [cpus] wins over
   [strategy] exactly as `--cpus` does in bin/umlfront. *)
let options_of_query query =
  let ( let* ) = Result.bind in
  let rec fold opts cpus = function
    | [] -> Ok (opts, cpus)
    | (key, value) :: rest -> (
        match key with
        | "strategy" ->
            let* strategy =
              match value with
              | "deployment" -> Ok Core.Flow.Use_deployment
              | "prefer-deployment" -> Ok Core.Flow.Prefer_deployment
              | "linear" -> Ok Core.Flow.Infer_linear
              | other -> Error (Printf.sprintf "unknown strategy %S" other)
            in
            fold { opts with strategy } cpus rest
        | "cpus" -> (
            match int_of_string_opt value with
            | Some n when n >= 1 -> fold opts (Some n) rest
            | _ -> Error (Printf.sprintf "invalid cpus %S" value))
        | "rounds" -> (
            match int_of_string_opt value with
            | Some n when n >= 1 && n <= max_rounds ->
                fold { opts with rounds = n } cpus rest
            | _ ->
                Error
                  (Printf.sprintf "invalid rounds %S (expected 1..%d)" value
                     max_rounds))
        | "engine" ->
            let* engine = Conf.engine_of_string value in
            fold { opts with engine } cpus rest
        | "backends" ->
            let* backends =
              List.fold_left
                (fun acc name ->
                  let* acc = acc in
                  let* b = Conf.backend_of_string (String.trim name) in
                  Ok (b :: acc))
                (Ok [])
                (String.split_on_char ',' value)
            in
            fold { opts with backends = Some (List.rev backends) } cpus rest
        | "file" -> fold { opts with file = Some value } cpus rest
        | "trace" -> (
            match value with
            | "1" | "true" -> fold { opts with trace = true } cpus rest
            | "0" | "false" -> fold { opts with trace = false } cpus rest
            | other -> Error (Printf.sprintf "invalid trace %S" other))
        | other -> Error (Printf.sprintf "unknown query parameter %S" other))
  in
  match fold default_options None query with
  | Error _ as e -> e
  | Ok (opts, cpus) -> (
      match cpus with
      | Some n -> Ok { opts with strategy = Core.Flow.Infer_bounded n }
      | None -> Ok opts)

(* --- error bodies ---------------------------------------------------- *)

(* Errors wear the same JSON clothes as lint findings: a Diagnostic.t
   list rendered through the one shared encoder.  UF901 = the request
   body is not parseable XMI; UF902 = the model parsed but the flow (or
   an executor) rejected it.  Codes are stable, like the lint catalog
   (doc/serving.md). *)

let diagnostic_body d =
  Json.to_string (Json.List [ A.Diagnostic.list_to_json [ d ] ]) ^ "\n"

let parse_model body =
  let malformed message =
    Error
      (A.Diagnostic.error ~code:"UF901" ~path:[ "request"; "body" ]
         ~hint:"POST the XMI text of a UML model, as written by `umlfront example`"
         ("malformed XMI" ^ message))
  in
  match U.Xmi.of_string body with
  | model -> Ok model
  | exception Umlfront_xml.Xml.Parse_error { line; column; message } ->
      malformed (Printf.sprintf " at %d:%d: %s" line column message)
  | exception (Failure m | Invalid_argument m) -> malformed (": " ^ m)

(* --- cache identity -------------------------------------------------- *)

let canonical_options endpoint opts =
  String.concat "\n"
    [
      "endpoint=" ^ endpoint_name endpoint;
      "rounds=" ^ string_of_int opts.rounds;
      "engine=" ^ Conf.engine_name opts.engine;
      ( "backends="
      ^
      match opts.backends with
      | None -> "all"
      | Some bs -> String.concat "," (List.map Conf.backend_name bs) );
      ("file=" ^ match opts.file with None -> "" | Some f -> f);
    ]

let cache_key endpoint opts uml =
  Sha256.hex
    (canonical_options endpoint opts ^ "\n"
    ^ Core.Flow.cache_material ~strategy:opts.strategy uml)

(* --- endpoints ------------------------------------------------------- *)

type outcome = { status : int; content_type : string; body : string }

let json_outcome ?(status = 200) body =
  { status; content_type = "application/json"; body }

let check_deadline deadline =
  match deadline with
  | Some t when Unix.gettimeofday () > t -> raise Timeout
  | _ -> ()

let flow ?deadline opts uml =
  let output = Core.Flow.run ~strategy:opts.strategy uml in
  check_deadline deadline;
  output

(* Exactly the CLI's `lint --format json` bytes: a list with one entry
   per model (one, here), through the shared Diagnostic encoder. *)
let lint ?deadline opts uml =
  let output = flow ?deadline opts uml in
  let ds = A.Lint.check ~uml output.Core.Flow.caam in
  json_outcome
    (Json.to_string
       (Json.List [ A.Diagnostic.list_to_json ?file:opts.file ds ])
    ^ "\n")

let transform ?deadline opts uml =
  let output = flow ?deadline opts uml in
  json_outcome
    (Json.to_string
       (Json.Obj
          [
            ("model", Json.String uml.U.Model.model_name);
            ("strategy", Json.String (Core.Flow.strategy_name opts.strategy));
            ( "allocation",
              Json.List
                (List.map
                   (fun (thread, cpu) ->
                     Json.Obj
                       [
                         ("thread", Json.String thread); ("cpu", Json.String cpu);
                       ])
                   output.Core.Flow.allocation) );
            ("intra_channels", Json.Int output.Core.Flow.intra_channels);
            ("inter_channels", Json.Int output.Core.Flow.inter_channels);
            ("delays_inserted", Json.Int output.Core.Flow.delays_inserted);
            ( "broken_cycles",
              Json.List
                (List.map
                   (fun cycle ->
                     Json.List (List.map (fun b -> Json.String b) cycle))
                   output.Core.Flow.broken_cycles) );
            ( "fsms",
              Json.List
                (List.map
                   (fun (name, _) -> Json.String name)
                   output.Core.Flow.fsms) );
            ("mdl", Json.String output.Core.Flow.mdl);
          ])
    ^ "\n")

let simulate ?deadline opts uml =
  let output = flow ?deadline opts uml in
  let sdf = Dataflow.Sdf.of_model output.Core.Flow.caam in
  check_deadline deadline;
  let outcome =
    match opts.engine with
    | `Seq -> Dataflow.Exec.run ~rounds:opts.rounds sdf
    | `Compiled -> Dataflow.Compiled.run ~rounds:opts.rounds sdf
  in
  check_deadline deadline;
  json_outcome
    (Json.to_string
       (Json.Obj
          [
            ("model", Json.String uml.U.Model.model_name);
            ("rounds", Json.Int outcome.Dataflow.Exec.rounds);
            ("engine", Json.String (Conf.engine_name opts.engine));
            ( "traces",
              Json.List
                (List.map
                   (fun (port, samples) ->
                     Json.Obj
                       [
                         ("port", Json.String port);
                         ( "samples",
                           Json.List
                             (Array.to_list
                                (Array.map (fun v -> Json.Float v) samples)) );
                       ])
                   outcome.Dataflow.Exec.traces) );
            ( "firings",
              Json.Obj
                (List.map
                   (fun (actor, n) -> (actor, Json.Int n))
                   outcome.Dataflow.Exec.firings) );
          ])
    ^ "\n")

(* Exactly the CLI's `conform --format json` bytes. *)
let conform ?deadline opts uml =
  let output = flow ?deadline opts uml in
  let report =
    Conf.check ?backends:opts.backends ~engine:opts.engine ~rounds:opts.rounds
      output.Core.Flow.caam
  in
  check_deadline deadline;
  json_outcome (Json.to_string (Conf.to_json report) ^ "\n")

let generate ?deadline lang opts uml =
  let output = flow ?deadline opts uml in
  let caam = output.Core.Flow.caam in
  let diagnostics = A.Lint.check ~uml caam in
  check_deadline deadline;
  let language, files =
    match lang with
    | `C -> ("c", (Codegen.Gen_threads.generate ~rounds:opts.rounds caam).Codegen.Gen_threads.files)
    | `Java ->
        ("java", [ ("GeneratedModel.java", Codegen.Gen_java.generate ~rounds:opts.rounds caam) ])
    | `Kpn -> ("kpn", [ ("model_kpn.ml", Codegen.Gen_kpn.generate ~rounds:opts.rounds caam) ])
  in
  check_deadline deadline;
  json_outcome
    (Json.to_string
       (Json.Obj
          [
            ("model", Json.String uml.U.Model.model_name);
            ("language", Json.String language);
            ("rounds", Json.Int opts.rounds);
            ("diagnostics", A.Diagnostic.list_to_json diagnostics);
            ( "files",
              Json.Obj (List.map (fun (name, text) -> (name, Json.String text)) files)
            );
          ])
    ^ "\n")

let run ?deadline endpoint opts uml =
  let dispatch () =
    match endpoint with
    | Lint -> lint ?deadline opts uml
    | Transform -> transform ?deadline opts uml
    | Simulate -> simulate ?deadline opts uml
    | Conform -> conform ?deadline opts uml
    | Generate lang -> generate ?deadline lang opts uml
  in
  match dispatch () with
  | outcome -> outcome
  | exception (Failure m | Invalid_argument m) ->
      {
        status = 422;
        content_type = "application/json";
        body =
          diagnostic_body
            (A.Diagnostic.error ~code:"UF902" ~path:[ "flow" ]
               (Printf.sprintf "flow rejected the model: %s" m));
      }
  | exception Dataflow.Exec.Deadlock cycle ->
      {
        status = 422;
        content_type = "application/json";
        body =
          diagnostic_body
            (A.Diagnostic.error ~code:"UF902" ~path:[ "flow" ]
               ("deadlock (zero-delay cycle): " ^ String.concat " -> " cycle));
      }

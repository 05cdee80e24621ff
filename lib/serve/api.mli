(** The serving API: pure endpoint logic, no sockets.

    Each compute endpoint takes a parsed UML model plus the options
    decoded from the query string and returns a complete response
    payload.  {!Server} wraps this with transport, admission control,
    caching and telemetry; the test suite and the bench call it (and
    the server) directly.

    JSON bodies reuse the CLI's encoders byte-for-byte:
    - [POST /api/lint] emits exactly what
      [umlfront lint --format json MODEL] prints (pass [?file=MODEL] to
      reproduce the [file] field);
    - [POST /api/conform] emits exactly what
      [umlfront conform --format json MODEL] prints.
    Both go through the single shared encoders
    ({!Umlfront_analysis.Diagnostic.list_to_json},
    {!Umlfront_conformance.Conform.to_json}), so server and CLI cannot
    drift. *)

exception Timeout
(** Raised between pipeline phases once the request deadline passed;
    the server maps it to [503] with [Retry-After]. *)

type endpoint =
  | Lint
  | Transform
  | Simulate
  | Conform
  | Generate of [ `C | `Java | `Kpn ]

val endpoint_name : endpoint -> string
(** ["lint"], ["transform"], …, ["generate/c"]. *)

val endpoint_of_path : string -> endpoint option
(** Recognizes ["/api/lint"], …, ["/api/generate/c"]. *)

val all_endpoints : endpoint list

type options = {
  strategy : Umlfront_core.Flow.allocation_strategy;
  rounds : int;  (** execution rounds (simulate/conform/generate) *)
  engine : Umlfront_conformance.Conform.engine;
  backends : Umlfront_conformance.Conform.backend list option;
      (** conform only; [None] = all *)
  file : string option;  (** echoed in the lint JSON, CLI-style *)
  trace : bool;
      (** retain this request's span tree ([?trace=1]).  Deliberately
          {e not} part of {!cache_key}: tracing a request must not
          change what it computes or where it caches. *)
}

val default_options : options
(** [Prefer_deployment], 10 rounds, [`Seq] engine, all backends. *)

val options_of_query : (string * string) list -> (options, string) result
(** Query vocabulary: [strategy=deployment|prefer-deployment|linear],
    [cpus=N] (bounded inference, wins over [strategy] as in the CLI),
    [rounds=N] (1..10000), [engine=seq|compiled], [backends=a,b,...],
    [file=PATH], [trace=0|1].  Unknown keys are rejected — a typo must
    not silently select a default. *)

val parse_model :
  string -> (Umlfront_uml.Model.t, Umlfront_analysis.Diagnostic.t) result
(** Parse request-body XMI.  Malformed input comes back as a
    [Diagnostic.t] with code [UF901] for a 422 response. *)

val diagnostic_body : Umlfront_analysis.Diagnostic.t -> string
(** One diagnostic as a 422 body, in the lint endpoint's JSON shape. *)

val cache_key : endpoint -> options -> Umlfront_uml.Model.t -> string
(** SHA-256 hex over endpoint + canonical options +
    {!Umlfront_core.Flow.cache_material} — equal keys guarantee equal
    response bodies. *)

type outcome = { status : int; content_type : string; body : string }

val run : ?deadline:float -> endpoint -> options -> Umlfront_uml.Model.t -> outcome
(** Execute one endpoint.  Flow/executor failures (unflattenable model,
    zero-delay deadlock, missing deployment diagram, …) return a 422
    outcome whose body is a [UF902] diagnostic in the same JSON shape
    the lint endpoint uses; only {!Timeout} escapes as an exception.

    @raise Timeout once [deadline] (absolute, [Unix.gettimeofday]
    clock) has passed at a phase boundary. *)

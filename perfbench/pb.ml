(* The benchmark's in-process half.

   pb gen WORKLOAD SEED SECONDS DIR
     Builds the workload's seeded models (XMI files in DIR), its fixed
     operation sequence and one reference digest per operation, and
     writes them as DIR/plan.json.  References come from the code paths
     the CLI runs (lint JSON, `map` .mdl, `codegen` files) and from the
     sequential [Exec] engine for every trace, never from the daemon.

   pb replay DIR OPS OUT_PREFIX
     Replays the first OPS measured operations of DIR/plan.json
     in-process, through each layer's public functions, once with span
     recording off and once with it on (interleaved per operation), and
     prints the per-layer metrics as one JSON object.  The spans go to
     OUT_PREFIX.trace.json (Chrome trace) and OUT_PREFIX.layers.txt
     (per-layer self time).

   run.py drives both; see README.md. *)

module R = Umlfront_casestudies.Random_models
module U = Umlfront_uml
module Core = Umlfront_core
module Df = Umlfront_dataflow
module A = Umlfront_analysis
module Codegen = Umlfront_codegen
module Api = Umlfront_serve.Api
module Http = Umlfront_serve.Http
module Cache = Umlfront_serve.Cache
module Sha256 = Umlfront_serve.Sha256
module Obs = Umlfront_obs
module Json = Umlfront_obs.Json
module Pool = Umlfront_parallel.Pool

let md5 s = Digest.to_hex (Digest.string s)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* --- workload definitions -------------------------------------------- *)

(* Measured operations per second of [--seconds]; the counts are fixed
   before anything runs, so a run never stops on a timer.  On a 2-core
   x86 VM, serve-hot measures for about [--seconds].  serve-cold
   measures for about 60% of it, because generating its thousands of
   distinct inputs and their references takes several seconds more per
   run.  cli-simulate runs at about 30/s, so it measures for longer
   than [--seconds]: it has the slowest operations and the widest
   run-to-run spread, and a longer run averages over more of the
   host's speed phases. *)
let serve_hot_rate = 230
let serve_cold_rate = 80
let cli_rate = 52

(* At least this many measured operations, so that ten samples lie
   beyond the p99. *)
let min_ops = 1000

let cold_cache_mb = 2
let cold_warmup = 40
let cli_rounds = 1000
let serve_rounds = 10 (* Api.default_options.rounds *)

type model = { file : string; xmi : string }

type key = {
  m : int;  (** model index *)
  ep : string;  (** endpoint: lint | transform | simulate | generate/c | cli *)
  q : string;  (** query string, without '?' *)
  reference : string;  (** md5 the output must reproduce *)
  lines : int;  (** cli only: stdout lines the reference covers *)
  req : string;  (** serve only: file holding the exact request bytes *)
}

let random_model shape ~seed ~threads =
  match shape with
  | "pipeline" -> R.pipeline ~seed ~threads ~extra_edges:(threads / 4)
  | "wide" -> R.wide ~seed ~branches:(max 2 ((threads - 2) / 2)) ~depth:2
  | "cyclic" -> R.cyclic ~seed ~stages:(max 1 (threads - 2))
  | "multi_cpu" -> R.multi_cpu ~seed ~threads ~cpus:3 ~extra_edges:(threads / 4)
  | "chatty" -> R.chatty ~seed ~threads ~width:2
  | other -> invalid_arg ("unknown shape " ^ other)

(* A seeded model whose XMI lands within 3% of [target] bytes (the
   first seed in the stream that does, else the closest of 64), so a
   different workload seed changes the model's structure but hardly
   its cost. *)
let sized_model st shape ~threads ~target =
  let rec pick best n =
    if n = 0 then best
    else
      let seed = Random.State.bits st in
      let xmi = U.Xmi.to_string (random_model shape ~seed ~threads) in
      let err = abs (String.length xmi - target) in
      let best =
        match best with Some (e, _) when e <= err -> best | _ -> Some (err, xmi)
      in
      if err * 100 <= 3 * target then best else pick best (n - 1)
  in
  match pick None 64 with Some (_, xmi) -> xmi | None -> assert false

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [n] operations over [block] strata: every stratum appears equally
   often, in a seeded order that changes every block. *)
let stratified st ~block n =
  let blocks = (n + block - 1) / block in
  List.concat
    (List.init blocks (fun _ ->
         let a = Array.init block Fun.id in
         shuffle st a;
         Array.to_list a))

(* --- references ------------------------------------------------------- *)

(* Samples rendered as the daemon's JSON renders them. *)
let json_traces (o : Df.Exec.outcome) =
  String.concat "\n"
    (List.map
       (fun (port, samples) ->
         port ^ ":"
         ^ String.concat ","
             (Array.to_list (Array.map (fun v -> Json.to_string (Json.Float v)) samples)))
       o.Df.Exec.traces)

(* The trace lines `umlfront simulate` prints before its timing report. *)
let cli_traces (o : Df.Exec.outcome) =
  String.concat ""
    (List.map
       (fun (port, samples) ->
         let b = Buffer.create 1024 in
         Buffer.add_string b (port ^ ":");
         Array.iter (fun v -> Buffer.add_string b (Printf.sprintf " %.6f" v)) samples;
         Buffer.add_char b '\n';
         Buffer.contents b)
       o.Df.Exec.traces)

let files_digest files =
  md5 (String.concat "" (List.map (fun (name, text) -> name ^ "\n" ^ text ^ "\n") files))

(* What the output of [ep] on this model must hash to.  Each reference
   follows the CLI's own code path for the same request; simulate
   traces come from the sequential reference executor, whatever engine
   the request names. *)
let reference k ~file xmi =
  Obs.Context.with_current (Obs.Context.create ()) @@ fun () ->
  let uml = U.Xmi.of_string xmi in
  let out = Core.Flow.run uml in
  let caam = out.Core.Flow.caam in
  let digest d = { k with reference = d } in
  match k.ep with
  | "lint" ->
      let ds = A.Lint.check ~uml caam in
      digest (md5 (Json.to_string (Json.List [ A.Diagnostic.list_to_json ~file ds ]) ^ "\n"))
  | "transform" -> digest (md5 out.Core.Flow.mdl)
  | "simulate" ->
      digest (md5 (json_traces (Df.Exec.run ~rounds:serve_rounds (Df.Sdf.of_model caam))))
  | "generate/c" ->
      let g = Codegen.Gen_threads.generate ~rounds:serve_rounds caam in
      digest (files_digest g.Codegen.Gen_threads.files)
  | "cli" ->
      let o = Df.Exec.run ~rounds:cli_rounds (Df.Sdf.of_model caam) in
      { k with reference = md5 (cli_traces o); lines = List.length o.Df.Exec.traces }
  | other -> invalid_arg ("unknown endpoint " ^ other)

let endpoints = [| "lint"; "transform"; "simulate"; "generate/c" |]

(* An endpoint's key for model [m]; lint echoes the file name the way
   `umlfront lint FILE` does. *)
let key m ep file =
  let q = match ep with "lint" -> "file=" ^ file | "simulate" -> "engine=compiled" | _ -> "" in
  { m; ep; q; reference = ""; lines = 0; req = "" }

(* --- plans ------------------------------------------------------------ *)

type plan = {
  workload : string;
  seed : int;
  rounds : int;
  cache_mb : int;  (** 0: the daemon's default budget *)
  models : model array;
  keys : key array;
  warmup : int list;  (** key indices, replayed by every set-up *)
  measure : int list;  (** key indices, the measured sequence *)
}

let model_file i = Printf.sprintf "m%d.xml" i

let round_up n block = (n + block - 1) / block * block

(* The editor re-checking unchanged models: crane plus random models of
   about 25 and 55 KB, each with all four endpoints.  Three size groups
   put the p50 inside the middle group, not on a step between two. *)
let serve_hot ~seed ~seconds =
  let st = Random.State.make [| seed; 1 |] in
  let specs = [ ("pipeline", 23, 25_000); ("wide", 36, 55_000) ] in
  let crane =
    { file = model_file 0; xmi = U.Xmi.to_string (Umlfront_casestudies.Crane_system.model ()) }
  in
  let models =
    Array.of_list
      (crane
      :: List.mapi
           (fun i (shape, threads, target) ->
             let xmi = sized_model st shape ~threads ~target in
             { file = model_file (i + 1); xmi })
           specs)
  in
  let keys =
    Array.concat
      (Array.to_list
         (Array.mapi (fun m md -> Array.map (fun ep -> key m ep md.file) endpoints) models))
  in
  let nkeys = Array.length keys in
  let n = round_up (max min_ops (serve_hot_rate * seconds)) nkeys in
  {
    workload = "serve-hot";
    seed;
    rounds = serve_rounds;
    cache_mb = 0;
    models;
    keys;
    warmup = List.init nkeys Fun.id;
    measure = stratified st ~block:nkeys n;
  }

let cold_shapes = [| "pipeline"; "wide"; "cyclic"; "multi_cpu"; "chatty" |]

(* CI batch traffic: every request a distinct model.  The measured
   sequence is whole blocks of every (6..30 threads, shape, endpoint)
   stratum; the warm-up is every (shape, endpoint) pair at 12 and at 24
   threads. *)
let serve_cold ~seed ~seconds =
  let st = Random.State.make [| seed; 2 |] in
  let nshapes = Array.length cold_shapes and neps = Array.length endpoints in
  let sizes = 25 in
  let block = sizes * nshapes * neps in
  let n = round_up (max min_ops (serve_cold_rate * seconds)) block in
  let warm =
    List.init cold_warmup (fun i ->
        let threads = if i < cold_warmup / 2 then 12 else 24 in
        (cold_shapes.(i mod nshapes), threads, endpoints.(i / nshapes mod neps)))
  in
  let measured =
    List.map
      (fun s ->
        let shape = cold_shapes.(s / sizes mod nshapes) in
        (shape, 6 + (s mod sizes), endpoints.(s / (sizes * nshapes))))
      (stratified st ~block n)
  in
  let ops =
    Array.of_list
      (List.mapi
         (fun i (shape, threads, ep) ->
           let file = model_file i in
           let xmi = U.Xmi.to_string (random_model shape ~seed:(Random.State.bits st) ~threads) in
           ({ file; xmi }, key i ep file))
         (warm @ measured))
  in
  {
    workload = "serve-cold";
    seed;
    rounds = serve_rounds;
    cache_mb = cold_cache_mb;
    models = Array.map fst ops;
    keys = Array.map snd ops;
    warmup = List.init cold_warmup Fun.id;
    measure = List.init n (fun i -> cold_warmup + i);
  }

(* A CLI user: 13 models of 20, 25, ..., 80 threads over all shapes,
   simulated on the compiled engine.  Each model's XMI size is held to
   that of a fixed-seed model of its shape and size, so the seed
   changes structure, not cost. *)
let cli_simulate ~seed ~seconds =
  let st = Random.State.make [| seed; 3 |] in
  let models =
    Array.init 13 (fun i ->
        let threads = 20 + (5 * i) in
        let shape = cold_shapes.(i mod Array.length cold_shapes) in
        let target = String.length (U.Xmi.to_string (random_model shape ~seed:i ~threads)) in
        let xmi = sized_model st shape ~threads ~target in
        { file = model_file i; xmi })
  in
  let nm = Array.length models in
  let n = round_up (max min_ops (cli_rate * seconds)) nm in
  {
    workload = "cli-simulate";
    seed;
    rounds = cli_rounds;
    cache_mb = 0;
    models;
    keys = Array.init nm (fun m -> key m "cli" "");
    warmup = List.init nm Fun.id;
    measure = stratified st ~block:nm n;
  }

let plan_json p =
  let ints l = Json.List (List.map (fun i -> Json.Int i) l) in
  Json.Obj
    [
      ("workload", Json.String p.workload);
      ("seed", Json.Int p.seed);
      ("rounds", Json.Int p.rounds);
      ("cache_mb", Json.Int p.cache_mb);
      ("models", Json.List (Array.to_list (Array.map (fun md -> Json.String md.file) p.models)));
      ( "keys",
        Json.List
          (Array.to_list
             (Array.map
                (fun k ->
                  Json.Obj
                    [
                      ("m", Json.Int k.m);
                      ("ep", Json.String k.ep);
                      ("q", Json.String k.q);
                      ("ref", Json.String k.reference);
                      ("lines", Json.Int k.lines);
                      ("req", Json.String k.req);
                    ])
                p.keys)) );
      ("warmup", ints p.warmup);
      ("measure", ints p.measure);
    ]

(* The one definition of a served request's bytes: run.py sends these
   files as they are and the replay decodes the same files. *)
let request_bytes p k =
  let md = p.models.(k.m) in
  let target = "/api/" ^ k.ep ^ if k.q = "" then "" else "?" ^ k.q in
  let close = if p.workload = "serve-cold" then "Connection: close\r\n" else "" in
  Printf.sprintf "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n%s\r\n%s"
    target (String.length md.xmi) close md.xmi

let gen workload seed seconds dir =
  let p =
    match workload with
    | "serve-hot" -> serve_hot ~seed ~seconds
    | "serve-cold" -> serve_cold ~seed ~seconds
    | "cli-simulate" -> cli_simulate ~seed ~seconds
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  Array.iter (fun md -> write_file (Filename.concat dir md.file) md.xmi) p.models;
  let keys =
    if workload = "cli-simulate" then p.keys
    else
      Array.mapi
        (fun i k ->
          let req = Printf.sprintf "k%d.http" i in
          write_file (Filename.concat dir req) (request_bytes p k);
          { k with req })
        p.keys
  in
  let keys =
    Pool.with_pool ~domains:2 (fun pool ->
        Pool.map_array ~chunk:8 pool
          (fun k ->
            let md = p.models.(k.m) in
            reference k ~file:md.file md.xmi)
          keys)
  in
  write_file (Filename.concat dir "plan.json") (Json.to_string (plan_json { p with keys }))

(* --- reading a plan back ---------------------------------------------- *)

let member k j =
  match Json.member k j with Some v -> v | None -> failwith ("plan.json: no " ^ k)

let int_of j = match j with Json.Int i -> i | _ -> failwith "plan.json: int expected"
let str_of j = match j with Json.String s -> s | _ -> failwith "plan.json: string expected"

let load_plan dir =
  let j = Json.parse_exn (read_file (Filename.concat dir "plan.json")) in
  let models =
    Array.of_list
      (List.map
         (fun m ->
           let file = str_of m in
           { file; xmi = read_file (Filename.concat dir file) })
         (Json.items (member "models" j)))
  in
  let keys =
    Array.of_list
      (List.map
         (fun k ->
           {
             m = int_of (member "m" k);
             ep = str_of (member "ep" k);
             q = str_of (member "q" k);
             reference = str_of (member "ref" k);
             lines = int_of (member "lines" k);
             req = str_of (member "req" k);
           })
         (Json.items (member "keys" j)))
  in
  let ints k = List.map int_of (Json.items (member k j)) in
  {
    workload = str_of (member "workload" j);
    seed = int_of (member "seed" j);
    rounds = int_of (member "rounds" j);
    cache_mb = int_of (member "cache_mb" j);
    models;
    keys;
    warmup = ints "warmup";
    measure = ints "measure";
  }

(* --- spans ------------------------------------------------------------ *)

(* The benchmark's own span recorder: name, start, end, parent and
   operation id, kept in memory and written out at exit.  Off, a span
   costs one branch. *)
module Spans = struct
  type span = { id : int; parent : int; name : string; op : int; t0 : float; t1 : float }

  let on = ref false
  let all : span list ref = ref []
  let stack : int list ref = ref []
  let next = ref 0
  let now_us () = Unix.gettimeofday () *. 1e6

  let fresh () =
    let id = !next in
    incr next;
    id

  let parent () = match !stack with p :: _ -> p | [] -> -1
  let last () = match !all with s :: _ -> s.id | [] -> -1

  let with_span ~op name f =
    if not !on then f ()
    else begin
      let id = fresh () and parent = parent () in
      stack := id :: !stack;
      let t0 = now_us () in
      let r = f () in
      let t1 = now_us () in
      stack := List.tl !stack;
      all := { id; parent; name; op; t0; t1 } :: !all;
      r
    end

  (* Adopt the [flow.*] spans a traced Obs context recorded, under the
     currently open span, renamed into the [core.] namespace. *)
  let import ~op ~parent:outer (sink : Obs.Trace.sink) =
    if !on then begin
      (* The flow's own root span is the one [outer] already times. *)
      let events =
        List.filter
          (fun (e : Obs.Trace.event) ->
            e.Obs.Trace.ev_ph = 'X' && e.Obs.Trace.ev_name <> "flow.run")
          (Obs.Trace.events_in sink)
      in
      let ids = Hashtbl.create 16 in
      List.iter
        (fun (e : Obs.Trace.event) -> Hashtbl.replace ids e.Obs.Trace.ev_id (fresh ()))
        events;
      List.iter
        (fun (e : Obs.Trace.event) ->
          let name =
            match e.Obs.Trace.ev_name with
            | n when String.starts_with ~prefix:"flow." n -> "core." ^ n
            | n -> n
          in
          let t0 = (sink.Obs.Trace.t0 *. 1e6) +. e.Obs.Trace.ev_ts in
          all :=
            {
              id = Hashtbl.find ids e.Obs.Trace.ev_id;
              parent = Option.value ~default:outer (Hashtbl.find_opt ids e.Obs.Trace.ev_parent);
              name;
              op;
              t0;
              t1 = t0 +. e.Obs.Trace.ev_dur;
            }
            :: !all)
        events
    end

  let chrome_json spans =
    let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            (List.map
               (fun s ->
                 Json.Obj
                   [
                     ("name", Json.String s.name);
                     ("cat", Json.String (List.hd (String.split_on_char '.' s.name)));
                     ("ph", Json.String "X");
                     ("ts", Json.Float (s.t0 -. base));
                     ("dur", Json.Float (s.t1 -. s.t0));
                     ("pid", Json.Int 1);
                     ("tid", Json.Int 1);
                     ( "args",
                       Json.Obj
                         [
                           ("op", Json.Int s.op);
                           ("id", Json.Int s.id);
                           ("parent", Json.Int s.parent);
                         ] );
                   ])
               spans) );
        ("displayTimeUnit", Json.String "ms");
      ]

  (* Per span name: count, total and self time (duration minus the part
     its child spans cover). *)
  let layer_table spans =
    let find tbl k default = Option.value ~default (Hashtbl.find_opt tbl k) in
    let covered = Hashtbl.create 64 in
    List.iter
      (fun s -> Hashtbl.replace covered s.parent (find covered s.parent 0. +. s.t1 -. s.t0))
      spans;
    let rows = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let dur = s.t1 -. s.t0 in
        let n, total, self = find rows s.name (0, 0., 0.) in
        let self = self +. dur -. find covered s.id 0. in
        Hashtbl.replace rows s.name (n + 1, total +. dur, self))
      spans;
    let rows =
      List.sort
        (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)
        (List.of_seq (Hashtbl.to_seq rows))
    in
    let grand = List.fold_left (fun acc (_, (_, _, self)) -> acc +. self) 0. rows in
    Printf.sprintf "%-28s %8s %12s %12s %10s %6s\n" "layer" "count" "total_ms" "self_ms"
      "self_us/op" "self%"
    ^ String.concat ""
        (List.map
           (fun (name, (n, total, self)) ->
             Printf.sprintf "%-28s %8d %12.2f %12.2f %10.1f %5.1f%%\n" name n (total /. 1e3)
               (self /. 1e3) (self /. float_of_int n) (100. *. self /. grand))
           rows)
end

(* --- replay ------------------------------------------------------------ *)

(* Running sums behind the per-layer metrics. *)
type acc = { mutable n : int; mutable total : float }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 64

let add name v =
  match Hashtbl.find_opt accs name with
  | Some a ->
      a.n <- a.n + 1;
      a.total <- a.total +. v
  | None -> Hashtbl.replace accs name { n = 1; total = v }

let sum name = match Hashtbl.find_opt accs name with Some a -> a.total | None -> 0.
let count name = match Hashtbl.find_opt accs name with Some a -> a.n | None -> 0
let mean name = if count name = 0 then 0. else sum name /. float_of_int (count name)

(* Time [f] as layer [name] (microseconds) and, when [words] is given,
   its minor-heap allocation; recorded only in the traced pass. *)
let layer ~traced ~op ?words name f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = Spans.with_span ~op name f in
  let dt = (Unix.gettimeofday () -. t0) *. 1e6 in
  if traced then begin
    add (name ^ "_us") dt;
    Option.iter (fun w -> add w (Gc.minor_words () -. w0)) words
  end;
  r

(* One served request, the way the daemon's worker handles it: decode,
   parse, key, look up, compute and insert on a miss, encode. *)
let serve_op ~traced ~op cache bytes =
  let layer ?words name f = layer ~traced ~op ?words name f in
  let req =
    layer "http.decode" (fun () ->
        let d = Http.decoder () in
        let len = String.length bytes in
        let rec go off =
          match Http.next d with
          | `Request r -> r
          | `Error e -> failwith (Http.error_message e)
          | `Await ->
              let n = min 8192 (len - off) in
              Http.feed d (String.sub bytes off n);
              go (off + n)
        in
        go 0)
  in
  let opts = Result.get_ok (Api.options_of_query req.Http.query) in
  let parsed =
    layer ~words:"uml.parse_minor_words" "uml.parse" (fun () -> Api.parse_model req.Http.body)
  in
  let uml = match parsed with Ok uml -> uml | Error _ -> failwith "replay: model does not parse" in
  let endpoint = Option.get (Api.endpoint_of_path req.Http.path) in
  let key =
    layer ~words:"serve.cache_key_minor_words" "serve.cache_key" (fun () ->
        Api.cache_key endpoint opts uml)
  in
  let v, state =
    match layer "cache.find" (fun () -> Cache.find cache key) with
    | Some v -> (v, "hit")
    | None ->
        let o =
          layer "serve.api_run" (fun () ->
              let rctx = Obs.Context.create ~trace:true () in
              Obs.Context.with_current rctx (fun () -> Api.run endpoint opts uml))
        in
        let v =
          { Cache.status = o.Api.status; content_type = o.Api.content_type; body = o.Api.body }
        in
        layer "cache.add" (fun () -> Cache.add cache key v);
        (v, "miss")
  in
  ignore
    (layer "http.encode" (fun () ->
         Http.response ~headers:[ ("X-Cache", state) ] ~content_type:v.Cache.content_type
           ~status:v.Cache.status v.Cache.body));
  if traced then add "uml.body_bytes" (float_of_int (String.length req.Http.body));
  (uml, opts, state = "miss")

(* Flow with its phase spans read back from an explicit traced
   context, adopted under the span that timed it. *)
let traced_flow ~traced ~op uml =
  let ctx = Obs.Context.create ~trace:traced () in
  let out =
    layer ~traced ~op ~words:"core.flow_minor_words" "core.flow" (fun () ->
        Core.Flow.run ~ctx uml)
  in
  if traced then begin
    Spans.import ~op ~parent:(Spans.last ()) ctx.Obs.Context.trace;
    List.iter
      (fun (e : Obs.Trace.event) ->
        let n = e.Obs.Trace.ev_name in
        if String.starts_with ~prefix:"flow." n && n <> "flow.run" then
          add ("core." ^ n ^ "_us") e.Obs.Trace.ev_dur)
      (Obs.Trace.events_in ctx.Obs.Context.trace)
  end;
  out

let firings (o : Df.Exec.outcome) =
  float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 o.Df.Exec.firings)

(* The layers inside [Api.cache_key] and, on a miss, [Api.run], timed
   on the same inputs through their own public functions: material and
   hash separately, then the flow and whatever the endpoint runs after
   it. *)
let probe ~op plan k uml opts ~computed =
  let layer ?words name f = layer ~traced:true ~op ?words name f in
  let material =
    layer "core.cache_material" (fun () ->
        Core.Flow.cache_material ~strategy:opts.Api.strategy uml)
  in
  ignore (layer "serve.sha256" (fun () -> Sha256.hex material));
  add "serve.key_bytes_hashed" (float_of_int (String.length material));
  if computed then begin
    let caam = (traced_flow ~traced:true ~op uml).Core.Flow.caam in
    match k.ep with
    | "lint" -> ignore (layer "analysis.lint" (fun () -> A.Lint.check ~uml caam))
    | "generate/c" ->
        let g =
          layer "codegen.gen_c" (fun () -> Codegen.Gen_threads.generate ~rounds:plan.rounds caam)
        in
        let bytes (_, text) = String.length text in
        add "codegen.bytes"
          (float_of_int (List.fold_left ( + ) 0 (List.map bytes g.Codegen.Gen_threads.files)))
    | "simulate" ->
        let sdf = layer "dataflow.sdf_of_model" (fun () -> Df.Sdf.of_model caam) in
        let o =
          layer ~words:"dataflow.compiled_minor_words" "dataflow.compiled_run" (fun () ->
              Df.Compiled.run ~rounds:opts.Api.rounds sdf)
        in
        add "dataflow.firings" (firings o)
    | _ -> ()
  end

(* The CLI path of `umlfront simulate --engine compiled`: load, flow,
   SDF graph, compiled run. *)
let cli_op ~traced ~op dir plan k =
  let layer ?words name f = layer ~traced ~op ?words name f in
  let md = plan.models.(k.m) in
  let uml =
    layer ~words:"uml.parse_minor_words" "uml.parse" (fun () ->
        U.Xmi.load (Filename.concat dir md.file))
  in
  let out = traced_flow ~traced ~op uml in
  let sdf = layer "dataflow.sdf_of_model" (fun () -> Df.Sdf.of_model out.Core.Flow.caam) in
  let o =
    layer ~words:"dataflow.compiled_minor_words" "dataflow.compiled_run" (fun () ->
        Df.Compiled.run ~rounds:plan.rounds sdf)
  in
  if traced then begin
    add "uml.body_bytes" (float_of_int (String.length md.xmi));
    add "dataflow.firings" (firings o)
  end

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  if a = [||] then 0. else a.(Array.length a / 2)

let replay dir nops out_prefix =
  let plan = load_plan dir in
  let measure = List.filteri (fun i _ -> i < nops) plan.measure in
  let serve = plan.workload <> "cli-simulate" in
  let budget = (if plan.cache_mb > 0 then plan.cache_mb else 32) * 1024 * 1024 in
  (* One cache per pass, each warmed like the daemon's, so both passes
     meet the same hits and misses. *)
  let caches = Array.init 2 (fun _ -> Cache.create ~max_bytes:budget) in
  let request = Hashtbl.create 64 in
  if serve then
    List.iter
      (fun i -> Hashtbl.replace request i (read_file (Filename.concat dir plan.keys.(i).req)))
      (plan.warmup @ measure);
  if serve then
    Array.iter
      (fun cache ->
        List.iter
          (fun i -> ignore (serve_op ~traced:false ~op:(-1) cache (Hashtbl.find request i)))
          plan.warmup)
      caches;
  let untraced = ref [] and traced = ref [] in
  let timed on f =
    Spans.on := on;
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = (Unix.gettimeofday () -. t0) *. 1e6 in
    Spans.on := false;
    (r, dt)
  in
  List.iteri
    (fun op i ->
      let k = plan.keys.(i) in
      let pass on cache () =
        Spans.with_span ~op "op" (fun () ->
            if serve then Some (serve_op ~traced:on ~op cache (Hashtbl.find request i))
            else (
              cli_op ~traced:on ~op dir plan k;
              None))
      in
      let _, u = timed false (pass false caches.(0)) in
      let r, t = timed true (pass true caches.(1)) in
      untraced := u :: !untraced;
      traced := t :: !traced;
      Option.iter
        (fun (uml, opts, computed) ->
          Spans.on := true;
          Spans.with_span ~op "probe" (fun () -> probe ~op plan k uml opts ~computed);
          Spans.on := false)
        r)
    measure;
  let spans = List.rev !Spans.all in
  write_file (out_prefix ^ ".trace.json") (Json.to_string (Spans.chrome_json spans) ^ "\n");
  write_file (out_prefix ^ ".layers.txt") (Spans.layer_table spans);
  let n = float_of_int (List.length measure) in
  let per_op name = sum name /. n in
  let total = List.fold_left ( +. ) 0. in
  let rate bytes us = if sum us > 0. then sum bytes /. sum us else 0. in
  let metrics =
    [
      ("http.decode_us", mean "http.decode_us");
      ("http.encode_us", mean "http.encode_us");
      ("uml.parse_us", mean "uml.parse_us");
      ("uml.parse_mb_s", rate "uml.body_bytes" "uml.parse_us");
      ("uml.parse_minor_words", mean "uml.parse_minor_words");
      ("serve.cache_key_us", mean "serve.cache_key_us");
      ("core.cache_material_us", mean "core.cache_material_us");
      ("serve.sha256_us", mean "serve.sha256_us");
      ("serve.sha256_mb_s", rate "serve.key_bytes_hashed" "serve.sha256_us");
      ("serve.key_bytes_hashed", mean "serve.key_bytes_hashed");
      ("serve.cache_key_minor_words", mean "serve.cache_key_minor_words");
      ("cache.find_us", mean "cache.find_us");
      ("cache.add_us", mean "cache.add_us");
      ("core.flow_us", mean "core.flow_us");
    ]
    @ List.map
        (fun p -> ("core.flow." ^ p ^ "_us", mean ("core.flow." ^ p ^ "_us")))
        [ "validate"; "allocate"; "map"; "channels"; "barriers"; "layout"; "emit"; "fsm" ]
    @ [
        ("core.flow_minor_words", mean "core.flow_minor_words");
        ("analysis.lint_us", mean "analysis.lint_us");
        ("codegen.gen_c_us", mean "codegen.gen_c_us");
        ("codegen.bytes_per_op", per_op "codegen.bytes");
        ("dataflow.sdf_of_model_us", mean "dataflow.sdf_of_model_us");
        ("dataflow.compiled_run_us", mean "dataflow.compiled_run_us");
        ("dataflow.firings_per_op", per_op "dataflow.firings");
        ("dataflow.firings_per_s", rate "dataflow.firings" "dataflow.compiled_run_us" *. 1e6);
        ("dataflow.compiled_minor_words", mean "dataflow.compiled_minor_words");
        ("serve.api_run_us", mean "serve.api_run_us");
        ("core.flow_runs_per_op", float_of_int (count "core.flow_us") /. n);
        ("trace.overhead_ratio", total !traced /. total !untraced);
        ("replay.p50_us", median !untraced);
      ]
  in
  print_endline
    (Json.to_string (Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) metrics)))

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; workload; seed; seconds; dir ] ->
      gen workload (int_of_string seed) (int_of_string seconds) dir
  | [ _; "replay"; dir; ops; out_prefix ] -> replay dir (int_of_string ops) out_prefix
  | _ ->
      prerr_endline "usage: pb gen WORKLOAD SEED SECONDS DIR | pb replay DIR OPS OUT_PREFIX";
      exit 2

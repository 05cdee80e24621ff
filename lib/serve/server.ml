(* The serving daemon.  Scheduling only — sockets belong to {!Loop},
   and everything a request *means* lives in {!Api} (pure), {!Http}
   (codec) and {!Cache} (memoization), which is what keeps this file
   small enough to audit: dispatch, compute, observe, reply.

   Threading model: one I/O domain runs the {!Loop}, which owns every
   socket.  It answers the cheap routes itself and hands each complete
   compute request to the pool; the worker computes and renders the
   reply, then posts it back to the loop, which writes it.  The only
   cross-domain state is the cache (its own mutex), the root telemetry
   context (merged into under [root_lock]), the trace store (its own
   lock) and the access log, whose writer domain does the disk I/O. *)

module Obs = Umlfront_obs
module Json = Umlfront_obs.Json
module Pool = Umlfront_parallel.Pool

type config = {
  port : int;
  pool : int;
  cache_mb : int;
  max_inflight : int;
  timeout_s : float;
  max_body : int;
  access_log : string option;
  trace_sample : float;
}

let default_config =
  {
    port = 0;
    pool = 2;
    cache_mb = 32;
    max_inflight = 64;
    timeout_s = 30.;
    max_body = 8 * 1024 * 1024;
    access_log = None;
    trace_sample = 0.;
  }

type t = {
  config : config;
  bound_port : int;
  root : Obs.Context.t;
  root_lock : Mutex.t;
  cache : Cache.t;
  workers : Pool.t;
  loop : Loop.t;
  mutable requests : int; (* loop domain only *)
  started_at : float;
  window : Obs.Window.t;
  traces : Trace_store.t;
  access : Access_log.t option;
  mutable io : unit Domain.t option;
}

let port t = t.bound_port
let root t = t.root
let cache_stats t = Cache.stats t.cache
let inflight t = Loop.inflight t.loop
let window t = t.window
let subscribers t = Loop.subscribers t.loop
let events_dropped t = Loop.dropped t.loop
let access_log_dropped t =
  match t.access with Some log -> Access_log.dropped log | None -> 0

(* --- request handling ------------------------------------------------- *)

let json_error ?hint message =
  let hint = Option.to_list (Option.map (fun h -> ("hint", Json.String h)) hint) in
  Json.to_string (Json.Obj (("error", Json.String message) :: hint)) ^ "\n"

let overload_body =
  json_error ~hint:"retry after the interval in Retry-After" "server overloaded"

let timeout_body =
  json_error ~hint:"raise --timeout or simplify the model" "request deadline exceeded"

(* Everything the observability fan-out wants to know about one served
   request, next to the response itself. *)
type reply = {
  r_status : int;
  r_content_type : string;
  r_body : string;
  r_headers : (string * string) list;
  r_cache : string; (* "hit" | "miss" | "-" *)
  r_spans : int;
  r_model : string option; (* the content hash the cache keys on *)
  r_trace_stored : bool;
}

let reply ?(headers = []) ?(cache = "-") ?(spans = 0) ?model
    ?(trace_stored = false) status content_type body =
  {
    r_status = status;
    r_content_type = content_type;
    r_body = body;
    r_headers = headers;
    r_cache = cache;
    r_spans = spans;
    r_model = model;
    r_trace_stored = trace_stored;
  }

let reply_error ?headers status message =
  reply ?headers status "application/json" (json_error message)

let method_not_allowed allow =
  reply_error ~headers:[ ("Allow", allow) ] 405 "method not allowed"

(* Deterministic sampling on the request counter: rate 0.25 keeps every
   request whose id falls in the first quarter of each block of 1000.
   Reproducible under test, and immune to RNG state races. *)
let sampled t request_id =
  t.config.trace_sample > 0.
  && float_of_int (request_id mod 1000) < t.config.trace_sample *. 1000.

(* The retained span tree, as a Chrome trace object (same shape as
   {!Obs.Trace.to_json}: traceEvents + displayTimeUnit + otherData). *)
let chrome_trace ~request_id ~endpoint ~trace_id events =
  let sorted = List.sort Obs.Trace.event_order events in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.map Obs.Trace.event_json sorted));
         ("displayTimeUnit", Json.String "ms");
         ( "otherData",
           Json.Obj
             [
               ("tool", Json.String "umlfront");
               ("request", Json.Int request_id);
               ("endpoint", Json.String endpoint);
               ("trace_id", Json.String trace_id);
             ] );
       ])

(* A cache hit computes nothing, so a traced hit retains a one-instant
   tree that says exactly that. *)
let hit_event =
  {
    Obs.Trace.ev_id = -1;
    ev_parent = -1;
    ev_name = "serve.cache.hit";
    ev_cat = "serve";
    ev_ph = 'i';
    ev_ts = 0.0;
    ev_dur = 0.0;
    ev_tid = 1;
    ev_args = [];
  }

(* One compute request: private context, deadline, cache, merge-back,
   optional span-tree retention. *)
let compute t ~request_id ~trace_id endpoint (req : Http.request) =
  match Api.options_of_query req.Http.query with
  | Error msg -> reply_error 400 msg
  | Ok opts -> (
      match Api.parse_model req.Http.body with
      | Error d -> reply 422 "application/json" (Api.diagnostic_body d)
      | Ok uml -> (
          let key = Api.cache_key endpoint opts uml in
          let retain = opts.Api.trace || sampled t request_id in
          let ep = Api.endpoint_name endpoint in
          match Cache.find t.cache key with
          | Some v ->
              if retain then
                Trace_store.add t.traces ~id:(string_of_int request_id)
                  (chrome_trace ~request_id ~endpoint:ep ~trace_id
                     [ hit_event ]);
              reply
                ~headers:[ ("X-Cache", "hit") ]
                ~cache:"hit" ~model:key ~trace_stored:retain v.Cache.status
                v.Cache.content_type v.Cache.body
          | None ->
              (* The private context: spans, counters and journal
                 entries of this request land here and nowhere else.
                 Only metrics and journal are merged back — absorbing
                 every request's span tree into a daemon-lifetime
                 buffer would grow without bound; retained trees go to
                 the bounded {!Trace_store} instead. *)
              let rctx = Obs.Context.create ~trace:true () in
              let deadline = Unix.gettimeofday () +. t.config.timeout_s in
              let outcome =
                Obs.Context.with_current rctx (fun () ->
                    Obs.Journal.record
                      ~fields:
                        [
                          ("endpoint", Json.String ep);
                          ("request", Json.Int request_id);
                        ]
                      "serve.request";
                    match Api.run ~deadline endpoint opts uml with
                    | o -> Ok o
                    | exception Api.Timeout -> Error `Timeout)
              in
              let events = Obs.Trace.events_in rctx.Obs.Context.trace in
              let spans = List.length events in
              if retain then
                Trace_store.add t.traces ~id:(string_of_int request_id)
                  (chrome_trace ~request_id ~endpoint:ep ~trace_id events);
              Mutex.lock t.root_lock;
              Obs.Metrics.merge ~into:t.root.Obs.Context.metrics
                rctx.Obs.Context.metrics;
              Obs.Journal.merge ~into:t.root.Obs.Context.journal
                rctx.Obs.Context.journal;
              Mutex.unlock t.root_lock;
              let headers =
                [ ("X-Cache", "miss"); ("X-Request-Spans", string_of_int spans) ]
              in
              (match outcome with
              | Ok o ->
                  if o.Api.status = 200 then
                    Cache.add t.cache key
                      {
                        Cache.status = o.Api.status;
                        content_type = o.Api.content_type;
                        body = o.Api.body;
                      };
                  reply ~headers ~cache:"miss" ~spans ~model:key
                    ~trace_stored:retain o.Api.status o.Api.content_type
                    o.Api.body
              | Error `Timeout ->
                  reply
                    ~headers:(("Retry-After", "1") :: headers)
                    ~cache:"miss" ~spans ~model:key ~trace_stored:retain 503
                    "application/json" timeout_body)))

let metrics_body t =
  let r = t.root.Obs.Context.metrics in
  let c = Cache.stats t.cache in
  List.iter
    (fun (name, v) -> Obs.Metrics.set_gauge ~registry:r name (float_of_int v))
    [
      ("serve.cache.hits", c.Cache.hits);
      ("serve.cache.misses", c.Cache.misses);
      ("serve.cache.evictions", c.Cache.evictions);
      ("serve.cache.entries", c.Cache.entries);
      ("serve.cache.bytes", c.Cache.bytes);
      ("serve.inflight", inflight t);
      ("serve.events.subscribers", subscribers t);
    ];
  (* The drop counters must exist from the first scrape, not from the
     first drop. *)
  Obs.Metrics.incr ~registry:r ~by:0 "access_log.dropped";
  Obs.Metrics.incr ~registry:r ~by:0 "serve.events.dropped";
  (* Rolling per-endpoint series out of the window, as labeled gauges:
     the "right now" view next to the lifetime counters. *)
  List.iter
    (fun window_s ->
      let wlabel = Printf.sprintf "%gs" window_s in
      List.iter
        (fun name ->
          let labels = [ ("endpoint", name); ("window", wlabel) ] in
          let q = Obs.Window.quantiles t.window ~window_s name in
          List.iter
            (fun (series, v) ->
              Obs.Metrics.set_gauge ~registry:r
                (Obs.Openmetrics.labeled ("serve.rolling." ^ series) labels)
                v)
            [
              ("req_per_s", Obs.Window.rate t.window ~window_s name);
              ("p50_us", q.Obs.Window.q_p50);
              ("p95_us", q.Obs.Window.q_p95);
              ("p99_us", q.Obs.Window.q_p99);
            ])
        (Obs.Window.names t.window ~window_s:(Obs.Window.max_window_s t.window)))
    Obs.Window.default_windows;
  Obs.Openmetrics.render (Obs.Metrics.snapshot ~registry:r ())

let journal_body t =
  Mutex.lock t.root_lock;
  let entries = Obs.Journal.entries_in t.root.Obs.Context.journal in
  Mutex.unlock t.root_lock;
  Json.to_string (Json.List (List.map Obs.Journal.entry_json entries)) ^ "\n"

let healthz_body t =
  Json.to_string
    (Json.Obj
       [
         ("status", Json.String "ok");
         ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
         ("inflight", Json.Int (inflight t));
         ("requests", Json.Int t.requests);
         ("pool", Json.Int t.config.pool);
       ])
  ^ "\n"

let trace_route = "/api/trace/"

(* Endpoint label for routing, window series, access entries and
   labeled counters: the request path for known routes, "other" for
   noise — labels must stay low-cardinality, so the raw path of a 404
   never becomes one. *)
let endpoint_label (req : Http.request) =
  match Api.endpoint_of_path req.Http.path with
  | Some e -> "/api/" ^ Api.endpoint_name e
  | None -> (
      match req.Http.path with
      | ("/healthz" | "/metrics" | "/journal" | "/dashboard" | "/api/windows"
        | "/events") as p ->
          p
      | p when String.starts_with ~prefix:trace_route p -> "/api/trace"
      | _ -> "other")

(* Route one decoded request to a reply.  [/events] never reaches this
   point — {!dispatch} turns it into a streaming connection. *)
let handle t ~request_id ~trace_id (req : Http.request) =
  let json body = reply 200 "application/json" body in
  match (Api.endpoint_of_path req.Http.path, req.Http.meth) with
  | Some endpoint, "POST" -> compute t ~request_id ~trace_id endpoint req
  | Some _, _ -> method_not_allowed "POST"
  | None, meth -> (
      match (endpoint_label req, meth) with
      | "/healthz", "GET" -> json (healthz_body t)
      | "/metrics", "GET" ->
          reply 200 "application/openmetrics-text; version=1.0.0; charset=utf-8"
            (metrics_body t)
      | "/journal", "GET" -> json (journal_body t)
      | "/dashboard", "GET" -> reply 200 "text/html; charset=utf-8" (Dashboard.page ())
      | "/api/windows", "GET" -> json (Json.to_string (Obs.Window.to_json t.window) ^ "\n")
      | "/api/trace", "GET" -> (
          let n = String.length trace_route in
          let id = String.sub req.Http.path n (String.length req.Http.path - n) in
          match Trace_store.find t.traces id with
          | Some payload -> json (payload ^ "\n")
          | None -> reply_error 404 ("no retained trace for request " ^ id))
      | "other", ("GET" | "HEAD" | "POST") -> reply_error 404 "no such route"
      | "other", _ -> method_not_allowed "GET, POST"
      | _ -> method_not_allowed "GET")

(* The post-reply fan-out, on the loop: lifetime metrics, rolling
   window, root journal, access log, SSE.  Everything here is an
   in-memory append — the access log's writer domain does the disk I/O,
   and SSE frames wait in subscriber outboxes or are dropped. *)
let record_access t (req : Http.request) (rep : reply) ~request_id ~tp ~dur_us =
  let r = t.root.Obs.Context.metrics in
  let ep = endpoint_label req in
  let incr name = Obs.Metrics.incr ~registry:r name in
  incr "serve.requests";
  incr (Printf.sprintf "serve.status.%dxx" (rep.r_status / 100));
  incr
    ("serve.endpoint."
    ^
    match Api.endpoint_of_path req.Http.path with
    | Some e -> Api.endpoint_name e
    | None -> "other");
  if rep.r_cache <> "-" then incr ("serve.cache." ^ rep.r_cache);
  Obs.Metrics.observe ~registry:r "serve.request_us" dur_us;
  Obs.Metrics.incr ~registry:r
    (Obs.Openmetrics.labeled "serve.requests"
       [ ("endpoint", ep); ("status", string_of_int rep.r_status) ]);
  Obs.Window.add t.window ep;
  Obs.Window.observe t.window ep dur_us;
  let fields =
    [
      ("id", Json.Int request_id);
      ("method", Json.String req.Http.meth);
      ("path", Json.String req.Http.path);
      ("endpoint", Json.String ep);
      ("status", Json.Int rep.r_status);
      ("cache", Json.String rep.r_cache);
      ("latency_us", Json.Float dur_us);
      ("spans", Json.Int rep.r_spans);
      ("trace_id", Json.String tp.Traceparent.trace_id);
      ("trace_stored", Json.Bool rep.r_trace_stored);
    ]
    @
    match rep.r_model with
    | Some h -> [ ("model", Json.String h) ]
    | None -> []
  in
  Obs.Journal.record_in t.root.Obs.Context.journal ~fields "serve.access";
  (match t.access with
  | Some log ->
      let line =
        Json.to_string
          (Json.Obj (("ts", Json.Float (Unix.gettimeofday ())) :: fields))
      in
      if not (Access_log.append log line) then
        incr "access_log.dropped"
  | None -> ());
  let drops =
    Loop.publish t.loop
      (Sse.frame ~name:"request" (Json.to_string (Json.Obj fields)))
  in
  if drops > 0 then Obs.Metrics.incr ~registry:r ~by:drops "serve.events.dropped"

(* [/events]: the response head and hello frame, the first bytes of a
   streaming connection. *)
let sse_greeting t ~request_id =
  let head =
    String.concat "\r\n"
      [
        "HTTP/1.1 200 OK";
        "Server: umlfront/1.0";
        "Content-Type: text/event-stream";
        "Cache-Control: no-cache";
        "X-Request-Id: " ^ string_of_int request_id;
        "Connection: close";
        "";
        "";
      ]
  in
  let hello =
    Json.to_string
      (Json.Obj
         [
           ("server", Json.String "umlfront");
           ("port", Json.Int t.bound_port);
           ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
         ])
  in
  head ^ Sse.frame ~name:"hello" hello

(* A server bug must cost one 500, not a dead worker or loop. *)
let guarded t f =
  try f ()
  with e ->
    Obs.Metrics.incr ~registry:t.root.Obs.Context.metrics "serve.internal_errors";
    reply_error 500 ("internal error: " ^ Printexc.to_string e)

(* The 503 for a connection past [max_inflight] ([serve.rejected]) or a
   subscriber past the hub's cap ([serve.events.rejected]). *)
let overloaded (root : Obs.Context.t) counter =
  Obs.Metrics.incr ~registry:root.Obs.Context.metrics counter;
  Http.response ~headers:[ ("Retry-After", "1") ] ~close:true ~status:503 overload_body

(* One decoded request, on the loop.  The latency every sink records
   runs from the request's first byte to its reply being written, so
   it includes the wait for a worker. *)
let dispatch t c = function
  | Error e ->
      Loop.respond t.loop c
        (Http.response ~close:true ~status:(Http.error_status e)
           (json_error (Http.error_message e)))
        ~close:true
  | Ok req ->
      let arrived = Loop.arrived c in
      let request_id = t.requests in
      t.requests <- t.requests + 1;
      (* Join the caller's trace or start one; either way the response
         carries this hop's own parent-id. *)
      let tp =
        match Option.bind (Http.header req "traceparent") Traceparent.parse with
        | Some inbound -> Traceparent.child inbound
        | None -> Traceparent.generate ()
      in
      let trace_id = tp.Traceparent.trace_id in
      (* Runs wherever the reply was computed: render the bytes there. *)
      let render rep =
        let close = Loop.stopping t.loop || not (Http.keep_alive req) in
        let bytes =
          Http.response
            ~headers:
              (rep.r_headers
              @ [
                  ("X-Request-Id", string_of_int request_id);
                  ("traceparent", Traceparent.to_string tp);
                ])
            ~content_type:rep.r_content_type ~close ~status:rep.r_status rep.r_body
        in
        (rep, bytes, close)
      in
      let finish (rep, bytes, close) =
        Loop.respond t.loop c bytes ~close;
        record_access t req rep ~request_id ~tp
          ~dur_us:((Unix.gettimeofday () -. arrived) *. 1e6)
      in
      if req.Http.meth = "GET" && req.Http.path = "/events" then begin
        if not (Loop.stream t.loop c ~greeting:(sse_greeting t ~request_id)) then
          Loop.respond t.loop c (overloaded t.root "serve.events.rejected") ~close:true
      end
      else
        match Api.endpoint_of_path req.Http.path with
        | Some endpoint when req.Http.meth = "POST" ->
            let work () =
              render (guarded t (fun () -> compute t ~request_id ~trace_id endpoint req))
            in
            if not (Pool.submit t.workers (fun () ->
                        let out = work () in
                        Loop.post t.loop (fun () -> finish out)))
            then (* --pool 0: compute on the loop *) finish (work ())
        | _ -> finish (render (guarded t (fun () -> handle t ~request_id ~trace_id req)))

let start ?(config = default_config) () =
  (* A peer that disappears mid-reply must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
  Unix.listen listener 128;
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let root = Obs.Context.create ~trace:false () in
  let window = Obs.Window.create () in
  let t =
    {
      config;
      bound_port;
      root;
      root_lock = Mutex.create ();
      cache = Cache.create ~max_bytes:(config.cache_mb * 1024 * 1024);
      (* +1: the owner (the domain calling [start]) never helps drain,
         so [pool] real worker domains require a pool of size
         [pool + 1]. *)
      workers = Pool.create ~domains:(config.pool + 1) ();
      loop =
        Loop.create ~listener ~max_inflight:config.max_inflight
          ~read_timeout_s:config.timeout_s ~max_body:config.max_body
          ~overloaded:(fun () -> overloaded root "serve.rejected")
          ~heartbeat:(fun () ->
            Sse.frame ~name:"window" (Json.to_string (Obs.Window.to_json window)))
          ();
      requests = 0;
      started_at = Unix.gettimeofday ();
      window;
      traces = Trace_store.create ();
      access = Option.map (fun path -> Access_log.create ~path) config.access_log;
      io = None;
    }
  in
  t.io <- Some (Domain.spawn (fun () -> Loop.run t.loop (dispatch t)));
  t

(* Stop accepting, let in-flight requests finish and their replies
   leave, then join the loop and the pool. *)
let stop t =
  if Loop.stop t.loop then begin
    Option.iter Domain.join t.io;
    t.io <- None;
    Pool.shutdown t.workers;
    Loop.close_all t.loop;
    Option.iter Access_log.close t.access
  end

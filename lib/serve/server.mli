(** The [umlfront serve] daemon: a long-lived, cache-keyed compilation
    service over the whole flow, on nothing but [Unix] sockets and
    domains.

    One I/O domain runs a single [Unix.select] loop ({!Loop}) that owns
    every socket: accept, admission control, incremental HTTP decode,
    keep-alive and pipelining, every response write and the [/events]
    streams.  Only complete compute requests ([POST /api/*]) go to the
    {!Umlfront_parallel.Pool}; the worker posts the rendered reply back
    to the loop.  Once [max_inflight] connections are open the server
    answers [503 Service Unavailable] with [Retry-After] at accept, so
    overload degrades to fast rejection, never to a hang.

    Endpoints:
    - [POST /api/lint], [/api/transform], [/api/simulate],
      [/api/conform], [/api/generate/{c,java,kpn}] — XMI in the body,
      options in the query string ({!Api.options_of_query}), JSON out;
    - [GET /healthz] — liveness, uptime, in-flight count;
    - [GET /metrics] — OpenMetrics exposition of the server's root
      telemetry context, cache gauges and rolling per-endpoint
      req/s + latency quantiles as labeled series;
    - [GET /journal] — the merged run journal as a JSON list;
    - [GET /api/windows] — the rolling {!Umlfront_obs.Window} snapshot
      (10 s / 1 m / 5 m) as JSON;
    - [GET /api/trace/ID] — the retained Chrome-trace span tree of
      request ID (kept when the request said [?trace=1] or fell in
      [trace_sample]);
    - [GET /events] — an SSE stream of request events and window
      snapshots (the heartbeat), streamed by the loop;
    - [GET /dashboard] — a self-contained live HTML view over
      [/events].

    Every request is numbered ([X-Request-Id]), joins or starts a W3C
    trace ([traceparent] echoed in the response), lands in the rolling
    window and the root journal ([serve.access] entries), and — when
    [access_log] is set — is appended as one JSON line by a writer
    domain that never blocks the request path (full queue = dropped
    line + [umlfront_access_log_dropped_total]).

    Each compute request runs in its own forked {!Umlfront_obs.Context}
    (so concurrent requests observe fully disjoint telemetry) whose
    metrics and journal are merged back into the server's root context
    afterwards; span buffers are deliberately {e not} absorbed — a
    daemon must not accumulate one span tree per request forever.  The
    response advertises the isolation: [X-Request-Id] numbers the
    request, [X-Request-Spans] counts the trace events its private
    context recorded (a bled-into context would show inflated counts),
    and [X-Cache: hit|miss] reports the content-hash cache. *)

type config = {
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  pool : int;
      (** worker domains computing [POST /api/*] requests (>= 0; 0
          computes on the I/O loop) *)
  cache_mb : int;  (** response cache budget; [<= 0] disables *)
  max_inflight : int;
      (** admission-control bound on open connections; beyond 1,000
          open sockets new connections are closed unanswered, since
          [select] cannot watch them *)
  timeout_s : float;
      (** per-request compute deadline, and the read deadline: a
          connection that has not completed a request within
          [timeout_s] of accept or of its previous reply is closed *)
  max_body : int;  (** request-body bound (413 beyond it) *)
  access_log : string option;  (** JSONL access-log path; [None] disables *)
  trace_sample : float;
      (** fraction of requests whose span tree is retained (0..1);
          [?trace=1] retains regardless *)
}

val default_config : config
(** Port 0, 2 workers, 32 MiB cache, 64 in flight, 30 s timeout,
    8 MiB bodies, no access log, no sampling. *)

type t

val start : ?config:config -> unit -> t
(** Bind [127.0.0.1], spawn the pool and the I/O domain, return once
    the socket is listening (so a client may connect immediately). *)

val port : t -> int
(** The bound port — the ephemeral one when [config.port = 0]. *)

val stop : t -> unit
(** Close the listener, let in-flight requests finish and their replies
    leave, then join the I/O domain and the pool.  Idempotent. *)

val root : t -> Umlfront_obs.Context.t
(** The server's root telemetry context — every request's metrics and
    journal entries end up here (what [/metrics] and [/journal]
    serve). *)

val cache_stats : t -> Cache.stats
val inflight : t -> int
(** Open connections, [/events] subscribers excluded. *)

val window : t -> Umlfront_obs.Window.t
(** The rolling window every request is recorded into (per-endpoint
    counters and latency samples) — what [/api/windows], the SSE
    heartbeat and the [/metrics] rolling gauges read. *)

val subscribers : t -> int
(** Live [/events] subscribers. *)

val events_dropped : t -> int
(** SSE frames dropped on full subscriber outboxes (slow consumers). *)

val access_log_dropped : t -> int
(** Access-log lines dropped on a full writer queue; 0 without a log. *)

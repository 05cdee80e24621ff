(** A fixed-size domain pool for embarrassingly parallel sweeps.

    The pool is hand-rolled on [Domain], [Mutex] and [Condition] — no
    dependencies beyond the OCaml 5 standard library.  [create
    ~domains:n] spawns [n - 1] worker domains; the calling domain is
    the [n]-th worker and helps drain the task queue during {!map},
    so a pool of size [n] really computes on [n]
    domains.

    Determinism: {!map} returns results in input order, whatever order
    tasks actually complete in, and an exception raised by [f] is
    re-raised (with its backtrace) for the {e earliest} failing input —
    exactly what sequential [List.map] would have raised.  A pool with
    [domains <= 1] never spawns and runs everything sequentially in the
    caller, so [map pool f] is always observationally equivalent to
    [List.map f].

    Pools are not reentrant: calling {!map} from inside a task of the
    same pool would deadlock, so such calls (detected by domain id)
    degrade to sequential execution instead.

    The pool reports into the {!Umlfront_obs.Metrics} registry:
    [pool.domains] (gauge), [pool.maps] / [pool.tasks] (counters) and
    [pool.tasks.d<i>] (tasks executed by domain [i]), which is how pool
    occupancy shows up in [umlfront stats].

    Telemetry contexts: during a batch each participating domain
    records into a forked child of the submitter's current
    {!Umlfront_obs.Context}, and the children are merged back
    (commutatively, hence deterministically) when the batch completes.
    Worker spans are rooted under the span open at submission, so
    parallel runs export one coherent trace tree. *)

type t

val cpu_count : unit -> int
(** [Domain.recommended_domain_count ()] — what the hardware allows. *)

val create : ?domains:int -> unit -> t
(** Spawn a pool of [domains] total domains (default {!cpu_count}).
    [domains <= 1] creates a sequential pool with no worker domains. *)

val size : t -> int
(** Total domains the pool computes on (1 for a sequential pool). *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent.  Using the pool afterwards
    falls back to sequential execution. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)

val submit : t -> (unit -> unit) -> bool
(** Fire-and-forget: enqueue one task for the worker domains and return
    immediately — no completion barrier, no telemetry forking; the task
    owns its own synchronization and context.  Returns [false] (task
    not enqueued, caller should run it inline) when the pool has no
    workers or was shut down.  This is what lets a long-lived server
    ([umlfront serve]) use the pool as a request executor while {!map}
    keeps its batch semantics. *)

val map : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  [chunk] (default 1) batches that
    many consecutive elements per task to amortize queue traffic on
    cheap [f]; any [chunk >= 1] yields the same result. *)

val map_array : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array

(** Compiled flat-schedule execution of a flattened SDF graph.

    {!Exec.run} interprets the graph shape every firing: hashtable
    lookups per port, a fresh input array per actor, list walks over
    predecessor edges.  This module instead {e compiles} the static
    schedule once — actors and edges numbered densely, block parameters
    resolved to immediates, token storage preallocated as ring-buffer
    FIFOs sized from the Lee–Messerschmitt bounds (one slot per
    forward edge, two per UnitDelay edge — the single-rate repetition
    vector is all-ones, so the bound is the per-round token count plus
    the delay's initial token) — and then runs a steady-state loop
    that allocates nothing per round.

    The outcome is bit-identical to {!Exec.run}: the same float
    operations in the same order per actor, the same default stimulus,
    S-function fallback and unconnected-port semantics, and the same
    deterministic token-telemetry stream, recorded in topological
    firing order. *)

(** Bounded single-producer single-consumer FIFOs over preallocated
    float rings — the compiled executor's token storage.  [push]/[pop]
    enforce the Lee–Messerschmitt capacity. *)
module Fifo : sig
  type t

  exception Full
  exception Empty

  val create : capacity:int -> t
  (** @raise Invalid_argument when [capacity < 1].  The backing ring is
      rounded up to a power of two; [push]/[pop] still enforce the
      logical [capacity]. *)

  val capacity : t -> int
  val length : t -> int
  val is_empty : t -> bool
  val is_full : t -> bool

  val push : t -> float -> unit
  (** @raise Full at [capacity] tokens. *)

  val pop : t -> float
  (** Oldest token.  @raise Empty when none is buffered. *)
end

type plan
(** A compiled graph: dense actor/edge numbering, per-actor opcodes
    with resolved parameters and the topological firing order.
    Compile once, run many times. *)

val compile : Sdf.t -> plan
(** @raise Exec.Deadlock on a zero-delay dependency cycle (the same
    check as {!Exec.firing_order}). *)

val run_plan :
  ?sfunctions:(string -> (float array -> float array) option) ->
  ?stimulus:(string -> int -> float) ->
  ?ctx:Umlfront_obs.Context.t ->
  rounds:int ->
  plan ->
  Exec.outcome
(** Execute a compiled plan.  Same optional arguments and semantics as
    {!Exec.run}. *)

val run :
  ?sfunctions:(string -> (float array -> float array) option) ->
  ?stimulus:(string -> int -> float) ->
  ?ctx:Umlfront_obs.Context.t ->
  rounds:int ->
  Sdf.t ->
  Exec.outcome
(** [compile] + {!run_plan}: the drop-in replacement for {!Exec.run}.
    The outcome — traces, firings, rounds — is bit-identical to
    {!Exec.run} on the same inputs. *)

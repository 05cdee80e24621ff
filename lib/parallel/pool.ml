(* Fixed-size domain pool.  One shared FIFO of closures, [size - 1]
   spawned worker domains plus the owner domain helping during a batch;
   a mutex + two condition variables (task available / batch done) are
   the whole synchronization story.

   Results land in a per-batch array slot owned by exactly one task, and
   the owner only reads them after observing the batch counter hit zero
   under the mutex — so every slot write happens-before its read and the
   scheme is data-race free under the OCaml memory model. *)

module Obs = Umlfront_obs

type t = {
  requested : int; (* total domains asked for, incl. the owner *)
  owner : int; (* domain id of the creating domain *)
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  task_ready : Condition.t;
  batch_done : Condition.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let cpu_count () = Domain.recommended_domain_count ()

let domain_id () = (Domain.self () :> int)

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.task_ready t.lock
  done;
  match Queue.take_opt t.queue with
  | None ->
      (* stop requested and the queue is drained *)
      Mutex.unlock t.lock
  | Some task ->
      Mutex.unlock t.lock;
      task ();
      worker_loop t

let create ?domains () =
  let requested = match domains with Some n -> n | None -> cpu_count () in
  let t =
    {
      requested;
      owner = domain_id ();
      queue = Queue.create ();
      lock = Mutex.create ();
      task_ready = Condition.create ();
      batch_done = Condition.create ();
      stop = false;
      workers = [];
    }
  in
  if requested > 1 then
    t.workers <- List.init (requested - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  Obs.Metrics.set_gauge "pool.domains" (float_of_int (max 1 requested));
  t

let size t = if t.workers = [] then 1 else t.requested

let shutdown t =
  let workers = t.workers in
  if workers <> [] then begin
    Mutex.lock t.lock;
    t.stop <- true;
    t.workers <- [];
    Condition.broadcast t.task_ready;
    Mutex.unlock t.lock;
    List.iter Domain.join workers
  end

(* Fire-and-forget: hand one closure to the workers and return.  The
   task must do its own synchronization/telemetry — unlike {!run_batch}
   there is no completion barrier and no context forking here.  With no
   workers (sequential pool, or already shut down) the task is NOT run:
   the caller finds out via [false] and runs it inline, which keeps the
   no-worker pool observationally sequential. *)
let submit t task =
  if t.workers = [] then false
  else begin
    Mutex.lock t.lock;
    let accepted = not t.stop in
    if accepted then begin
      Queue.add task t.queue;
      Condition.signal t.task_ready
    end;
    Mutex.unlock t.lock;
    accepted
  end

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* The parallel core: run [n] indexed tasks across the pool, the owner
   helping, and return after all have finished.  [run_task i] must
   confine its effects to state owned by index [i].

   Telemetry: each participating domain gets a lazily-forked child of
   the submitter's current context, so workers record spans and
   counters without contending on (or interleaving into) the parent's
   sinks.  When the batch completes, the children are merged back —
   Context.merge is commutative, so the result is deterministic no
   matter which domains picked up which tasks.  Child spans are rooted
   under the span that was open at submission, giving `-j` runs one
   coherent trace tree. *)
let run_batch t n run_task =
  let parent_ctx = Obs.Context.current () in
  let root_parent = Obs.Trace.innermost () in
  let children : (int, Obs.Context.t) Hashtbl.t = Hashtbl.create 8 in
  let children_lock = Mutex.create () in
  let child_for_domain () =
    let d = domain_id () in
    Mutex.lock children_lock;
    let ctx =
      match Hashtbl.find_opt children d with
      | Some c -> c
      | None ->
          let c = Obs.Context.fork ~root_parent parent_ctx in
          Hashtbl.add children d c;
          c
    in
    Mutex.unlock children_lock;
    ctx
  in
  let remaining = ref n in (* guarded by t.lock *)
  let task i () =
    Obs.Context.with_current (child_for_domain ()) (fun () ->
        run_task i;
        Obs.Metrics.incr "pool.tasks";
        Obs.Metrics.incr (Printf.sprintf "pool.tasks.d%d" (domain_id ())));
    Mutex.lock t.lock;
    decr remaining;
    if !remaining = 0 then Condition.broadcast t.batch_done;
    Mutex.unlock t.lock
  in
  Mutex.lock t.lock;
  for i = 0 to n - 1 do
    Queue.add (task i) t.queue
  done;
  Condition.broadcast t.task_ready;
  Mutex.unlock t.lock;
  (* Owner helps drain the queue, then waits out in-flight tasks. *)
  let rec help () =
    Mutex.lock t.lock;
    match Queue.take_opt t.queue with
    | Some task ->
        Mutex.unlock t.lock;
        task ();
        help ()
    | None ->
        while !remaining > 0 do
          Condition.wait t.batch_done t.lock
        done;
        Mutex.unlock t.lock
  in
  help ();
  (* All tasks are done and their writes are visible (the remaining
     counter was observed under the mutex), so the children table is
     quiescent: fold the per-domain contexts back into the parent. *)
  let kids = Hashtbl.fold (fun d c acc -> (d, c) :: acc) children [] in
  let kids = List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) kids) in
  if kids <> [] then Obs.Context.merge ~into:parent_ctx kids

(* A batch is sequential when the pool has no workers (size <= 1 or
   already shut down) or when called from inside one of this pool's own
   tasks (owner check) — reentrant use would deadlock on the queue. *)
let sequential t = t.workers = [] || domain_id () <> t.owner

let chunk_bounds ~chunk n =
  let chunk = max 1 chunk in
  let chunks = (n + chunk - 1) / chunk in
  (chunk, chunks)

let map_array ?(chunk = 1) t f arr =
  let n = Array.length arr in
  if sequential t || n <= 1 then Array.map f arr
  else begin
    Obs.Metrics.incr "pool.maps";
    let results = Array.make n None in
    let chunk, chunks = chunk_bounds ~chunk n in
    run_batch t chunks (fun c ->
        let lo = c * chunk and hi = min n ((c + 1) * chunk) in
        for i = lo to hi - 1 do
          results.(i) <-
            Some
              (match f arr.(i) with
              | v -> Ok v
              | exception e -> Error (e, Printexc.get_raw_backtrace ()))
        done);
    (* Re-raise the earliest failure, as sequential Array.map would. *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      results;
    Array.map
      (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
      results
  end

let map ?chunk t f xs = Array.to_list (map_array ?chunk t f (Array.of_list xs))

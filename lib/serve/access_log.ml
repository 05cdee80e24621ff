(* The structured JSONL access log, written off the request path.

   [append] is a bounded-queue push under a mutex — never a syscall, so
   a slow or full disk cannot extend a request's critical section.  A
   dedicated writer domain drains the queue in batches and does the
   actual [output_string]/[flush]; when the queue is full the line is
   dropped and counted ([dropped], exposed as
   umlfront_access_log_dropped_total), which is the correct failure
   mode for telemetry: lose a log line, never stall a request. *)

let default_queue_bound = 1024

type t = {
  queue : string Queue.t;
  bound : int;
  mutable dropped : int;
  mutable stopping : bool;
  lock : Mutex.t;
  cond : Condition.t;
  mutable writer : unit Domain.t option;
}

let writer_loop oc q =
  let rec drain () =
    Mutex.lock q.lock;
    while Queue.is_empty q.queue && not q.stopping do
      Condition.wait q.cond q.lock
    done;
    let batch = Queue.fold (fun acc l -> l :: acc) [] q.queue in
    Queue.clear q.queue;
    let stop = q.stopping in
    Mutex.unlock q.lock;
    List.iter (fun line -> output_string oc line) (List.rev batch);
    if batch <> [] then flush oc;
    if not stop then drain ()
  in
  drain ();
  close_out_noerr oc

let create ~path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  let t =
    {
      queue = Queue.create ();
      bound = default_queue_bound;
      dropped = 0;
      stopping = false;
      lock = Mutex.create ();
      cond = Condition.create ();
      writer = None;
    }
  in
  t.writer <- Some (Domain.spawn (fun () -> writer_loop oc t));
  t

(* Enqueue one line (the newline is added here).  Returns false when
   the queue was full and the line was dropped. *)
let append t line =
  Mutex.protect t.lock @@ fun () ->
  if t.stopping || Queue.length t.queue >= t.bound then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    Queue.add (line ^ "\n") t.queue;
    Condition.signal t.cond;
    true
  end

let dropped t = Mutex.protect t.lock (fun () -> t.dropped)

(* Flush what is queued and join the writer.  Idempotent-ish: a second
   close finds [stopping] already set and the domain already joined by
   the first caller, so guard at the call site (Server.stop is). *)
let close t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.signal t.cond;
  Mutex.unlock t.lock;
  match t.writer with
  | Some d ->
      t.writer <- None;
      Domain.join d
  | None -> ()

(* Bounded store of retained request traces: request id -> the
   Chrome-trace JSON of that request's private span buffer, kept for
   requests that asked ([?trace=1]) or were sampled ([--trace-sample]).
   A plain ring over insertion order — when the [capacity+1]-th trace
   arrives the oldest is evicted, so a daemon under full sampling holds
   at most [capacity] span trees, never one per request served. *)

type t = {
  capacity : int;
  table : (string, string) Hashtbl.t;
  order : string Queue.t; (* insertion order, front = oldest *)
  lock : Mutex.t;
}

let create ?(capacity = 128) () =
  if capacity < 1 then invalid_arg "trace_store: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create 64;
    order = Queue.create ();
    lock = Mutex.create ();
  }

let locked t f = Mutex.protect t.lock f

let add t ~id payload =
  locked t @@ fun () ->
  if not (Hashtbl.mem t.table id) then begin
    while Queue.length t.order >= t.capacity do
      let victim = Queue.pop t.order in
      Hashtbl.remove t.table victim
    done;
    Hashtbl.replace t.table id payload;
    Queue.add id t.order
  end

let find t id = locked t @@ fun () -> Hashtbl.find_opt t.table id

(* The daemon's one I/O loop.  A single domain multiplexes every socket
   with [Unix.select]: the listener, request connections, [GET /events]
   subscribers and a self-pipe that other domains use to hand work back.
   Nothing else in the daemon reads or writes a socket.

   A connection is in one of these states:
   - [Reading]: bytes feed an incremental {!Http} decoder.  A connection
     that has not completed a request within [read_timeout_s] of accept
     or of its previous reply is closed — one rule for idle and
     trickling peers alike;
   - [Busy]: a complete request is being answered elsewhere (a pool
     worker); the connection is neither read nor timed until {!respond};
   - [Streaming]: an SSE subscriber.  {!publish} appends frames to its
     bounded outbox; a frame that does not fit is dropped and counted —
     lose an event, never stall a request;
   - [Closing]: flush the outbox, half-close, then read and discard
     until the peer's EOF (closing with unread bytes makes TCP answer
     with RST, which can destroy the reply before the peer reads it),
     bounded by [linger_s].

   Every write is non-blocking, through the connection's outbox: EAGAIN
   keeps the bytes for the next writable turn, so a slow peer costs its
   own outbox and nothing else.  Other domains reach the loop only
   through {!post}: a closure queued under a mutex plus one byte down
   the self-pipe, run on the loop at its next turn. *)

type state = Reading | Busy | Streaming | Closing | Closed

type conn = {
  fd : Unix.file_descr;
  dec : Http.decoder;
  mutable state : state;
  mutable outbox : string;
  mutable sent : int; (* prefix of [outbox] already written *)
  mutable deadline : float; (* Reading: read deadline; Closing: linger *)
  mutable arrived : float; (* first byte of the current request; nan = none *)
  mutable last_read : float;
  mutable admitted : bool; (* counted in [inflight] *)
}

type t = {
  mutable listener : Unix.file_descr option;
  max_inflight : int;
  read_timeout_s : float;
  max_body : int;
  max_subs : int;
  max_outbox : int;
  heartbeat_s : float;
  heartbeat : unit -> string;
  overloaded : unit -> string; (* the 503 a connection past the cap gets *)
  mutable conns : conn list;
  mutable next_beat : float;
  inflight : int Atomic.t;
  subscribers : int Atomic.t;
  dropped : int Atomic.t;
  stopping : bool Atomic.t;
  lock : Mutex.t;
  posted : (unit -> unit) Queue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  buf : Bytes.t;
}

let linger_s = 1.0
let inflight t = Atomic.get t.inflight
let subscribers t = Atomic.get t.subscribers
let dropped t = Atomic.get t.dropped
let stopping t = Atomic.get t.stopping
let arrived c = c.arrived

let wake t =
  match Unix.write_substring t.wake_w "w" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error _ -> () (* pipe full: the loop is awake anyway *)

(* Run [f] on the loop domain at its next turn; callable from any
   domain. *)
let post t f =
  Mutex.protect t.lock (fun () -> Queue.add f t.posted);
  wake t

let ignore_unix f = try f () with Unix.Unix_error _ -> ()

let create ?listener ?(max_inflight = max_int) ?(read_timeout_s = 30.)
    ?(max_body = 8 * 1024 * 1024) ?(max_subs = 32) ?(max_outbox = 256 * 1024)
    ?(heartbeat_s = 2.0) ?(overloaded = fun () -> "") ~heartbeat () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  List.iter Unix.set_nonblock (wake_r :: wake_w :: Option.to_list listener);
  {
    listener;
    max_inflight;
    read_timeout_s;
    max_body;
    max_subs;
    max_outbox;
    heartbeat_s;
    heartbeat;
    overloaded;
    conns = [];
    next_beat = Unix.gettimeofday () +. heartbeat_s;
    inflight = Atomic.make 0;
    subscribers = Atomic.make 0;
    dropped = Atomic.make 0;
    stopping = Atomic.make false;
    lock = Mutex.create ();
    posted = Queue.create ();
    wake_r;
    wake_w;
    buf = Bytes.create 65536;
  }

(* Take [fd] over as a fresh connection in the reading state. *)
let adopt ?(admitted = true) t fd =
  ignore_unix (fun () -> Unix.set_nonblock fd);
  if admitted then Atomic.incr t.inflight;
  let c =
    {
      fd;
      dec = Http.decoder ~max_body:t.max_body ();
      state = Reading;
      outbox = "";
      sent = 0;
      deadline = Unix.gettimeofday () +. t.read_timeout_s;
      arrived = Float.nan;
      last_read = 0.;
      admitted;
    }
  in
  t.conns <- c :: t.conns;
  c

let release t c =
  if c.admitted then (
    c.admitted <- false;
    Atomic.decr t.inflight)

let close t c =
  if c.state <> Closed then begin
    release t c;
    if c.state = Streaming then Atomic.decr t.subscribers;
    c.state <- Closed;
    ignore_unix (fun () -> Unix.close c.fd)
  end

let pending c = String.length c.outbox - c.sent

let enqueue c bytes =
  if pending c = 0 then c.outbox <- bytes
  else c.outbox <- String.sub c.outbox c.sent (pending c) ^ bytes;
  c.sent <- 0

(* Write what the socket takes now.  A drained [Closing] connection
   half-closes and starts lingering for the peer's EOF. *)
let flush t c =
  match Unix.write_substring c.fd c.outbox c.sent (pending c) with
  | n ->
      c.sent <- c.sent + n;
      if pending c = 0 then begin
        c.outbox <- "";
        c.sent <- 0;
        if c.state = Closing then begin
          ignore_unix (fun () -> Unix.shutdown c.fd Unix.SHUTDOWN_SEND);
          c.deadline <- Float.min c.deadline (Unix.gettimeofday () +. linger_s)
        end
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> close t c (* the peer is gone *)

(* The reply to the connection's current request.  [close] ends the
   conversation; otherwise the read deadline restarts and a pipelined
   request already buffered is decoded at the end of this turn. *)
let respond t c bytes ~close =
  if c.state <> Closed then begin
    let now = Unix.gettimeofday () in
    enqueue c bytes;
    c.deadline <- now +. t.read_timeout_s;
    if close then c.state <- Closing
    else begin
      c.state <- Reading;
      c.arrived <- (if Http.buffered c.dec > 0 then c.last_read else Float.nan)
    end;
    flush t c
  end

(* Turn [c] into an SSE subscriber whose first bytes are [greeting].
   Refused (false) past [max_subs] or while stopping; subscribers do not
   count towards [max_inflight]. *)
let stream t c ~greeting =
  if stopping t || subscribers t >= t.max_subs then false
  else begin
    release t c;
    c.state <- Streaming;
    Atomic.incr t.subscribers;
    enqueue c greeting;
    flush t c;
    true
  end

(* Append [frame] to every subscriber's outbox; a full outbox drops it.
   Returns how many subscribers dropped it.  Loop domain only: the bytes
   go out on the next writable turn. *)
let publish t frame =
  List.fold_left
    (fun drops c ->
      if c.state <> Streaming then drops
      else if pending c + String.length frame > t.max_outbox then begin
        Atomic.incr t.dropped;
        drops + 1
      end
      else begin
        enqueue c frame;
        drops
      end)
    0 t.conns

(* [Unix.select] takes no descriptor past FD_SETSIZE (1024).  The
   kernel hands out the lowest free descriptor, so capping the loop's
   connections keeps all of them in range. *)
let max_conns = 1000

(* One connection per readable turn; the next turn's [select] sees
   the rest of the backlog at once. *)
let accept t listener =
  match Unix.accept ~cloexec:true listener with
  | exception Unix.Unix_error _ -> ()
  | fd, _ when List.length t.conns >= max_conns -> ignore_unix (fun () -> Unix.close fd)
  | fd, _ when inflight t >= t.max_inflight ->
      (* Admission control: an immediate 503, never a queue. *)
      respond t (adopt ~admitted:false t fd) (t.overloaded ()) ~close:true
  | fd, _ -> ignore (adopt t fd)

(* Reading: feed the decoder.  Streaming and Closing: read only to see
   EOF, discarding what the peer sends. *)
let receive t c =
  match Unix.read c.fd t.buf 0 (Bytes.length t.buf) with
  | 0 -> close t c
  | n ->
      if c.state = Reading then begin
        c.last_read <- Unix.gettimeofday ();
        if Float.is_nan c.arrived then c.arrived <- c.last_read;
        Http.feed c.dec (Bytes.sub_string t.buf 0 n)
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> close t c

(* Hand every complete request to [handle]; one at a time per
   connection, and only once the previous reply left, so pipelined
   replies keep their order and a peer that does not read cannot grow
   an outbox without bound. *)
let rec decode t handle c =
  if c.state = Reading && pending c = 0 then
    match Http.next c.dec with
    | `Await -> ()
    | `Request req ->
        c.state <- Busy;
        handle c (Ok req);
        decode t handle c
    | `Error e ->
        c.state <- Busy;
        handle c (Error e)

let expire t now =
  List.iter
    (fun c ->
      match c.state with
      | (Reading | Closing) when now >= c.deadline -> close t c
      | Reading when stopping t && pending c = 0 -> close t c
      | Reading when stopping t -> c.state <- Closing
      | Streaming when stopping t -> close t c
      | _ -> ())
    t.conns;
  if stopping t then
    Option.iter
      (fun l ->
        t.listener <- None;
        ignore_unix (fun () -> Unix.close l))
      t.listener

(* One round: expire deadlines, wait in [select] until a socket is
   ready, a domain posts, the heartbeat is due or the next deadline
   passes (at most [max_wait]), then serve whatever is ready. *)
let turn ?(max_wait = Float.infinity) t handle =
  let now = Unix.gettimeofday () in
  expire t now;
  t.conns <- List.filter (fun c -> c.state <> Closed) t.conns;
  if not (stopping t && t.conns = []) then begin
    let live = t.conns in
    let reads =
      List.filter_map
        (fun c ->
          match c.state with
          | Busy -> None
          | Reading when pending c > 0 -> None
          | _ -> Some c.fd)
        live
    in
    let writes = List.filter_map (fun c -> if pending c > 0 then Some c.fd else None) live in
    let due =
      List.fold_left
        (fun d c ->
          match c.state with Reading | Closing -> Float.min d c.deadline | _ -> d)
        (Float.min t.next_beat (now +. max_wait))
        live
    in
    let readable, writable =
      match
        Unix.select
          ((t.wake_r :: Option.to_list t.listener) @ reads)
          writes [] (Float.max 0. (due -. now))
      with
      | r, w, _ -> (r, w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    in
    if List.mem t.wake_r readable then
      ignore_unix (fun () -> ignore (Unix.read t.wake_r t.buf 0 64));
    let posted = Queue.create () in
    Mutex.protect t.lock (fun () -> Queue.transfer t.posted posted);
    Queue.iter (fun f -> f ()) posted;
    Option.iter (fun l -> if List.mem l readable then accept t l) t.listener;
    List.iter
      (fun c ->
        if c.state <> Closed && pending c > 0 && List.mem c.fd writable then flush t c;
        if c.state <> Closed && List.mem c.fd readable then receive t c;
        decode t handle c)
      live;
    let now = Unix.gettimeofday () in
    if now >= t.next_beat then begin
      t.next_beat <- now +. t.heartbeat_s;
      if subscribers t > 0 then ignore (publish t (t.heartbeat ()))
    end
  end

(* Serve until {!stop}, then until the last connection is done. *)
let run t handle =
  while not (stopping t && t.conns = []) do
    turn t handle
  done

(* Ask the loop to wind down; true for the call that did. *)
let stop t =
  let first = not (Atomic.exchange t.stopping true) in
  if first then wake t;
  first

(* Release the remaining descriptors once no domain runs or posts to
   the loop any more. *)
let close_all t =
  List.iter (close t) t.conns;
  t.conns <- [];
  Option.iter (fun l -> ignore_unix (fun () -> Unix.close l)) t.listener;
  t.listener <- None;
  ignore_unix (fun () -> Unix.close t.wake_r);
  ignore_unix (fun () -> Unix.close t.wake_w)

type response = {
  status : int;
  reason : string;
  headers : (string * string) list;
  body : string;
}

let header r name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name r.headers

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let read_to_eof fd =
  let buf = Bytes.create 8192 in
  let acc = Buffer.create 8192 in
  let rec loop () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Buffer.contents acc
    | n ->
        Buffer.add_subbytes acc buf 0 n;
        loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let head_end raw =
  let rec find i =
    if i + 3 >= String.length raw then None
    else if String.sub raw i 4 = "\r\n\r\n" then Some i
    else find (i + 1)
  in
  find 0

(* Parse "HTTP/1.1 200 OK\r\nName: value\r\n...\r\n\r\nbody".  The body
   is everything after the head: the request always said [Connection:
   close], so EOF delimits it (Content-Length is cross-checked when
   present). *)
let parse_response raw =
  let head_end =
    match head_end raw with
    | Some i -> i
    | None -> failwith "serve_client: response head not terminated"
  in
  let head = String.sub raw 0 head_end in
  let body = String.sub raw (head_end + 4) (String.length raw - head_end - 4) in
  match String.split_on_char '\n' head with
  | [] -> failwith "serve_client: empty response"
  | status_line :: header_lines ->
      let status_line = String.trim status_line in
      let status, reason =
        match String.split_on_char ' ' status_line with
        | _http :: code :: rest -> (
            match int_of_string_opt code with
            | Some c -> (c, String.concat " " rest)
            | None -> failwith ("serve_client: bad status line: " ^ status_line))
        | _ -> failwith ("serve_client: bad status line: " ^ status_line)
      in
      let headers =
        List.filter_map
          (fun line ->
            let line = String.trim line in
            if line = "" then None
            else
              match String.index_opt line ':' with
              | None -> None
              | Some i ->
                  Some
                    ( String.lowercase_ascii (String.sub line 0 i),
                      String.trim
                        (String.sub line (i + 1) (String.length line - i - 1))
                    ))
          header_lines
      in
      (match List.assoc_opt "content-length" headers with
      | Some n when int_of_string_opt n <> Some (String.length body) ->
          failwith
            (Printf.sprintf
               "serve_client: body length %d does not match Content-Length %s"
               (String.length body) n)
      | _ -> ());
      { status; reason; headers; body }

let request ?(headers = []) ?body ~port ~meth target =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try
         Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
       with Unix.Unix_error (e, _, _) ->
         failwith
           (Printf.sprintf "serve_client: connect to 127.0.0.1:%d failed: %s"
              port (Unix.error_message e)));
      let buf = Buffer.create 512 in
      Buffer.add_string buf (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
      Buffer.add_string buf "Host: 127.0.0.1\r\n";
      Buffer.add_string buf "Connection: close\r\n";
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
        headers;
      (match body with
      | Some b ->
          Buffer.add_string buf
            (Printf.sprintf "Content-Length: %d\r\n" (String.length b))
      | None -> ());
      Buffer.add_string buf "\r\n";
      Option.iter (Buffer.add_string buf) body;
      let bytes = Buffer.contents buf in
      write_all fd bytes 0 (String.length bytes);
      parse_response (read_to_eof fd))

let get ~port target = request ~port ~meth:"GET" target
let post ?headers ~port target body = request ?headers ~body ~port ~meth:"POST" target

(* --- typed views over the observability surface ---------------------- *)

let request_id r = header r "x-request-id"
let traceparent r = header r "traceparent"

let metrics ~port = get ~port "/metrics"
let windows ~port = get ~port "/api/windows"
let dashboard ~port = get ~port "/dashboard"
let trace ~port id = get ~port ("/api/trace/" ^ id)
let healthz ~port = get ~port "/healthz"

(* [/events] never ends on its own, so the one-shot [request] helper
   does not fit: stream on a non-blocking raw socket, feed
   the shared {!Sse} parser, and stop at [max_events] frames or
   [timeout_s] seconds, whichever comes first. *)
let events ?(max_events = 3) ?(timeout_s = 5.0) ~port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let head =
        "GET /events HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
      in
      write_all fd head 0 (String.length head);
      Unix.set_nonblock fd;
      let deadline = Unix.gettimeofday () +. timeout_s in
      let parser = Sse.parser () in
      let buf = Bytes.create 8192 in
      let collected = ref [] in
      let in_body = ref false in
      let pending_head = Buffer.create 256 in
      let rec loop () =
        if List.length !collected >= max_events then ()
        else if Unix.gettimeofday () > deadline then ()
        else
          match
            ignore (Unix.select [ fd ] [] [] (Float.max 0. (deadline -. Unix.gettimeofday ())));
            Unix.read fd buf 0 (Bytes.length buf)
          with
          | 0 -> ()
          | n ->
              let chunk = Bytes.sub_string buf 0 n in
              let payload =
                if !in_body then chunk
                else begin
                  Buffer.add_string pending_head chunk;
                  let all = Buffer.contents pending_head in
                  match head_end all with
                  | Some i ->
                      in_body := true;
                      String.sub all (i + 4) (String.length all - i - 4)
                  | None -> ""
                end
              in
              collected := !collected @ Sse.feed parser payload;
              loop ()
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              loop ()
      in
      loop ();
      let events = !collected in
      if List.length events > max_events then
        List.filteri (fun i _ -> i < max_events) events
      else events)

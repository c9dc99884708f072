type content =
  | In_memory of (string * string) list
  | Via_vfs of Ukvfs.Vfs.t
  | Via_shfs of Ukvfs.Shfs.t

type stats = { requests : int; errors_404 : int; errors_503 : int; bytes_sent : int }

let zero_stats = { requests = 0; errors_404 = 0; errors_503 = 0; bytes_sent = 0 }

type t = {
  clock : Uksim.Clock.t;
  alloc : Ukalloc.Alloc.t;
  content : content;
  pages : (string * (string * int)) list;
      (* In_memory only: path -> (rendered 200 reply, body length) *)
  core : int; (* tracepoint lane; the owning core under SMP *)
  mutable st : stats;
}

(* nginx-ish request handling work: header parse, route, log. *)
let parse_cost = 540
let respond_cost = 380

let default_page =
  let body =
    "<!DOCTYPE html><html><head><title>Unikraft</title></head><body>"
    ^ "<h1>It works!</h1><p>"
    ^ String.concat ""
        (List.init 16 (fun i -> Printf.sprintf "line %02d of the static test page......." i))
    ^ "</p></body></html>"
  in
  (* Pad to exactly 612 bytes, the paper's page size. *)
  if String.length body >= 612 then String.sub body 0 612
  else body ^ String.make (612 - String.length body) ' '

let charge t c = Uksim.Clock.advance t.clock c

let response ~status ~body =
  Printf.sprintf "HTTP/1.1 %s\r\nServer: ukraft\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n%s"
    status (String.length body) body

let ok_reply body = (response ~status:"200 OK" ~body, String.length body)
let bad_request = response ~status:"400 Bad Request" ~body:"bad request"
let not_found = response ~status:"404 Not Found" ~body:"not found"
let overloaded = response ~status:"503 Service Unavailable" ~body:"overloaded"

(* The 200 reply for [path] and its body length. In-memory pages are
   rendered once by [mk]; files are read and rendered per request, since
   they can change underneath the server. *)
let lookup t path =
  match t.content with
  | In_memory _ -> List.assoc_opt path t.pages
  | Via_vfs vfs -> (
      match Ukvfs.Vfs.open_file vfs path () with
      | Error _ -> None
      | Ok fd -> (
          let result =
            match Ukvfs.Vfs.stat vfs path with
            | Ok { Ukvfs.Fs.size; _ } -> (
                match Ukvfs.Vfs.pread vfs fd ~off:0 ~len:size with
                | Ok data -> Some (ok_reply (Bytes.to_string data))
                | Error _ -> None)
            | Error _ -> None
          in
          ignore (Ukvfs.Vfs.close vfs fd);
          result))
  | Via_shfs shfs -> (
      let name = match Ukvfs.Fs.split_path path with [ n ] -> n | _ -> path in
      match Ukvfs.Shfs.open_direct shfs name with
      | Error _ -> None
      | Ok h ->
          let size = Ukvfs.Shfs.size_direct shfs h in
          let result =
            match Ukvfs.Shfs.read_direct shfs h ~off:0 ~len:size with
            | Ok data -> Some (ok_reply (Bytes.to_string data))
            | Error _ -> None
          in
          Ukvfs.Shfs.close_direct shfs h;
          result)

(* Extract the path of a "GET <path> HTTP/1.x" request line. *)
let parse_request line =
  match String.split_on_char ' ' line with
  | [ "GET"; path; _version ] -> Some path
  | _ -> None

(* Both builds answer a parsed path the same way; [copy] charges the
   socket build's materialization of the body. *)
let route t ~copy = function
  | None -> bad_request
  | Some path -> (
      match lookup t path with
      | Some (reply, body_len) ->
          if copy then charge t (Uksim.Cost.memcpy body_len);
          reply
      | None ->
          t.st <- { t.st with errors_404 = t.st.errors_404 + 1 };
          not_found)

let count_sent t reply =
  t.st <-
    { t.st with requests = t.st.requests + 1; bytes_sent = t.st.bytes_sent + String.length reply }

let rec handle_request t req_line =
  Uktrace.Tracer.span Uktrace.Tracer.default t.clock ~core:t.core ~cat:"ukapps"
    "http_request" (fun () -> handle_request_untraced t req_line)

and handle_request_untraced t req_line =
  charge t parse_cost;
  (* Per-request buffer from the app allocator, as nginx's request pool. *)
  let pool = Ukalloc.Alloc.uk_malloc t.alloc 1024 in
  let reply =
    match pool with
    | None ->
        (* Allocator under pressure: shed the request instead of serving
           it half-built (degraded mode). *)
        t.st <- { t.st with errors_503 = t.st.errors_503 + 1 };
        overloaded
    | Some _ -> route t ~copy:true (parse_request req_line)
  in
  charge t respond_cost;
  (match pool with Some addr -> Ukalloc.Alloc.uk_free t.alloc addr | None -> ());
  count_sent t reply;
  reply

(* --- zero-copy run-to-completion fast path (the paper's Fig 14 port) ------ *)

(* Specialized request handling: the request line is parsed in place in
   the driver's ring buffer (no per-request pool, no header
   re-materialization), so the per-request budget shrinks from
   [parse_cost + respond_cost] to a scan plus a template write. *)
let fast_parse_cost = 150
let fast_respond_cost = 110

(* Find "\r\n\r\n" in [buf] within [from, limit); the index after it. *)
let find_reqend buf from limit =
  let rec go i =
    if i + 3 >= limit then None
    else if
      Bytes.get buf i = '\r'
      && Bytes.get buf (i + 1) = '\n'
      && Bytes.get buf (i + 2) = '\r'
      && Bytes.get buf (i + 3) = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go from

(* Parse "GET <path> <version>" in place; the path is the only substring
   materialized (it is the lookup key, not payload). *)
let parse_fast buf rs limit =
  if limit - rs > 4 && Bytes.sub_string buf rs 4 = "GET " then
    match Bytes.index_from_opt buf (rs + 4) ' ' with
    | Some sp when sp < limit -> Some (Bytes.sub_string buf (rs + 4) (sp - rs - 4))
    | Some _ | None -> None
  else None

let fast_reply t c buf rs line_end =
  Uktrace.Tracer.span Uktrace.Tracer.default t.clock ~core:t.core ~cat:"ukapps"
    "http_request_fast" (fun () ->
      charge t fast_parse_cost;
      let reply = route t ~copy:false (parse_fast buf rs line_end) in
      charge t fast_respond_cost;
      Lineserv.reply c reply;
      count_sent t reply)

(* --- the two builds ------------------------------------------------------- *)

(* Hand every complete request (terminated by CRLFCRLF) in
   [buf[off, off+len)] to [serve c buf rs line_end], where [line_end]
   ends its request line; returns bytes consumed. *)
let scan_requests serve c buf off len =
  let limit = off + len in
  let rec go rs =
    match find_reqend buf rs limit with
    | Some re ->
        let line_end =
          match Bytes.index_from_opt buf rs '\r' with
          | Some i when i < re -> i
          | Some _ | None -> re
        in
        serve c buf rs line_end;
        go re
    | None -> rs - off
  in
  go off

let mk ~clock ~alloc ~core content =
  let pages =
    match content with
    | In_memory pages -> List.map (fun (path, body) -> (path, ok_reply body)) pages
    | Via_vfs _ | Via_shfs _ -> []
  in
  let t = { clock; alloc; content; pages; core; st = zero_stats } in
  Uktrace.Registry.register
    (Uktrace.Source.make ~subsystem:"ukapps" ~name:"httpd"
       ~reset:(fun () -> t.st <- zero_stats)
       (fun () ->
         [
           ("requests", Uktrace.Metric.Count t.st.requests);
           ("errors_404", Uktrace.Metric.Count t.st.errors_404);
           ("errors_503", Uktrace.Metric.Count t.st.errors_503);
           ("bytes_sent", Uktrace.Metric.Count t.st.bytes_sent);
         ]));
  t

let create ~clock ~sched ~stack ~alloc ?(port = 80) ?(core = 0) content =
  let t = mk ~clock ~alloc ~core content in
  Lineserv.serve ~sched ~stack ~port ~name:"httpd"
    (scan_requests (fun c buf rs line_end ->
         Lineserv.reply c (handle_request t (Bytes.sub_string buf rs (line_end - rs)))));
  t

let create_fast ~clock ~sched ~stack ~alloc ?(port = 80) ?(core = 0) ?(rtc = true) content =
  let t = mk ~clock ~alloc ~core content in
  Lineserv.serve_fast ~clock ~sched ~stack ~port ~name:"httpd" ~rtc
    (scan_requests (fast_reply t));
  t

let stats t = t.st

let sum_stats ts =
  List.fold_left
    (fun acc t ->
      {
        requests = acc.requests + t.st.requests;
        errors_404 = acc.errors_404 + t.st.errors_404;
        errors_503 = acc.errors_503 + t.st.errors_503;
        bytes_sent = acc.bytes_sent + t.st.bytes_sent;
      })
    zero_stats ts

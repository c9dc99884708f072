(* Tests for the shared request/reply service layer (Ukapps.Lineserv)
   under its four services: the straddle stash and the socket tail give
   the same replies however the request stream is segmented, on both
   datapaths; the unconsumed-byte bound closes a peer that never ends a
   frame without disturbing its neighbours; hostile RESP frames get
   one protocol error on both datapaths; and httpd's reply bytes and
   per-request clock charge are pinned exactly. *)

module Cl = Ukapps.Cluster
module S = Uknetstack.Stack
module Resp = Ukapps.Resp
module Infer = Ukapps.Infer

(* --- a scripted client on a one-core-pair cluster ----------------------------- *)

type service = {
  label : string;
  port : int;
  add : Cl.t -> fast:bool -> unit;
  frames : string list;  (** one pipelined, valid request stream, frame by frame *)
  junk : int -> string;  (** that many bytes that never complete a frame *)
  check : string -> unit;  (** sanity check of the reply bytes to [frames] *)
}

let count_sub s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let fixed_replies ~reply_len ~n ~status s =
  Alcotest.(check int) "one fixed-size reply per request" (n * reply_len) (String.length s);
  for i = 0 to n - 1 do
    let st = String.sub s (i * reply_len) 2 in
    if not (List.mem st status) then Alcotest.failf "reply %d has status %S" i st
  done

let pages = [ ("/index.html", Ukapps.Httpd.default_page); ("/a.txt", "tiny") ]

let add_httpd content c ~fast =
  ignore (if fast then Cl.add_httpd_fast c content else Cl.add_httpd c content)

let httpd =
  let paths = List.init 60 (fun i -> [| "/index.html"; "/a.txt"; "/nope" |].(i mod 3)) in
  {
    label = "httpd";
    port = 80;
    add = add_httpd (Ukapps.Httpd.In_memory pages);
    frames = List.map (Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n") paths;
    junk = (fun n -> String.make n 'a');
    check =
      (fun s ->
        Alcotest.(check int) "200s" 40 (count_sub s "HTTP/1.1 200 OK");
        Alcotest.(check int) "404s" 20 (count_sub s "HTTP/1.1 404 Not Found"));
  }

let resp_script =
  [
    ([ "SET"; "k"; "v1" ], Resp.Simple "OK");
    ([ "GET"; "k" ], Resp.Bulk "v1");
    ([ "INCR"; "n" ], Resp.Integer 1);
    ([ "INCR"; "n" ], Resp.Integer 2);
    ([ "EXISTS"; "k" ], Resp.Integer 1);
    ([ "DEL"; "k" ], Resp.Integer 1);
    ([ "GET"; "k" ], Resp.Null);
    ([ "PING" ], Resp.Simple "PONG");
  ]

let resp =
  let script = List.concat (List.init 12 (fun _ -> resp_script)) in
  {
    label = "resp";
    port = 6379;
    add =
      (fun c ~fast -> ignore (if fast then Cl.add_resp_fast c () else Cl.add_resp c ()));
    frames = List.map (fun (cmd, _) -> Resp.encode_command cmd) script;
    junk = (fun n -> "*" ^ String.make (n - 1) '1');
    check =
      (fun s ->
        (* INCR keeps counting across repetitions of the script. *)
        let expect =
          List.mapi
            (fun i (cmd, r) ->
              match (cmd, r) with
              | "INCR" :: _, Resp.Integer k -> Resp.Integer (k + (2 * (i / 8)))
              | _, r -> r)
            script
        in
        Alcotest.(check string) "replies" (String.concat "" (List.map Resp.encode expect)) s);
  }

let store =
  let n = 200 in
  {
    label = "store";
    port = 7000;
    add =
      (fun c ~fast -> ignore (if fast then Cl.add_store_fast c () else Cl.add_store c ()));
    frames =
      List.init n (fun i ->
          let k = i mod 7 in
          (match i mod 5 with
          | 0 -> Printf.sprintf "SET k%03d v%d" k i
          | 1 -> Printf.sprintf "GET k%03d" k
          | 2 -> Printf.sprintf "DEL k%03d" k
          | 3 -> "ROOT"
          | _ -> "COMMIT")
          ^ "\n");
    junk = (fun n -> String.make n 'a');
    check = fixed_replies ~reply_len:Ukapps.Store.reply_len ~n ~status:[ "OK"; "NF" ];
  }

let infer =
  let n = 120 in
  {
    label = "infer";
    port = 8000;
    add =
      (fun c ~fast ->
        ignore
          (if fast then Cl.add_infer_fast c ~size_mb:1 () else Cl.add_infer c ~size_mb:1 ()));
    frames = List.init n (fun i -> Infer.request ~rid:i ~width:(1 + (i mod 5)));
    junk = (fun n -> String.make n 'a');
    check = fixed_replies ~reply_len:Infer.reply_len ~n ~status:[ "OK" ];
  }

let services = [ httpd; resp; store; infer ]

let server_addr c port = ((S.conf (Cl.server_stack c 0)).S.ip, port)

(* Append everything that arrives until the peer has been quiet for
   5 ms of virtual time, or closed; true on EOF. *)
let read_until_quiet stack flow got =
  let rec go quiet =
    if quiet >= 50 then false
    else
      match S.Tcp_socket.recv stack flow ~max:65536 with
      | None -> true
      | Some b when Bytes.length b > 0 ->
          Buffer.add_bytes got b;
          go 0
      | Some _ ->
          Uksched.Sched.sleep_ns 100_000.0;
          go (quiet + 1)
  in
  go 0

(* A client thread on the client core: each write goes out in its own
   send call, [pause] ns apart; the replies are whatever arrives. *)
let spawn_client c ~port ?(pause = 0.0) writes got =
  let stack = Cl.client_stack c 0 in
  ignore
    (Uksched.Sched.spawn (Uksmp.Smp.sched_of (Cl.smp c) ~core:1) ~pinned:true (fun () ->
         let flow = S.Tcp_socket.connect stack ~dst:(server_addr c port) () in
         List.iter
           (fun w ->
             ignore (S.Tcp_socket.send ~block:true stack flow (Bytes.of_string w));
             if pause > 0.0 then Uksched.Sched.sleep_ns pause)
           writes;
         ignore (read_until_quiet stack flow got);
         S.Tcp_socket.close stack flow))

let serve svc ~fast ~clients =
  let c = Cl.create ~seed:17 ~fastpath:Cl.fastpath_default ~n:1 () in
  svc.add c ~fast;
  let r = clients c in
  Uksmp.Smp.run (Cl.smp c);
  r

let exchange svc ~fast ?pause writes =
  serve svc ~fast ~clients:(fun c ->
      let got = Buffer.create 4096 in
      spawn_client c ~port:svc.port ?pause writes got;
      got)
  |> Buffer.contents

let datapath fast = if fast then "netbuf" else "socket"

(* --- the stash fallback, table-driven ------------------------------------------ *)

(* One stream, three segmentations: frame-aligned writes (no frame ever
   straddles), one write (TCP cuts it at the MSS, inside a frame), and
   one byte per segment (every frame straddles). *)
let test_segmentation_invariant () =
  List.iter
    (fun svc ->
      let stream = String.concat "" svc.frames in
      Alcotest.(check bool) (svc.label ^ ": stream spans an MSS") true
        (String.length stream > Uknetstack.Tcp.mss);
      let boundaries =
        List.fold_left (fun (acc, at) f -> (at :: acc, at + String.length f)) ([], 0) svc.frames
        |> fst
      in
      Alcotest.(check bool) (svc.label ^ ": the MSS cut lands inside a frame") false
        (List.mem Uknetstack.Tcp.mss boundaries);
      (* 1-byte segments are paced so that none overflows a ring. *)
      let deliveries =
        [
          ("frame-aligned", 0.0, svc.frames);
          ("one write, cut at the MSS", 0.0, [ stream ]);
          ( "1-byte segments",
            2_000.0,
            List.init (String.length stream) (fun i -> String.make 1 stream.[i]) );
        ]
      in
      let replies fast =
        let results =
          List.map
            (fun (name, pause, writes) -> (name, exchange svc ~fast ~pause writes))
            deliveries
        in
        let _, first = List.hd results in
        svc.check first;
        List.iter
          (fun (name, got) ->
            Alcotest.(check string)
              (Printf.sprintf "%s %s: %s" svc.label (datapath fast) name)
              first got)
          results;
        first
      in
      let socket = replies false in
      Alcotest.(check string) (svc.label ^ ": socket and netbuf replies agree") socket
        (replies true))
    services

(* --- the unconsumed-byte bound ----------------------------------------------- *)

let drip_total = 128 * 1024
let drip_chunk = 1024

(* A peer that never ends a frame: 1 KiB every 20 us while the connection
   stays open. Records (bytes sent, EOF seen) in [result]. *)
let spawn_dripper c svc result =
  let stack = Cl.client_stack c 0 in
  ignore
    (Uksched.Sched.spawn (Uksmp.Smp.sched_of (Cl.smp c) ~core:1) ~pinned:true (fun () ->
         let flow = S.Tcp_socket.connect stack ~dst:(server_addr c svc.port) () in
         let junk = Bytes.of_string (svc.junk drip_total) in
         let sent = ref 0 in
         while !sent < drip_total && S.Tcp_socket.state flow = Uknetstack.Tcp.Established do
           let n = min drip_chunk (drip_total - !sent) in
           sent := !sent + S.Tcp_socket.send stack flow (Bytes.sub junk !sent n);
           Uksched.Sched.sleep_ns 20_000.0
         done;
         let eof = read_until_quiet stack flow (Buffer.create 16) in
         S.Tcp_socket.close stack flow;
         result := Some (!sent, eof)))

let test_pending_bound () =
  let cases = List.concat_map (fun svc -> [ (svc, false); (svc, true) ]) services in
  List.iter
    (fun (svc, fast) ->
      let label = Printf.sprintf "%s %s" svc.label (datapath fast) in
      let alone = exchange svc ~fast svc.frames in
      let drip = ref None in
      let legit =
        serve svc ~fast ~clients:(fun c ->
            spawn_dripper c svc drip;
            let got = Buffer.create 4096 in
            spawn_client c ~port:svc.port ~pause:50_000.0 svc.frames got;
            got)
      in
      match !drip with
      | None -> Alcotest.failf "%s: dripper did not finish" label
      | Some (sent, eof) ->
          Alcotest.(check bool) (label ^ ": dripping peer is closed") true eof;
          Alcotest.(check bool) (label ^ ": closed before it sent 128 KiB") true
            (sent < drip_total && sent > Ukapps.Lineserv.max_pending);
          Alcotest.(check string) (label ^ ": concurrent connection served right") alone
            (Buffer.contents legit))
    cases

(* --- hostile RESP frames ---------------------------------------------------------- *)

(* Each hostile write is answered with one protocol error and discarded;
   a PING in a later write is then served as usual, on either datapath. *)
let hostile_frames =
  [
    ("bulk length near max_int", "*1\r\n$4611686018427387903\r\nPING\r\n");
    ("bulk body not followed by CRLF", "*1\r\n$4\r\nPINGxx\r\n");
    ("simple-string argument", "*1\r\n+PING\r\n");
    ("4096 nested arrays", String.concat "" (List.init 4096 (fun _ -> "*1\r\n")));
  ]

let test_resp_hostile_frames () =
  List.iter
    (fun fast ->
      List.iter
        (fun (name, frame) ->
          let got =
            exchange resp ~fast ~pause:1_000_000.0 [ frame; Resp.encode_command [ "PING" ] ]
          in
          Alcotest.(check string)
            (Printf.sprintf "%s %s: protocol error, then PONG" (datapath fast) name)
            "-ERR protocol error\r\n+PONG\r\n" got)
        hostile_frames)
    [ false; true ]

(* --- httpd's replies and per-request charge ------------------------------------ *)

let http_reply status body =
  Printf.sprintf "HTTP/1.1 %s\r\nServer: ukraft\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n%s"
    status (String.length body) body

let http_requests =
  List.map (Printf.sprintf "%s HTTP/1.1\r\nHost: t\r\n\r\n")
    [ "GET /index.html"; "GET /a.txt"; "GET /nope"; "BREW /pot" ]

(* A 200 per page, the first binding of a duplicate path winning, and the
   404 and 400 replies, byte for byte on both datapaths. *)
let test_httpd_reply_bytes () =
  let svc =
    { httpd with add = add_httpd (Ukapps.Httpd.In_memory (pages @ [ ("/a.txt", "shadowed") ])) }
  in
  let expect =
    String.concat ""
      [
        http_reply "200 OK" Ukapps.Httpd.default_page;
        http_reply "200 OK" "tiny";
        http_reply "404 Not Found" "not found";
        http_reply "400 Bad Request" "bad request";
      ]
  in
  List.iter
    (fun fast -> Alcotest.(check string) (datapath fast) expect (exchange svc ~fast http_requests))
    [ false; true ]

(* Cycles inside each socket-build "http_request" span: parse, the
   per-request pool, the body memcpy and respond, in request order. *)
let test_httpd_socket_charge () =
  let tr = Uktrace.Tracer.default in
  Uktrace.Tracer.reset tr;
  Uktrace.Tracer.set_enabled tr true;
  let events =
    Fun.protect
      ~finally:(fun () ->
        Uktrace.Tracer.set_enabled tr false;
        Uktrace.Tracer.reset tr)
      (fun () ->
        ignore (exchange httpd ~fast:false http_requests);
        Uktrace.Tracer.events tr)
  in
  let charges, _ =
    List.fold_left
      (fun (acc, start) (e : Uktrace.Tracer.event) ->
        match e.ph with
        | _ when e.name <> "http_request" -> (acc, start)
        | Uktrace.Tracer.B -> (acc, e.ts)
        | Uktrace.Tracer.E -> ((e.ts - start) :: acc, start)
        | Uktrace.Tracer.I -> (acc, start))
      ([], 0) events
  in
  Alcotest.(check (list int)) "cycles per request" [ 2371; 973; 968; 968 ] (List.rev charges)

let suite =
  [
    Alcotest.test_case "replies do not depend on segmentation (4 services x 2 paths)"
      `Quick test_segmentation_invariant;
    Alcotest.test_case "a never-terminated frame closes only its connection" `Quick
      test_pending_bound;
    Alcotest.test_case "hostile RESP frames get one protocol error (2 paths)" `Quick
      test_resp_hostile_frames;
    Alcotest.test_case "httpd reply bytes: 200 per page, first binding, 404, 400 (2 paths)"
      `Quick test_httpd_reply_bytes;
    Alcotest.test_case "httpd socket build: clock charge per request" `Quick
      test_httpd_socket_charge;
  ]

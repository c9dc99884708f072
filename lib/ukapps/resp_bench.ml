module S = Uknetstack.Stack
module Nb = Uknetdev.Netbuf
module Tcp = Uknetstack.Tcp

type workload = Get | Set

type result = {
  requests : int;
  elapsed_ns : float;
  rate_per_sec : float;
  errors : int;
}

(* Shared across client groups (one per core in SMP runs); every finishing
   connection pushes the end-time forward. *)
type agg = { mutable errors : int; mutable requests : int; mutable t_end : float }

let new_agg () = { errors = 0; requests = 0; t_end = 0.0 }

(* Client-side cost of producing a command and consuming a reply — the
   benchmark tool runs on its own pinned core in the paper, so this only
   matters for pipelining depth, not for contention with the server. *)
let client_cmd_cost = 120

(* The fast client formats commands straight into pool netbufs (the bytes
   themselves are charged by {!Nbio}) and counts replies in place in its
   rx sink — no socket queue, no value materialization. *)
let fast_client_cmd_cost = 40

(* The socket client: a pipelined batch goes out in one send; replies are
   counted as they arrive, charging the client's per-reply cost. *)
let socket_client ~clock ~sched:_ ~stack ~agg ~pipeline ~per_conn flow command =
  let sc = Resp.reply_scanner () in
  let replies_needed = ref 0 in
  let on_reply r =
    Uksim.Clock.advance clock client_cmd_cost;
    (match r with `Err -> agg.errors <- agg.errors + 1 | `Ok -> ());
    decr replies_needed
  in
  let rec read_replies () =
    if !replies_needed > 0 then begin
      match S.Tcp_socket.recv ~block:true stack flow ~max:65536 with
      | None -> failwith "resp_bench: server closed connection"
      | Some data ->
          Resp.scan_replies sc data 0 (Bytes.length data) ~on_reply;
          read_replies ()
    end
  in
  let sent = ref 0 in
  while !sent < per_conn do
    let batch = min pipeline (per_conn - !sent) in
    let buf = Buffer.create (batch * 40) in
    for k = 0 to batch - 1 do
      Uksim.Clock.advance clock client_cmd_cost;
      Buffer.add_string buf (command (!sent + k))
    done;
    sent := !sent + batch;
    replies_needed := batch;
    ignore (S.Tcp_socket.send ~block:true stack flow (Buffer.to_bytes buf));
    read_replies ()
  done

(* The zero-copy client: replies are counted by the same scanner running
   in place as the flow's rx sink (no socket queue, no parser allocation),
   requests go out pipelined through an {!Nbio} writer. Count-then-block
   is race-free under the shared cooperative per-core scheduler. *)
let fast_client ~clock ~sched ~stack ~agg ~pipeline ~per_conn flow command =
  let me = Uksched.Sched.self () in
  let got = ref 0 in
  let sc = Resp.reply_scanner () in
  Tcp.set_rx_sink flow
    (Some
       (fun nb ->
         let buf, off, len = Nb.view nb in
         Resp.scan_replies sc buf off len ~on_reply:(fun r ->
             Uksim.Clock.advance clock fast_client_cmd_cost;
             (match r with `Err -> agg.errors <- agg.errors + 1 | `Ok -> ());
             incr got);
         Nb.recycle nb;
         Uksched.Sched.wake sched me));
  let sent = ref 0 in
  while !sent < per_conn do
    let batch = min pipeline (per_conn - !sent) in
    let w = Nbio.writer ~clock ~stack ~flow in
    for k = 0 to batch - 1 do
      Uksim.Clock.advance clock fast_client_cmd_cost;
      Nbio.add w (command (!sent + k))
    done;
    Nbio.flush w;
    sent := !sent + batch;
    let want = !sent in
    while !got < want do
      Uksched.Sched.block ()
    done
  done;
  Tcp.set_rx_sink flow None

(* The SET payload: 3 bytes, as in the paper's redis-benchmark runs. *)
let value = "xxx"

(* One request generator for both clients: connection [ci]'s [j]-th
   command is request [ci * per_conn + j] of the workload. *)
let spawn_with client ~clock ~sched ~stack ~server ?(connections = 30) ?(pipeline = 16)
    ?(requests = 100_000) ?(port_for = fun _ -> None) ~agg workload =
  let per_conn = max 1 (requests / connections) in
  agg.requests <- agg.requests + (per_conn * connections);
  let key_of i = Printf.sprintf "key:%06d" (i land 0xfff) in
  let command i =
    match workload with
    | Get -> Resp.encode_command [ "GET"; key_of i ]
    | Set -> Resp.encode_command [ "SET"; key_of i; value ]
  in
  let client_thread ci () =
    let flow = S.Tcp_socket.connect stack ?lport:(port_for ci) ~dst:server () in
    client ~clock ~sched ~stack ~agg ~pipeline ~per_conn flow (fun j ->
        command ((ci * per_conn) + j));
    S.Tcp_socket.close stack flow;
    agg.t_end <- Float.max agg.t_end (Uksim.Clock.ns clock)
  in
  for ci = 0 to connections - 1 do
    (* Pinned: the client charges its home core's clock and stack. *)
    ignore
      (Uksched.Sched.spawn sched ~name:(Printf.sprintf "bench-%d" ci) ~pinned:true
         (client_thread ci))
  done

let spawn = spawn_with socket_client
let spawn_fast = spawn_with fast_client

let result_of_agg agg ~t_start =
  let elapsed = agg.t_end -. t_start in
  {
    requests = agg.requests;
    elapsed_ns = elapsed;
    rate_per_sec = Uksim.Stats.throughput_per_sec ~events:agg.requests ~elapsed_ns:elapsed;
    errors = agg.errors;
  }

let run ~clock ~sched ~stack ~server ?connections ?pipeline ?requests workload =
  let agg = new_agg () in
  let t_start = Uksim.Clock.ns clock in
  spawn ~clock ~sched ~stack ~server ?connections ?pipeline ?requests ~agg workload;
  Uksched.Sched.run sched;
  result_of_agg agg ~t_start

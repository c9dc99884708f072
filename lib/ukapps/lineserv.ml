(* The request/reply plumbing Httpd, Resp_store, Store and Infer share:
   socket and netbuf server datapaths around an app-supplied frame
   scanner, and the pipelined fixed-size-reply load client. *)

module S = Uknetstack.Stack
module Nb = Uknetdev.Netbuf
module Tcp = Uknetstack.Tcp

(* --- reply side ------------------------------------------------------------ *)

type sink =
  | Sock of { stack : S.t; flow : S.Tcp_socket.flow; out : Buffer.t }
  | Fast of Nbio.t

(* [rejected]: the last answer on this connection was a protocol error. *)
type conn = { sink : sink; mutable rejected : bool }

let conn sink = { sink; rejected = false }

let reply c s =
  c.rejected <- false;
  match c.sink with Sock k -> Buffer.add_string k.out s | Fast w -> Nbio.add w s

let send c s =
  c.rejected <- false;
  match c.sink with
  | Sock k -> ignore (S.Tcp_socket.send ~block:false k.stack k.flow (Bytes.of_string s))
  | Fast w ->
      Nbio.add w s;
      Nbio.flush w

let reject c s =
  if not c.rejected then begin
    reply c s;
    c.rejected <- true
  end

type scan = conn -> Bytes.t -> int -> int -> int

let lines handle c buf off len =
  let limit = off + len in
  let rec go ls =
    match Bytes.index_from_opt buf ls '\n' with
    | Some nl when nl < limit ->
        handle c (Bytes.sub_string buf ls (nl - ls));
        go (nl + 1)
    | Some _ | None -> ls - off
  in
  go off

(* --- the unconsumed tail ---------------------------------------------------- *)

let max_pending = 65536

(* Bytes received but not yet consumed by the scanner: the socket path's
   accumulation buffer and the netbuf path's straddle stash. *)
type pending = { mutable buf : Bytes.t; mutable len : int; mutable closed : bool }

let pending () = { buf = Bytes.empty; len = 0; closed = false }

let append p src =
  let n = Bytes.length src in
  if p.len + n > Bytes.length p.buf then begin
    let b = Bytes.create (max (p.len + n) (max 512 (2 * Bytes.length p.buf))) in
    Bytes.blit p.buf 0 b 0 p.len;
    p.buf <- b
  end;
  Bytes.blit src 0 p.buf p.len n;
  p.len <- p.len + n

(* Offer the whole tail to [scan] and keep what it leaves; false once the
   remainder outgrows [max_pending]. *)
let drain p (scan : scan) c =
  let consumed = scan c p.buf 0 p.len in
  if consumed > 0 then begin
    Bytes.blit p.buf consumed p.buf 0 (p.len - consumed);
    p.len <- p.len - consumed
  end;
  p.len <= max_pending

(* --- socket datapath --------------------------------------------------------- *)

let serve ~sched ~stack ~port ~name scan =
  (* Listen synchronously so the port is open before any other core's
     virtual time reaches a connect — under SMP this core's clock may lag
     or lead the clients' by the time the coordinator first reaches the
     accept thread. *)
  let l = S.Tcp_socket.listen stack ~port () in
  let conn_name = name ^ "-conn" in
  let connection flow () =
    let out = Buffer.create 1024 in
    let c = conn (Sock { stack; flow; out }) in
    let p = pending () in
    let rec serve () =
      match S.Tcp_socket.recv ~block:true stack flow ~max:16384 with
      | None -> S.Tcp_socket.close stack flow
      | Some data ->
          append p data;
          let keep = drain p scan c in
          if Buffer.length out > 0 then begin
            ignore (S.Tcp_socket.send ~block:true stack flow (Buffer.to_bytes out));
            Buffer.clear out
          end;
          if keep then serve () else S.Tcp_socket.close stack flow
    in
    serve ()
  in
  (* Pinned: server threads charge this instance's clock and stack, so
     work stealing must not migrate them to another core. *)
  ignore
    (Uksched.Sched.spawn sched ~name:(name ^ "-accept") ~daemon:true ~pinned:true (fun () ->
         let rec loop () =
           (match S.Tcp_socket.accept ~block:true l with
           | Some flow ->
               ignore
                 (Uksched.Sched.spawn sched ~name:conn_name ~daemon:true ~pinned:true
                    (connection flow))
           | None -> ());
           loop ()
         in
         loop ()))

(* --- netbuf datapath --------------------------------------------------------- *)

(* Ablation of run-to-completion: every segment hops through one pinned
   worker thread — the classic softirq-to-server handoff the fast path
   removes. *)
let worker_hop sched name =
  let q : (unit -> unit) Queue.t = Queue.create () in
  let wtid =
    Uksched.Sched.spawn sched ~name:(name ^ "-fast-worker") ~daemon:true ~pinned:true
      (fun () ->
        let rec loop () =
          (match Queue.take_opt q with Some job -> job () | None -> Uksched.Sched.block ());
          loop ()
        in
        loop ())
  in
  fun job ->
    Queue.push job q;
    Uksched.Sched.wake sched wtid

(* Scan the segment in place while nothing is stashed; once a frame
   straddles a segment boundary, fall back to the stash (one counted copy
   per stashed segment) until the pipeline realigns. *)
let on_segment stack flow c w p scan nb =
  if p.closed then Nb.recycle nb
  else begin
    (if p.len = 0 then begin
       let buf, off, len = Nb.view nb in
       let consumed = scan c buf off len in
       if consumed < len then begin
         Nb.pull nb consumed;
         append p (Nb.copy_out nb)
       end;
       Nb.recycle nb
     end
     else begin
       append p (Nb.copy_out nb);
       Nb.recycle nb;
       p.closed <- not (drain p scan c)
     end);
    Nbio.flush w;
    if p.closed then begin
      (* Overflow: close after the replies already due; the flag mutes
         segments still queued for the worker hop. *)
      p.len <- 0;
      Tcp.set_rx_sink flow None;
      S.Tcp_socket.close stack flow
    end
  end

let serve_fast ~clock ~sched ~stack ~port ~name ~rtc scan =
  let l = S.Tcp_socket.listen stack ~port () in
  let dispatch = if rtc then fun job -> job () else worker_hop sched name in
  S.Tcp_socket.set_fast_accept l
    (Some
       (fun flow ->
         let w = Nbio.writer ~clock ~stack ~flow in
         let c = conn (Fast w) in
         let p = pending () in
         Tcp.set_rx_sink flow
           (Some (fun nb -> dispatch (fun () -> on_segment stack flow c w p scan nb)))))

(* --- load client ----------------------------------------------------------- *)

type result = {
  requests : int;
  elapsed_ns : float;
  rate_per_sec : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  errors : int;
}

type agg = {
  lat : Uksim.Stats.t; (* per-request latency, ns *)
  mutable a_requests : int;
  mutable a_errors : int;
  mutable t_end : float;
}

let new_agg () =
  { lat = Uksim.Stats.create (); a_requests = 0; a_errors = 0; t_end = 0.0 }

let result_of_agg agg ~t_start =
  let elapsed = agg.t_end -. t_start in
  {
    requests = agg.a_requests;
    elapsed_ns = elapsed;
    rate_per_sec =
      Uksim.Stats.throughput_per_sec ~events:agg.a_requests ~elapsed_ns:elapsed;
    mean_us = Uksim.Stats.mean agg.lat /. 1e3;
    p50_us = Uksim.Stats.percentile agg.lat 50.0 /. 1e3;
    p99_us = Uksim.Stats.percentile agg.lat 99.0 /. 1e3;
    errors = agg.a_errors;
  }

let client_cmd_cost = 120
let fast_client_cmd_cost = 40

let spawn_load ~fast ~clock ~sched ~stack ~server ~connections ~pipeline ~requests
    ~port_for ~agg ~name ~reply_len ~is_error line =
  let per_conn = max 1 (requests / connections) in
  agg.a_requests <- agg.a_requests + (per_conn * connections);
  (* Advance the reply-stream byte count over [buf[off, off+len)],
     counting the status byte of every fixed-size reply that [is_error]
     flags — boundaries are pure arithmetic, immune to segment splits. *)
  let count_replies recvd buf off len =
    for i = off to off + len - 1 do
      if !recvd mod reply_len = 0 && is_error (Bytes.get buf i) then
        agg.a_errors <- agg.a_errors + 1;
      incr recvd
    done
  in
  let socket_client flow line =
    let recvd = ref 0 in
    let sent = ref 0 in
    while !sent < per_conn do
      let batch = min pipeline (per_conn - !sent) in
      let buf = Buffer.create (batch * 24) in
      for k = 0 to batch - 1 do
        Uksim.Clock.advance clock client_cmd_cost;
        Buffer.add_string buf (line (!sent + k))
      done;
      let t0 = Uksim.Clock.ns clock in
      ignore (S.Tcp_socket.send ~block:true stack flow (Buffer.to_bytes buf));
      sent := !sent + batch;
      let target = !sent * reply_len in
      while !recvd < target do
        match S.Tcp_socket.recv ~block:true stack flow ~max:65536 with
        | None -> failwith (name ^ " load: server closed connection")
        | Some data ->
            let before = !recvd / reply_len in
            count_replies recvd data 0 (Bytes.length data);
            let now = Uksim.Clock.ns clock in
            for _ = before + 1 to !recvd / reply_len do
              Uksim.Clock.advance clock client_cmd_cost;
              Uksim.Stats.add agg.lat (now -. t0)
            done
      done
    done
  in
  let fast_client flow line =
    let me = Uksched.Sched.self () in
    let recvd = ref 0 in
    Tcp.set_rx_sink flow
      (Some
         (fun nb ->
           let buf, off, len = Nb.view nb in
           count_replies recvd buf off len;
           Nb.recycle nb;
           Uksched.Sched.wake sched me));
    let w = Nbio.writer ~clock ~stack ~flow in
    let sent = ref 0 in
    while !sent < per_conn do
      let batch = min pipeline (per_conn - !sent) in
      for k = 0 to batch - 1 do
        Uksim.Clock.advance clock fast_client_cmd_cost;
        Nbio.add w (line (!sent + k))
      done;
      let t0 = Uksim.Clock.ns clock in
      Nbio.flush w;
      sent := !sent + batch;
      let target = !sent * reply_len in
      (* Count-then-block is race-free under the shared cooperative
         per-core scheduler. *)
      while !recvd < target do
        Uksched.Sched.block ()
      done;
      let now = Uksim.Clock.ns clock in
      for _ = 1 to batch do
        Uksim.Clock.advance clock fast_client_cmd_cost;
        Uksim.Stats.add agg.lat (now -. t0)
      done
    done;
    Tcp.set_rx_sink flow None
  in
  let client_thread ci () =
    let line = line ci in
    let flow = S.Tcp_socket.connect stack ?lport:(port_for ci) ~dst:server () in
    if fast then fast_client flow line else socket_client flow line;
    S.Tcp_socket.close stack flow;
    agg.t_end <- Float.max agg.t_end (Uksim.Clock.ns clock)
  in
  for ci = 0 to connections - 1 do
    (* Pinned: the client charges its home core's clock and stack. *)
    ignore
      (Uksched.Sched.spawn sched ~name:(Printf.sprintf "%s-load-%d" name ci) ~pinned:true
         (client_thread ci))
  done

let run_load ~clock ~sched spawn =
  let agg = new_agg () in
  let t_start = Uksim.Clock.ns clock in
  spawn ~agg;
  Uksched.Sched.run sched;
  result_of_agg agg ~t_start

type queue = {
  q_clock : Uksim.Clock.t;
  q_engine : Uksim.Engine.t;
  rx_ring : Netbuf.t Queue.t;
  mutable conf : Netdev.queue_conf option;
  mutable irq_armed : bool;
}

type side = {
  latency : int;
  ring_size : int;
  queues : queue array;
  mutable st : Netdev.stats;
  mutable peer : side option;
}

let tx_cost = 40
let rx_cost = 35

(* Doorbell per tx_burst invocation (MMIO write waking the peer side) —
   the cost TX coalescing amortizes across a batch. *)
let kick_cost = 250

let deliver s q nb =
  match q.conf with
  | None ->
      s.st <- { s.st with rx_dropped = s.st.rx_dropped + 1 };
      Netbuf.recycle nb
  | Some conf ->
      if Queue.length q.rx_ring >= s.ring_size then begin
        s.st <- { s.st with rx_dropped = s.st.rx_dropped + 1 };
        Netbuf.recycle nb
      end
      else begin
        Queue.push nb q.rx_ring;
        match (conf.Netdev.mode, conf.Netdev.rx_handler) with
        | Netdev.Interrupt_driven, Some handler when q.irq_armed ->
            q.irq_armed <- false;
            s.st <- { s.st with rx_irqs = s.st.rx_irqs + 1 };
            Uksim.Clock.advance q.q_clock Uksim.Cost.interrupt_delivery;
            handler ()
        | (Netdev.Interrupt_driven | Netdev.Polling), _ -> ()
      end

let dev_of_side name s =
  let n_queues = Array.length s.queues in
  let check_qid qid =
    if qid < 0 || qid >= n_queues then invalid_arg (Printf.sprintf "%s: bad qid %d" name qid)
  in
  let catch_up q = Uksim.Engine.run ~until:(Uksim.Clock.cycles q.q_clock) q.q_engine in
  {
    Netdev.name;
    mtu = 1500;
    max_queues = n_queues;
    configure_queue =
      (fun ~qid conf ->
        check_qid qid;
        let q = s.queues.(qid) in
        q.conf <- Some conf;
        q.irq_armed <- conf.Netdev.mode = Netdev.Interrupt_driven);
    tx_burst =
      (fun ~qid pkts ->
        check_qid qid;
        let q = s.queues.(qid) in
        catch_up q;
        let peer = match s.peer with Some p -> p | None -> assert false in
        let peer_n = Array.length peer.queues in
        let n = Array.length pkts in
        let bytes = ref 0 in
        Array.iter
          (fun nb ->
            Uksim.Clock.advance q.q_clock tx_cost;
            bytes := !bytes + Netbuf.len nb;
            (* Each peer queue may live on its own core clock: deliver on
               that queue's engine, no earlier than its local present. The
               descriptor itself crosses — DMA handoff, no copy. *)
            let deliver_to tq nb =
              let pq = peer.queues.(tq) in
              let at =
                max (Uksim.Clock.cycles pq.q_clock) (Uksim.Clock.cycles q.q_clock + s.latency)
              in
              Uksim.Engine.at pq.q_engine at (fun () -> deliver peer pq nb)
            in
            match Rss.queue_of_netbuf nb ~n_queues:peer_n with
            | Some tq -> deliver_to tq nb
            | None when peer_n = 1 -> deliver_to 0 nb
            | None ->
                (* No 5-tuple (ARP, non-IP): mirror to every queue so each
                   per-queue stack can resolve/answer it — like NIC
                   broadcast replication across RSS contexts. The mirrors
                   share storage; nothing is copied. *)
                for tq = 0 to peer_n - 1 do
                  deliver_to tq (Netbuf.share nb)
                done;
                Netbuf.recycle nb)
          pkts;
        if n > 0 then begin
          Uksim.Clock.advance q.q_clock kick_cost;
          s.st <-
            { s.st with tx_pkts = s.st.tx_pkts + n; tx_bytes = s.st.tx_bytes + !bytes;
              tx_kicks = s.st.tx_kicks + 1 }
        end;
        n);
    tx_room =
      (fun ~qid ->
        check_qid qid;
        max_int);
    rx_burst =
      (fun ~qid ~max:max_pkts ->
        check_qid qid;
        let q = s.queues.(qid) in
        catch_up q;
        match q.conf with
        | None -> []
        | Some conf ->
            let rec take acc n =
              if n >= max_pkts then List.rev acc
              else
                match Queue.take_opt q.rx_ring with
                | None -> List.rev acc
                | Some nb -> (
                    Uksim.Clock.advance q.q_clock rx_cost;
                    let account () =
                      s.st <-
                        {
                          s.st with
                          rx_pkts = s.st.rx_pkts + 1;
                          rx_bytes = s.st.rx_bytes + Netbuf.len nb;
                        }
                    in
                    match conf.Netdev.rx_path with
                    | Netdev.Zero_copy ->
                        account ();
                        take (nb :: acc) (n + 1)
                    | Netdev.Copy_into rx_alloc -> (
                        match rx_alloc () with
                        | None ->
                            s.st <- { s.st with rx_dropped = s.st.rx_dropped + 1 };
                            Netbuf.recycle nb;
                            take acc (n + 1)
                        | Some dst ->
                            Uksim.Clock.advance q.q_clock (Uksim.Cost.memcpy (Netbuf.len nb));
                            Netbuf.copy_into nb dst;
                            account ();
                            Netbuf.recycle nb;
                            take (dst :: acc) (n + 1)))
            in
            let pkts = take [] 0 in
            if conf.Netdev.mode = Netdev.Interrupt_driven && Queue.is_empty q.rx_ring then
              q.irq_armed <- true;
            pkts);
    rx_pending =
      (fun ~qid ->
        check_qid qid;
        let q = s.queues.(qid) in
        catch_up q;
        Queue.length q.rx_ring);
    stats = (fun () -> s.st);
  }

let create_pair ~clock ~engine ?(latency_ns = 2000.0) ?(ring_size = 512) ?(n_queues = 1)
    ?queues_a ?queues_b () =
  if n_queues <= 0 then invalid_arg "Loopback.create_pair: n_queues must be positive";
  let mk_queue (q_clock, q_engine) =
    { q_clock; q_engine; rx_ring = Queue.create (); conf = None; irq_armed = false }
  in
  let mk_side = function
    | Some qs when Array.length qs > 0 ->
        {
          latency = Uksim.Clock.cycles_of_ns latency_ns;
          ring_size;
          queues = Array.map mk_queue qs;
          st = Netdev.zero_stats;
          peer = None;
        }
    | Some _ -> invalid_arg "Loopback.create_pair: empty queue array"
    | None ->
        {
          latency = Uksim.Clock.cycles_of_ns latency_ns;
          ring_size;
          queues = Array.init n_queues (fun _ -> mk_queue (clock, engine));
          st = Netdev.zero_stats;
          peer = None;
        }
  in
  let a = mk_side queues_a and b = mk_side queues_b in
  a.peer <- Some b;
  b.peer <- Some a;
  (dev_of_side "loopback-a" a, dev_of_side "loopback-b" b)

(** The uknetdev API (paper §3.1).

    Decouples drivers from the network stack / low-level application. The
    application fully operates the driver: it chooses the RX buffer
    policy per queue (zero-copy descriptor handoff, or the legacy copy
    into application-provided buffers), chooses polling or interrupt mode,
    and moves packets with burst send/receive calls that mirror the
    paper's

    {v
    uk_netdev_tx_burst(dev, queue_id, pkt, cnt)
    uk_netdev_rx_burst(dev, queue_id, pkt, cnt)
    v}

    Both burst directions speak {!Netbuf.t} with ownership handoff:
    [tx_burst] consumes accepted buffers; [rx_burst] transfers each
    returned buffer to the caller, who must eventually {!Netbuf.recycle}
    it. *)

type mode = Polling | Interrupt_driven

type rx_path =
  | Zero_copy
      (** hand ring descriptors to the consumer as-is — the fast path *)
  | Copy_into of (unit -> Netbuf.t option)
      (** legacy path: copy each frame into a consumer-supplied buffer
          (the allocation callback of the bytes era). Each copy charges
          {!Uksim.Cost.memcpy} and the ["uknetdev.copies"] source. *)

type queue_conf = {
  rx_path : rx_path;
  mode : mode;
  rx_handler : (unit -> unit) option;
      (** interrupt callback: invoked on packet arrival / tx room when the
          queue's interrupt line is armed *)
}

type stats = {
  tx_pkts : int;
  tx_bytes : int;
  tx_kicks : int;
      (** doorbells/backend notifications (VM exits for vhost-net) *)
  rx_pkts : int;
  rx_bytes : int;
  rx_irqs : int;
  rx_dropped : int;  (** ring overflow or rx buffer exhaustion *)
}

type t = {
  name : string;
  mtu : int;
  max_queues : int;
  configure_queue : qid:int -> queue_conf -> unit;
  tx_burst : qid:int -> Netbuf.t array -> int;
      (** Enqueue as many as possible; returns the count accepted (the
          paper's in/out [cnt]). Accepted buffers are consumed; the caller
          keeps ownership of rejected ones. *)
  tx_room : qid:int -> int;
  rx_burst : qid:int -> max:int -> Netbuf.t list;
      (** Up to [max] packets, ownership transferred to the caller. In
          interrupt mode, draining the ring re-arms the queue's interrupt
          line (paper §3.1). *)

  rx_pending : qid:int -> int;
  stats : unit -> stats;
}

val zero_stats : stats

val pp_stats : Format.formatter -> stats -> unit

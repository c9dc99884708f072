type mode = Polling | Interrupt_driven

type rx_path =
  | Zero_copy
  | Copy_into of (unit -> Netbuf.t option)

type queue_conf = {
  rx_path : rx_path;
  mode : mode;
  rx_handler : (unit -> unit) option;
}

type stats = {
  tx_pkts : int;
  tx_bytes : int;
  tx_kicks : int;
  rx_pkts : int;
  rx_bytes : int;
  rx_irqs : int;
  rx_dropped : int;
}

type t = {
  name : string;
  mtu : int;
  max_queues : int;
  configure_queue : qid:int -> queue_conf -> unit;
  tx_burst : qid:int -> Netbuf.t array -> int;
  tx_room : qid:int -> int;
  rx_burst : qid:int -> max:int -> Netbuf.t list;
  rx_pending : qid:int -> int;
  stats : unit -> stats;
}

let zero_stats =
  { tx_pkts = 0; tx_bytes = 0; tx_kicks = 0; rx_pkts = 0; rx_bytes = 0;
    rx_irqs = 0; rx_dropped = 0 }

let pp_stats ppf s =
  Fmt.pf ppf "tx %d pkts/%d B (%d kicks), rx %d pkts/%d B (%d irqs, %d dropped)" s.tx_pkts
    s.tx_bytes s.tx_kicks s.rx_pkts s.rx_bytes s.rx_irqs s.rx_dropped

(** redis-benchmark stand-in (paper Figs 12, 18: 30 connections, 100k
    requests, pipelining level 16).

    Opens [connections] TCP flows from a client stack, issues [requests]
    total commands split across them in pipelined batches, and reports the
    sustained rate in virtual time. *)

type workload = Get | Set
(** GET hits pre-populated keys; SET writes fresh values (exercising the
    server allocator differently — Fig 18's request-type axis). *)

type result = {
  requests : int;
  elapsed_ns : float;
  rate_per_sec : float;
  errors : int;
}

type agg
(** Shared aggregator for SMP runs — see {!Wrk.agg}. *)

val new_agg : unit -> agg

val spawn :
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  server:Uknetstack.Addr.Ipv4.t * int ->
  ?connections:int ->
  ?pipeline:int ->
  ?requests:int ->
  ?port_for:(int -> int option) ->
  agg:agg ->
  workload ->
  unit
(** Spawn the client threads (pinned) without driving the scheduler;
    [port_for ci] forces connection [ci]'s source port for RSS steering. *)

val spawn_fast :
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  server:Uknetstack.Addr.Ipv4.t * int ->
  ?connections:int ->
  ?pipeline:int ->
  ?requests:int ->
  ?port_for:(int -> int option) ->
  agg:agg ->
  workload ->
  unit
(** Zero-copy pipelined client for {!Resp_store.create_fast} servers:
    replies are counted by {!Resp.scan_replies} running in place over
    ring netbufs ({!Uknetstack.Tcp.set_rx_sink}) and
    commands go out through an {!Nbio} writer — no counted payload copies
    on either direction. *)

val result_of_agg : agg -> t_start:float -> result

val run :
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  server:Uknetstack.Addr.Ipv4.t * int ->
  ?connections:int ->
  ?pipeline:int ->
  ?requests:int ->
  workload ->
  result
(** Defaults mirror the paper: 30 connections, pipeline 16, 100k
    requests. SET values are 3 bytes. Must be called outside any scheduler thread;
    drives [sched] internally until the load completes. *)

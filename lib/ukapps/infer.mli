(** Batched ML inference serving — the repo's first compute-dominated
    request shape (ROADMAP: production workloads beyond httpd/RESP).

    The server half of a TorchServe/Triton-style model server, specialized
    unikernel-wise:

    - {b Weights} are a content-addressed file (name = digest) published
      into a {!Ukvfs.Blockfs} store on a {!Ukblock.Blockdev}. At boot,
      {!load} resolves the file through vfscore (mount + stat), then
      streams it with {!Ukvfs.Blockfs.stream}: a deep window of chunk
      reads overlaps host latency and DMA, pages are installed into the
      model arena for page-table-write cycles only (no counted guest
      copy), and the per-page digest samples verify the content address
      on the fly. The full load time is charged to the virtual clock and
      exported on the sticky ["ukapps.infer"] {!Uktrace} source — it is
      the dominant term of a large-model cold boot.
    - {b Requests} ([INF <id> <width>\n]) cost an analytic cycle charge:
      every batch pays one weight-pass sweep proportional to the model
      size, plus a per-item term proportional to the item's width and the
      model size. Batching therefore amortizes the dominant term — the
      latency-vs-throughput knob the admission queue exposes.
    - {b Admission queue}: requests coalesce until [max_batch] are
      waiting (immediate flush) or [max_wait_ns] elapses on the engine
      timer (partial flush). Replies ([OK <id> <digest>\n], fixed
      {!reply_len} bytes) carry a per-request output digest derived from
      (weights digest, id, width), so fast/legacy servers can be checked
      for state-hash equivalence.

    Both server flavors of the PR-8 ablation exist: {!create} (legacy
    socket accept loop) and {!create_fast} (netbuf rx-sink
    run-to-completion port). *)

(** {1 Weights} *)

type model = {
  name : string;  (** content address (16 hex digits of [digest]) *)
  digest : int;
  size_mb : int;
  bytes : int;
  load_ns : float;  (** virtual time the boot-time weight stream took *)
}

val publish :
  clock:Uksim.Clock.t ->
  dev:Ukblock.Blockdev.t ->
  ?seed:int ->
  size_mb:int ->
  unit ->
  Ukvfs.Blockfs.t * string
(** Host-side population: format [dev] as a Blockfs store and write a
    deterministic seeded weight file of [size_mb] MiB. Returns the store
    and the file's content-address name. Same [seed] and [size_mb] always
    produce the same name. *)

val load :
  clock:Uksim.Clock.t ->
  vfs:Ukvfs.Vfs.t ->
  store:Ukvfs.Blockfs.t ->
  path:string ->
  unit ->
  (model, string) result
(** Boot-time weight load. [path] must resolve through [vfs] to the
    object (the store mounted at the path's directory); the bulk bytes
    then go through the store's streaming read path. Fails when the
    streamed digest does not match the manifest or the content-address
    name (tampered or rotten weights). *)

(** {1 Server} *)

type t

val create_bare :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  ?max_batch:int ->
  ?max_wait_ns:float ->
  ?core:int ->
  model:model ->
  unit ->
  t
(** The admission queue + batch executor without any networking — the
    unit-testable core both servers wrap. Defaults: [max_batch] 8,
    [max_wait_ns] 20 µs. *)

val create :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  alloc:Ukalloc.Alloc.t ->
  ?port:int ->
  ?core:int ->
  ?max_batch:int ->
  ?max_wait_ns:float ->
  model:model ->
  unit ->
  t
(** Legacy socket server (accept thread + per-connection threads), port
    defaults to 8000. Batch completions run in engine context, so replies
    go out through non-blocking sends. *)

val create_fast :
  clock:Uksim.Clock.t ->
  engine:Uksim.Engine.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  alloc:Ukalloc.Alloc.t ->
  ?port:int ->
  ?core:int ->
  ?max_batch:int ->
  ?max_wait_ns:float ->
  model:model ->
  unit ->
  t
(** Zero-copy port over {!Lineserv.serve_fast}: requests are scanned in
    place in ring netbufs ({!Uknetstack.Tcp.set_rx_sink}), replies leave
    through {!Nbio} writers, one flush per reply. *)

val submit : t -> rid:int -> width:int -> reply:(string -> unit) -> unit
(** Enqueue one request directly (bypassing the network) — the unit-test
    and embedding entry point. [reply] fires when the batch executes. *)

val pump : t -> unit
(** Flush a pending partial batch immediately (drains the admission
    queue without waiting for the engine timer). *)

type stats = {
  requests : int;
  batches : int;
  errors : int;
  max_occupancy : int;  (** largest batch executed *)
  bytes_out : int;
}

val stats : t -> stats
val state_hash : t -> int
(** Order-independent fold over every (id, width, output digest) served —
    equal across legacy/fast servers given the same request set. *)

val the_model : t -> model

val request : rid:int -> width:int -> string
(** Wire format of one request line. *)

val reply_len : int
(** Every reply is exactly this many bytes (the fast clients count reply
    boundaries by arithmetic, immune to netbuf splits). *)

(** {1 Load generation} *)

type result = Lineserv.result = {
  requests : int;
  elapsed_ns : float;
  rate_per_sec : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  errors : int;
}

val spawn_load :
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  server:Uknetstack.Addr.Ipv4.t * int ->
  ?connections:int ->
  ?pipeline:int ->
  ?requests:int ->
  ?width:int ->
  ?port_for:(int -> int option) ->
  agg:Lineserv.agg ->
  unit ->
  unit
(** Legacy client: [connections] (default 16) flows each issuing
    [pipeline] (default 1) requests at a time. Concurrency across
    connections is what gives the server's admission queue something to
    coalesce. *)

val spawn_load_fast :
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  server:Uknetstack.Addr.Ipv4.t * int ->
  ?connections:int ->
  ?pipeline:int ->
  ?requests:int ->
  ?width:int ->
  ?port_for:(int -> int option) ->
  agg:Lineserv.agg ->
  unit ->
  unit
(** Zero-copy client: requests leave through an {!Nbio} writer, replies
    are counted in place by fixed-size arithmetic over the rx sink. *)

val run_load :
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  server:Uknetstack.Addr.Ipv4.t * int ->
  ?connections:int ->
  ?pipeline:int ->
  ?requests:int ->
  ?width:int ->
  unit ->
  result
(** Drives [sched] to completion; call from outside any scheduler
    thread. Defaults: 16 connections, pipeline 1, 4096 requests. *)

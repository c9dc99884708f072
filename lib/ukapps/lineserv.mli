(** The one request/reply service layer under {!Httpd}, {!Resp_store},
    {!Store} and {!Infer}: each app supplies a frame scanner and its
    executor; this module owns the socket and netbuf server datapaths
    (accept, receive loop, straddle stash, worker hop, TX writer) and the
    pipelined fixed-size-reply load client. Both datapaths bound the
    unconsumed bytes of a connection by {!max_pending}. *)

(** {1 Serving} *)

type conn
(** The reply side of one connection, on either datapath. *)

val reply : conn -> string -> unit
(** Queue a reply that leaves with the rest of this delivery's replies:
    one blocking send per received chunk (socket), or the connection's
    {!Nbio} writer flushed after the segment (netbuf). *)

val send : conn -> string -> unit
(** Send a reply now, without blocking: a non-blocking socket send, or
    the writer filled and flushed on the spot. Safe outside the delivery
    that produced it (e.g. from an engine callback). *)

val reject : conn -> string -> unit
(** Answer a protocol error as {!reply} does, once per run of bad input:
    while nothing has been answered since the last rejection, another
    one is silent. *)

type scan = conn -> Bytes.t -> int -> int -> int
(** [scan c buf off len] serves every complete frame in
    [buf[off, off + len)] and returns the bytes consumed; the rest is
    kept and offered again, extended, with the next delivery. A scanner
    may read [buf] only inside that window. *)

val lines : (conn -> string -> unit) -> scan
(** Newline framing: each complete line, without its ['\n'], goes to
    the handler. *)

val max_pending : int
(** 64 KiB: the most unconsumed bytes a connection may hold between
    deliveries, above any frame a client of this repository sends. *)

val serve :
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  port:int ->
  name:string ->
  scan ->
  unit
(** Socket datapath: a pinned accept thread [name ^ "-accept"] and one
    pinned [name ^ "-conn"] thread per connection append received bytes
    to the unconsumed tail and [scan] it; EOF or a tail over
    {!max_pending} closes the connection. *)

val serve_fast :
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  port:int ->
  name:string ->
  rtc:bool ->
  scan ->
  unit
(** Netbuf datapath: a per-connection rx sink [scan]s each segment in
    place in the driver's ring buffer. A frame that straddles segments
    falls back to the stash (one counted copy per stashed segment) until
    the pipeline realigns; a stash over {!max_pending} closes the
    connection. Replies go to a per-connection {!Nbio} writer, flushed
    after the RX netbuf is recycled. [rtc:true] runs [scan] inside packet
    processing on the receiving core; [rtc:false] hops every segment
    through one pinned worker thread, [name ^ "-fast-worker"]. *)

(** {1 Fixed-size-reply load client} *)

type result = {
  requests : int;
  elapsed_ns : float;
  rate_per_sec : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  errors : int;
}

type agg
(** Shared aggregator for SMP runs — see {!Wrk.agg}. *)

val new_agg : unit -> agg
val result_of_agg : agg -> t_start:float -> result

val spawn_load :
  fast:bool ->
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  server:Uknetstack.Addr.Ipv4.t * int ->
  connections:int ->
  pipeline:int ->
  requests:int ->
  port_for:(int -> int option) ->
  agg:agg ->
  name:string ->
  reply_len:int ->
  is_error:(char -> bool) ->
  (int -> int -> string) ->
  unit
(** [connections] pinned threads named [name ^ "-load-<ci>"], each issuing
    [requests / connections] request lines [pipeline] at a time.
    [line ci] is connection [ci]'s generator; it is applied to the
    request's index on that connection. Every reply is [reply_len] bytes,
    so boundaries are byte arithmetic; a reply whose first byte
    [is_error] counts as an error. [fast:false] sends and receives through
    the socket API; [fast:true] sends through an {!Nbio} writer and counts
    replies in place in an rx sink. *)

val run_load :
  clock:Uksim.Clock.t -> sched:Uksched.Sched.t -> (agg:agg -> unit) -> result
(** Spawn a load with the given function, drive [sched] to completion and
    return the result; call from outside any scheduler thread. *)

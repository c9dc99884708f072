(** An nginx-like static HTTP/1.1 server (Figs 13, 14, 15, 22).

    Single worker, keep-alive connections, per-request buffers from the
    configured ukalloc backend (so Fig 15's allocator choice matters).
    Content can come from memory, through vfscore, or straight from SHFS
    (the Fig 22 specialization axis when combined with {!Webcache}). *)

type content =
  | In_memory of (string * string) list
      (** path -> body; each page's 200 reply is rendered once when the
          server is created, and the first binding of a path wins *)
  | Via_vfs of Ukvfs.Vfs.t  (** open/read/close through vfscore *)
  | Via_shfs of Ukvfs.Shfs.t  (** direct hash-filesystem lookups *)

type t

type stats = {
  requests : int;
  errors_404 : int;
  errors_503 : int;
      (** requests shed in degraded mode (the per-request pool allocation
          failed — e.g. under a {!Ukfault.Faultalloc} OOM sweep) *)
  bytes_sent : int;
}

val default_page : string
(** The paper's 612-byte static page. *)

val create :
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  alloc:Ukalloc.Alloc.t ->
  ?port:int ->
  ?core:int ->
  content ->
  t
(** Serves through {!Lineserv.serve} (threads pinned to [sched]'s core);
    port defaults to 80. Multi-worker SMP mode: create one instance per
    core, each on its own per-core stack/clock/alloc view — RSS spreads
    connections across them like SO_REUSEPORT sharding. [core] (default 0)
    labels this worker's tracepoints; stats also register as an
    ["ukapps.httpd"] {!Uktrace.Registry} source. *)

val create_fast :
  clock:Uksim.Clock.t ->
  sched:Uksched.Sched.t ->
  stack:Uknetstack.Stack.t ->
  alloc:Ukalloc.Alloc.t ->
  ?port:int ->
  ?core:int ->
  ?rtc:bool ->
  content ->
  t
(** The zero-copy run-to-completion build (Fig 14's netbuf port): requests
    are parsed in place in the driver's ring buffer from a per-connection
    {!Uknetstack.Tcp.set_rx_sink}, and replies are written straight into
    pool netbufs ({!Nbio}) handed down TX by ownership — the hot path
    makes no counted payload copies. Handlers run inside packet processing
    on the receiving core; [rtc:false] ablates that by hopping each
    segment through a pinned worker thread. Straddling requests fall back
    to {!Lineserv.serve_fast}'s counted-copy stash. *)

val stats : t -> stats

val sum_stats : t list -> stats
(** Aggregate over SMP workers. *)

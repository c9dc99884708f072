(* perfbench: the repository benchmark.

   One process runs one workload for one seed:

     main.exe --workload web|kv|drill --seed N --seconds S --trace 0|1

   The benchmark sits outside the program: it builds each scenario
   through public entry points (Ukapps.Cluster, Ukapps.Store,
   Ukstore.Store, Ukblock.Virtio_blk, Ukcluster.Cluster,
   Ukfault.Faulthost, Uksmp.Smp) and reads counters only through
   Uktrace.Registry snapshot diffs and the reports those entry points
   return. Every span below is recorded by this file around its own
   calls; nothing under lib/ is instrumented for it.

   An iteration is set-up (host CPU -> setup_s) followed by the measured
   phase (host CPU -> host_s, simulated service -> virtual-time metrics).
   With --trace 0 iterations repeat until --seconds of wall time have
   passed (at least two), every iteration must reproduce the first one's
   virtual-time metrics and replay hashes exactly, and host figures are
   medians over iterations. With --trace 1 the process runs two untraced
   iterations, one traced iteration (spans, registry diffs, step
   observers) whose virtual-time metrics must equal the untraced ones,
   and one iteration of a held-out seed; it prints the per-layer
   metrics.

   The last stdout line is the result object
   {"correct", "attempted", "failed", "metrics"}; the line before it is a
   report with every workload-specific metric, its unit and sample
   count, the checks and the replay hashes. *)

module Cl = Ukapps.Cluster
module Store = Ukapps.Store
module St = Ukstore.Store
module UC = Ukcluster.Cluster
module Fh = Ukfault.Faulthost
module Smp = Uksmp.Smp
module Reg = Uktrace.Registry

(* --- host measurement ------------------------------------------------------- *)

(* getrusage user+sys, microsecond resolution *)
let cpu () = Sys.time ()

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- host CPU at reference speed ------------------------------------------------ *)

(* Shared machines switch a core between speed states every fraction of
   a second (a busy sibling thread, frequency steps), which moves raw
   CPU seconds by up to 1.6x for the same work. So the measured phase is
   cut into segments of about [segment_s] CPU seconds, a calibration
   loop is timed at every cut, and each segment's CPU time is scaled by
   the speed the loop saw at its two ends. The result is CPU seconds on a
   reference core that runs the loop at 1e9 steps per second; the raw
   CPU seconds are reported beside it. Loop time is excluded from
   both. *)

let calib_steps = 4_000_000
let segment_s = 0.2

(* Speed relative to the reference core (1.0 = 1e9 loop steps/s). *)
let speed () =
  let c0 = cpu () in
  let a = ref 0 in
  for i = 1 to calib_steps do
    a := !a lxor (i * 7)
  done;
  ignore (Sys.opaque_identity !a);
  float_of_int calib_steps /. Float.max 1e-6 (cpu () -. c0) /. 1e9

type meter = {
  mutable ref_s : float;
  mutable raw_s : float;
  mutable since : float;  (** CPU clock at the last cut *)
  mutable factor : float;  (** speed at the last cut *)
  mutable ticks : int;
}

let meter_start () =
  let factor = speed () in
  { ref_s = 0.0; raw_s = 0.0; since = cpu (); factor; ticks = 0 }

let meter_cut m =
  let seg = cpu () -. m.since in
  let f = speed () in
  m.raw_s <- m.raw_s +. seg;
  m.ref_s <- m.ref_s +. (seg *. (m.factor +. f) /. 2.0);
  m.factor <- f;
  m.since <- cpu ()

(* The meter of the running measured phase; simulator observers tick it
   so long runs are cut into segments. *)
let active : meter option ref = ref None

let tick () =
  match !active with
  | Some m ->
      m.ticks <- m.ticks + 1;
      if m.ticks land 255 = 0 && cpu () -. m.since >= segment_s then meter_cut m
  | None -> ()

(* --- spans ------------------------------------------------------------------ *)

type span = {
  sname : string;
  parent : string option;
  host_ns : float;
  virt_ns : float;
  minor_words : float;
  major_collections : int;
  heap_top_mb : float;
  counts : Reg.snapshot;  (** registry diff across the span *)
}

let tracing = ref false
let spans : span list ref = ref []
let stack : string list ref = ref []

let heap_top_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* [span name ~vnow f] runs [f]; when tracing it records raw host CPU
   (including any calibration loop the meter ran inside it), virtual
   time (via [vnow]), GC work and the registry diff. Untraced it is a
   plain call. *)
let span name ~vnow f =
  if not !tracing then f ()
  else begin
    let parent = match !stack with p :: _ -> Some p | [] -> None in
    stack := name :: !stack;
    let r0 = Reg.snapshot () in
    let g0 = Gc.quick_stat () in
    let c0 = cpu () and v0 = vnow () in
    let x = f () in
    let c1 = cpu () and v1 = vnow () in
    let g1 = Gc.quick_stat () in
    let counts = Reg.diff ~before:r0 ~after:(Reg.snapshot ()) in
    stack := List.tl !stack;
    spans :=
      {
        sname = name;
        parent;
        host_ns = (c1 -. c0) *. 1e9;
        virt_ns = v1 -. v0;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        heap_top_mb = heap_top_mb ();
        counts;
      }
      :: !spans;
    x
  end

let no_clock () = 0.0
let find_span name = List.find_opt (fun s -> s.sname = name) !spans

(* Sum one counter over every registry source whose uid starts with
   [src] (per-instance sources get "#n" suffixes). *)
let count_in (snap : Reg.snapshot) ~src sample =
  List.fold_left
    (fun acc (e : Reg.entry_snap) ->
      if String.starts_with ~prefix:src e.Reg.suid then
        match List.assoc_opt sample e.Reg.samples with
        | Some (Uktrace.Metric.Count n) -> acc + n
        | Some (Uktrace.Metric.Level x) -> acc + int_of_float x
        | _ -> acc
      else acc)
    0 snap

let span_count name ~src sample =
  match find_span name with None -> 0 | Some s -> count_in s.counts ~src sample

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- iteration results -------------------------------------------------------- *)

type metric = { mname : string; value : float; unit_ : string; samples : int option }

let m ?samples mname unit_ value = { mname; value; unit_; samples }

(* A latency percentile [q], emitted only when at least ten of the
   [samples] lie beyond it. *)
let pct ~samples q mname value =
  if float_of_int samples *. (1.0 -. (q /. 100.0)) >= 10.0 then [ m ~samples mname "us" value ]
  else []

type iter = {
  setup_s : float list;  (** one sample per set-up *)
  host_s : float;  (** reference-speed CPU seconds of the measured phase *)
  host_cpu_s : float;  (** raw CPU seconds of the measured phase *)
  minor_mwords : float;
  throughput_rps : float;  (** completed / virtual elapsed *)
  mean_us : float;  (** virtual *)
  report : metric list;  (** every virtual-time metric of the workload *)
  hashes : (string * string) list;  (** replay hashes *)
  attempted : int;
  failed : int;  (** errors + shed + expired + lost *)
  checks : (string * bool) list;
  layers : (string * float) list;  (** per-layer metrics, traced iterations only *)
}

(* A workload splits into set-up and a measured phase; [measure] gets
   the set-up's value and returns the measured-phase outcome with the
   host figures filled in by [run_iter]. Set-up runs [setup_reps] times
   per iteration (the last one is measured), so set-up time is a median
   and one-time lazy initialisation stays out of it. *)
type 'a workload = {
  setup_reps : int;
  setup : seed:int -> 'a;
  measure : seed:int -> 'a -> iter;
}

let run_iter (w : 'a workload) ~seed =
  let rec setups k acc =
    Reg.clear ();
    (* start from a collected heap, outside the timings *)
    Gc.full_major ();
    let f0 = speed () in
    let c0 = cpu () in
    let st = w.setup ~seed in
    let raw = cpu () -. c0 in
    let acc = (raw *. (f0 +. speed ()) /. 2.0) :: acc in
    if k <= 1 then (st, acc) else setups (k - 1) acc
  in
  let st, setup_s = setups w.setup_reps [] in
  let mw0 = Gc.minor_words () in
  let meter = meter_start () in
  active := Some meter;
  let r = w.measure ~seed st in
  meter_cut meter;
  active := None;
  let minor_mwords = (Gc.minor_words () -. mw0) /. 1e6 in
  { r with setup_s; host_s = meter.ref_s; host_cpu_s = meter.raw_s; minor_mwords }

let blank =
  {
    setup_s = [];
    host_s = 0.0;
    host_cpu_s = 0.0;
    minor_mwords = 0.0;
    throughput_rps = 0.0;
    mean_us = 0.0;
    report = [];
    hashes = [];
    attempted = 0;
    failed = 0;
    checks = [];
    layers = [];
  }

(* Seeded inputs: the program only ever sees what these generate. *)
let rng seed salt = Random.State.make [| seed; salt |]

(* The step observer shared by web and kv: ticks the host meter and,
   when tracing, counts steps and server-core cycles. *)
type smp_obs = { mutable steps : int; mutable server_cycles : int }

let observe_smp smp ~n_servers =
  let o = { steps = 0; server_cycles = 0 } in
  Smp.set_step_observer smp
    (Some
       (if !tracing then (fun ~core ~cycles ->
          tick ();
          o.steps <- o.steps + 1;
          if core < n_servers then o.server_cycles <- o.server_cycles + cycles)
        else fun ~core:_ ~cycles:_ -> tick ()));
  o

let smp_steals_ipis smp =
  let steals = ref 0 and ipis = ref 0 in
  for core = 0 to Smp.n_cores smp - 1 do
    let s = Smp.stats smp ~core in
    steals := !steals + s.Smp.steals;
    ipis := !ipis + s.Smp.ipis
  done;
  (!steals, !ipis)

(* Per-layer metrics every workload reports, with units; layers a
   workload leaves idle read 0. *)
let layer_units =
  [
    ("uksim.steps", "count");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("gc.heap_top_mb", "MB");
    ("uksmp.server_cycles_per_req", "cycles/req");
    ("uksmp.steals", "count");
    ("uksmp.ipis", "count");
    ("uknetdev.copies_per_req", "1/req");
    ("uknetdev.copied_bytes_per_req", "B/req");
    ("uknetstack.rx_tcp_per_req", "1/req");
    ("uknetstack.tx_pkts_per_req", "1/req");
    ("uknetstack.rx_drop", "count");
    ("uknetstack.tcp_retransmits", "count");
    ("ukalloc.allocs_per_req", "1/req");
    ("ukalloc.fast_hit_ratio", "ratio");
    ("ukalloc.refills", "count");
    ("uklock.contended", "count");
    ("uklock.wait_cycles", "cycles");
    ("ukapps.httpd_requests", "count");
    ("ukapps.httpd_errors_503", "count");
    ("ukapps.bytes_per_req", "B/req");
    ("ukapps.store_commits", "count");
    ("ukstore.commits", "count");
    ("ukstore.journal_records_per_commit", "1/commit");
    ("ukstore.journal_bytes_per_commit", "B/commit");
    ("ukstore.fsync_barriers_per_commit", "1/commit");
    ("ukstore.checkpoints", "count");
    ("ukstore.cache_hit_ratio", "ratio");
    ("ukstore.replayed_records", "count");
    ("ukstore.commit_us", "us");
    ("ukstore.checkpoint_us", "us");
    ("ukstore.open_us", "us");
    ("ukblock.writes_per_commit", "1/commit");
    ("ukblock.sectors_written_per_commit", "1/commit");
    ("ukfleet.completed", "count");
    ("ukfleet.shed", "count");
    ("ukfleet.redispatched", "count");
    ("ukfleet.clones", "count");
    ("ukfleet.cold_boots", "count");
    ("ukcluster.retries", "count");
    ("ukcluster.hedges", "count");
    ("ukcluster.hedge_win_ratio", "ratio");
    ("ukcluster.cancelled", "count");
    ("ukcluster.expired", "count");
    ("ukcluster.lost_replies", "count");
    ("ukcluster.suspects", "count");
    ("ukcluster.deads", "count");
    ("ukcluster.net_transfers_per_req", "1/req");
    ("ukcluster.migrations", "count");
    ("ukcluster.migration_aborts", "count");
    ("ukcluster.last_pause_us", "us");
    ("ukboot.boots", "count");
    ("ukboot.guest_boot_us", "us");
    ("bench.trace_overhead_s", "s");
  ]

let layer_names = List.map fst layer_units

(* Registry-derived layer metrics summed over the [measured] spans
   (ukboot over the [setup] span); the workload adds what only its own
   reports know. *)
let registry_layers ~measured ~setup ~reqs =
  let sum src sample =
    List.fold_left (fun acc n -> acc + span_count n ~src sample) 0 measured
  in
  let gc f merge =
    List.fold_left
      (fun acc n -> match find_span n with Some s -> merge acc (f s) | None -> acc)
      0.0 measured
  in
  let per_req x = ratio x reqs in
  let commits = sum "ukstore.store" "commits" in
  let per_commit x = ratio x commits in
  let fast_hits = sum "ukalloc.percore" "fast_hits" in
  [
    ("gc.minor_mwords", gc (fun s -> s.minor_words /. 1e6) ( +. ));
    ("gc.major_collections", gc (fun s -> float_of_int s.major_collections) ( +. ));
    ("gc.heap_top_mb", gc (fun s -> s.heap_top_mb) Float.max);
    ("uknetdev.copies_per_req",
      per_req (sum "uknetdev.copies" "copy_out" + sum "uknetdev.copies" "copy_in"
               + sum "uknetdev.copies" "copy"));
    ("uknetdev.copied_bytes_per_req", per_req (sum "uknetdev.copies" "bytes"));
    ("uknetstack.rx_tcp_per_req", per_req (sum "uknetstack.stack" "rx_tcp"));
    ("uknetstack.tx_pkts_per_req", per_req (sum "uknetstack.stack" "tx_pkts"));
    ("uknetstack.rx_drop", float_of_int (sum "uknetstack.stack" "rx_drop"));
    ("uknetstack.tcp_retransmits", float_of_int (sum "uknetstack.stack" "tcp_retransmits"));
    ("ukalloc.allocs_per_req", per_req (sum "ukalloc.percore" "allocs"));
    ("ukalloc.fast_hit_ratio", ratio fast_hits (sum "ukalloc.percore" "allocs"));
    ("ukalloc.refills", float_of_int (sum "ukalloc.percore" "refills"));
    ("uklock.contended", float_of_int (sum "uklock." "contended"));
    ("uklock.wait_cycles", float_of_int (sum "uklock." "wait_cycles"));
    ("ukapps.httpd_requests", float_of_int (sum "ukapps.httpd" "requests"));
    ("ukapps.httpd_errors_503", float_of_int (sum "ukapps.httpd" "errors_503"));
    ("ukapps.bytes_per_req", per_req (sum "ukapps.httpd" "bytes_sent"));
    ("ukstore.commits", float_of_int commits);
    ("ukstore.journal_records_per_commit", per_commit (sum "ukstore.store" "journal_records"));
    ("ukstore.journal_bytes_per_commit", per_commit (sum "ukstore.store" "journal_bytes"));
    ("ukstore.fsync_barriers_per_commit", per_commit (sum "ukstore.store" "fsync_barriers"));
    ("ukstore.checkpoints", float_of_int (sum "ukstore.store" "checkpoints"));
    ("ukstore.cache_hit_ratio",
      (let h = sum "ukstore.store" "cache_hits" in
       ratio h (h + sum "ukstore.store" "cache_misses")));
    ("ukstore.replayed_records", float_of_int (sum "ukstore.store" "replayed_records"));
    ("ukblock.writes_per_commit", per_commit (sum "ukblock." "writes"));
    ("ukblock.sectors_written_per_commit", per_commit (sum "ukblock." "sectors_written"));
    ("ukfleet.completed", float_of_int (sum "ukfleet.fleet" "completed"));
    ("ukfleet.shed", float_of_int (sum "ukfleet.fleet" "shed"));
    ("ukfleet.redispatched", float_of_int (sum "ukfleet.fleet" "redispatched"));
    ("ukfleet.clones", float_of_int (sum "ukfleet.fleet" "clones"));
    ("ukfleet.cold_boots", float_of_int (sum "ukfleet.fleet" "cold_boots"));
    ("ukcluster.net_transfers_per_req", per_req (sum "ukcluster.net" "transfers"));
    ("ukboot.boots", float_of_int (span_count setup ~src:"ukboot.boot" "boots"));
    ("ukboot.guest_boot_us",
      float_of_int (span_count setup ~src:"ukboot.boot" "guest_boot_ns") /. 1e3);
  ]

(* Complete [extra] with the registry-derived metrics and zeros for idle
   layers, in [layer_names] order. *)
let layers_of ~extra ~registry =
  List.map
    (fun n ->
      match List.assoc_opt n extra with
      | Some v -> (n, v)
      | None -> (n, Option.value (List.assoc_opt n registry) ~default:0.0))
    layer_names

(* --- web: httpd fast path, the paper's Fig 13 nginx + wrk ----------------------- *)

type scale = Full | Tiny

let scale = ref Full

(* [--plant lost] (self-test only) drops one response from what the web
   client observed, to show the output checks fail the run. *)
let plant_lost = ref false

let web_cores = 4
let web_conns = 8
let web_pipeline = 16
let web_requests () = match !scale with Full -> 25_000 | Tiny -> 400

(* The static page: seeded HTML around the paper's 612-byte page. *)
let web_page seed =
  let r = rng seed 0x3eb in
  let len = 612 + Random.State.int r 33 - 16 in
  let head = "<!DOCTYPE html><html><head><title>perfbench</title></head><body><p>" in
  let tail = "</p></body></html>\n" in
  let fill = String.init (len - String.length head - String.length tail) (fun _ ->
      Char.chr (Char.code 'a' + Random.State.int r 26))
  in
  head ^ fill ^ tail

(* What a correct reply to GET /index.html looks like on the wire. *)
let http_reply_len body =
  String.length
    (Printf.sprintf
       "HTTP/1.1 200 OK\r\nServer: ukraft\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n"
       (String.length body))
  + String.length body

let web : (Cl.t * string) workload =
  {
    setup_reps = 3;
    setup =
      (fun ~seed ->
        let page = web_page seed in
        let c =
          span "web.setup" ~vnow:no_clock (fun () ->
              let c = Cl.create ~seed ~fastpath:Cl.fastpath_default ~n:web_cores () in
              ignore (Cl.add_httpd_fast c (Ukapps.Httpd.In_memory [ ("/index.html", page) ]));
              c)
        in
        (c, page));
    measure =
      (fun ~seed:_ (c, page) ->
        let n = web_requests () in
        let obs = observe_smp (Cl.smp c) ~n_servers:web_cores in
        let before = Reg.snapshot () in
        let r =
          span "web.load" ~vnow:(fun () -> Cl.elapsed_ns c) (fun () ->
              Cl.run_httpd_load_fast c ~connections_per_core:web_conns ~requests_per_core:n
                ~pipeline:web_pipeline ())
        in
        let served = Reg.diff ~before ~after:(Reg.snapshot ()) in
        Smp.set_step_observer (Cl.smp c) None;
        let r = if !plant_lost then { r with Ukapps.Wrk.requests = r.Ukapps.Wrk.requests - 1 } else r in
        let httpd s = count_in served ~src:"ukapps.httpd" s in
        let configured = web_cores * n in
        let reply = http_reply_len page in
        let w = r.Ukapps.Wrk.requests in
        let checks =
          [
            ("web.zero_errors", r.Ukapps.Wrk.errors = 0);
            ("web.requests_as_configured", w = configured);
            ("web.httpd_served_all", httpd "requests" >= w);
            ("web.httpd_zero_503", httpd "errors_503" = 0);
            ("web.bytes_sent_exact", httpd "bytes_sent" = httpd "requests" * reply);
          ]
        in
        let layers =
          if not !tracing then []
          else
            let steals, ipis = smp_steals_ipis (Cl.smp c) in
            layers_of
              ~extra:
                [
                  ("uksim.steps", float_of_int obs.steps);
                  ("uksmp.server_cycles_per_req", ratio obs.server_cycles w);
                  ("uksmp.steals", float_of_int steals);
                  ("uksmp.ipis", float_of_int ipis);
                ]
              ~registry:(registry_layers ~measured:[ "web.load" ] ~setup:"web.setup" ~reqs:w)
        in
        {
          blank with
          throughput_rps = r.Ukapps.Wrk.rate_per_sec;
          mean_us = r.Ukapps.Wrk.latency_us_mean;
          report =
            [
              m "page_bytes" "B" (float_of_int (String.length page));
              m "reply_bytes" "B" (float_of_int reply);
              m ~samples:w "throughput_rps" "req/s" r.Ukapps.Wrk.rate_per_sec;
              m ~samples:w "mean_us" "us" r.Ukapps.Wrk.latency_us_mean;
              m "virtual_elapsed_ms" "ms" (r.Ukapps.Wrk.elapsed_ns /. 1e6);
            ]
            @ pct ~samples:w 99.0 "p99_us" r.Ukapps.Wrk.latency_us_p99;
          hashes = [ ("cluster", Printf.sprintf "%016x" (Cl.trace_hash c)) ];
          attempted = configured;
          failed = r.Ukapps.Wrk.errors + httpd "errors_503" + max 0 (configured - w);
          checks;
          layers;
        });
  }

(* --- kv: the durable merkle store ---------------------------------------------- *)

let kv_cores = 2
let kv_conns = 8
let kv_pipeline = 8
let kv_commit_every = 64
let kv_requests () = match !scale with Full -> 4000 | Tiny -> 256
let kv_depth () = match !scale with Full -> 64 | Tiny -> 4

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Ukvfs.Fs.errno_to_string e)

let checkpoints srv =
  Array.fold_left (fun a s -> a + (St.stats (Store.store s)).St.checkpoints) 0 srv

type kv_leg = { res : Store.result; leg_ckpts : int; roots : string }

let kv_leg name c srv ~seed ~write_frac =
  let ck0 = checkpoints srv in
  let res =
    span name ~vnow:(fun () -> Cl.elapsed_ns c) (fun () ->
        Cl.run_store_load_fast c ~connections_per_core:kv_conns ~pipeline:kv_pipeline
          ~requests_per_core:(kv_requests ()) ~write_frac ~commit_every:kv_commit_every ~seed ())
  in
  let roots =
    String.concat "," (Array.to_list (Array.map (fun s -> Printf.sprintf "%016x" (Store.state_hash s)) srv))
  in
  { res; leg_ckpts = checkpoints srv - ck0; roots }

(* Recovery leg: a checkpointed base image, then [depth] commits left in
   the journal; mount time is slot scan + replay of exactly those. *)
let kv_recover ~seed =
  let r = rng seed 0x4ec in
  let clock = Uksim.Clock.create () in
  let vnow () = Uksim.Clock.ns clock in
  let depth = kv_depth () in
  span "kv.recover" ~vnow (fun () ->
      let dev = Ukblock.Virtio_blk.create_ramdisk ~clock ~capacity_sectors:65536 () in
      let t = ok "format" (St.format ~clock ~journal_sectors:4096 dev) in
      let value () = String.init (8 + Random.State.int r 40) (fun _ -> Char.chr (33 + Random.State.int r 90)) in
      for i = 0 to 63 do
        ignore (ok "set" (St.set t (Printf.sprintf "base%03d" i) (value ())))
      done;
      ignore (ok "commit" (St.commit t ~msg:"base" ()));
      span "ukstore.checkpoint" ~vnow (fun () -> ok "checkpoint" (St.checkpoint t));
      let commit_us = ref [] in
      let last = ref ("", "", St.null) in
      for i = 1 to depth do
        let k = Printf.sprintf "j%04d-%d" i (Random.State.int r 1000) and v = value () in
        ignore (ok "set" (St.set t k v));
        let v0 = vnow () in
        let h = span "ukstore.commit" ~vnow (fun () -> ok "commit" (St.commit t ())) in
        commit_us := ((vnow () -. v0) /. 1e3) :: !commit_us;
        last := (k, v, h)
      done;
      let k, v, h = !last in
      let t0 = vnow () in
      let t' = span "ukstore.open" ~vnow (fun () -> ok "open" (St.open_ ~clock dev)) in
      let open_us = (vnow () -. t0) /. 1e3 in
      let replayed = (St.stats t').St.replayed_records in
      let checks =
        [
          ("kv.recover.replayed_depth", replayed = depth);
          ("kv.recover.head_is_last_ack", St.head t' = h);
          ("kv.recover.last_key_reads_back", St.get t' k = Ok (Some v));
        ]
      in
      (open_us, median !commit_us, replayed, Printf.sprintf "%016x" (St.head t'), checks))

let kv : (Cl.t * Store.t array * Cl.t * Store.t array) workload =
  {
    setup_reps = 3;
    setup =
      (fun ~seed ->
        span "kv.setup" ~vnow:no_clock (fun () ->
            let mk () =
              let c = Cl.create ~seed ~n:kv_cores () in
              (c, Cl.add_store_fast c ())
            in
            let cw, sw = mk () in
            let cr, sr = mk () in
            (cw, sw, cr, sr)));
    measure =
      (fun ~seed (cw, sw, cr, sr) ->
        let ow = observe_smp (Cl.smp cw) ~n_servers:kv_cores in
        let orr = observe_smp (Cl.smp cr) ~n_servers:kv_cores in
        let w = kv_leg "kv.write" cw sw ~seed ~write_frac:0.9 in
        let rd = kv_leg "kv.read" cr sr ~seed:(seed + 1) ~write_frac:0.1 in
        let recovery_us, commit_us, replayed, rhead, rchecks = kv_recover ~seed in
        Smp.set_step_observer (Cl.smp cw) None;
        Smp.set_step_observer (Cl.smp cr) None;
        let wr = w.res and rr = rd.res in
        let configured = kv_cores * kv_requests () in
        let reqs = wr.Store.requests + rr.Store.requests in
        (* The legs combine by geometric mean, so each moves the figure by
           half its own relative change: the read leg runs ~35x faster
           than the write leg and would vanish from a pooled total. *)
        let geo a b = sqrt (a *. b) in
        let thr = geo wr.Store.rate_per_sec rr.Store.rate_per_sec in
        let mean_us = geo wr.Store.mean_us rr.Store.mean_us in
        let checks =
          [
            ("kv.write.zero_errors", wr.Store.errors = 0);
            ("kv.read.zero_errors", rr.Store.errors = 0);
            ("kv.write.requests_as_configured", wr.Store.requests = configured);
            ("kv.read.requests_as_configured", rr.Store.requests = configured);
          ]
          @ rchecks
        in
        let commits_srv srv = Array.fold_left (fun a s -> a + (Store.stats s).Store.commits) 0 srv in
        let layers =
          if not !tracing then []
          else
            let sw_, iw = smp_steals_ipis (Cl.smp cw) and sr_, ir = smp_steals_ipis (Cl.smp cr) in
            let ckpt_span = match find_span "ukstore.checkpoint" with Some s -> s.virt_ns /. 1e3 | None -> 0.0 in
            layers_of
              ~extra:
                [
                  ("uksim.steps", float_of_int (ow.steps + orr.steps));
                  ("uksmp.server_cycles_per_req", ratio (ow.server_cycles + orr.server_cycles) reqs);
                  ("uksmp.steals", float_of_int (sw_ + sr_));
                  ("uksmp.ipis", float_of_int (iw + ir));
                  ("ukapps.store_commits", float_of_int (commits_srv sw + commits_srv sr));
                  ("ukstore.commit_us", commit_us);
                  ("ukstore.checkpoint_us", ckpt_span);
                  ("ukstore.open_us", recovery_us);
                ]
              ~registry:
                (registry_layers ~measured:[ "kv.write"; "kv.read"; "kv.recover" ] ~setup:"kv.setup"
                   ~reqs)
        in
        {
          blank with
          throughput_rps = thr;
          mean_us;
          report =
            (let nw = wr.Store.requests and nr = rr.Store.requests in
             [
               m ~samples:reqs "throughput_rps" "req/s" thr;
               m ~samples:reqs "mean_us" "us" mean_us;
               m ~samples:nw "write_rps" "req/s" wr.Store.rate_per_sec;
               m ~samples:nw "write_mean_us" "us" wr.Store.mean_us;
             ]
             @ pct ~samples:nw 50.0 "write_p50_us" wr.Store.p50_us
             @ pct ~samples:nw 99.0 "write_p99_us" wr.Store.p99_us
             @ [
                 m "write_checkpoints" "count" (float_of_int w.leg_ckpts);
                 m ~samples:nr "read_rps" "req/s" rr.Store.rate_per_sec;
                 m ~samples:nr "read_mean_us" "us" rr.Store.mean_us;
               ]
             @ pct ~samples:nr 50.0 "read_p50_us" rr.Store.p50_us
             @ pct ~samples:nr 99.0 "read_p99_us" rr.Store.p99_us
             @ [
                 m "read_checkpoints" "count" (float_of_int rd.leg_ckpts);
                 m ~samples:1 "recovery_us" "us" recovery_us;
                 m "recovery_depth" "count" (float_of_int replayed);
               ]);
          hashes =
            [
              ("write_cluster", Printf.sprintf "%016x" (Cl.trace_hash cw));
              ("read_cluster", Printf.sprintf "%016x" (Cl.trace_hash cr));
              ("write_roots", w.roots);
              ("read_roots", rd.roots);
              ("recovered_head", rhead);
            ];
          attempted = reqs + kv_depth ();
          failed = wr.Store.errors + rr.Store.errors;
          checks;
          layers;
        });
  }

(* --- drill: ukcluster partition drill ------------------------------------------ *)

let drill_rps () = match !scale with Full -> 1500.0 | Tiny -> 150.0

let sec = Uksim.Units.sec
let msec = Uksim.Units.msec

let drill : (UC.t * Fh.t) workload =
  {
    setup_reps = 9;
    setup =
      (fun ~seed ->
        span "drill.setup" ~vnow:no_clock (fun () ->
            let c =
              UC.create ~seed ~n_hosts:4 ~router_params:(Ukcluster.Router.params ~hedge:true ()) ()
            in
            let t0 = UC.settle_ns c in
            (* Live-migrate host 0's shard to host 1 and kill host 1 while
               the first pre-copy round streams; partition host 3's replies
               for 60 s. *)
            UC.migrate c ~at_ns:(t0 +. sec 20.0) ~src:0 ~dst:1;
            let fh =
              Fh.arm ~clock:(UC.clock c) ~engine:(UC.engine c) ~ops:(UC.ops c)
                [
                  (t0 +. sec 10.0, Fh.Partition_asym ([ 3 ], [ UC.front c ]));
                  (t0 +. sec 20.0 +. msec 4.0, Fh.Crash 1);
                  (t0 +. sec 25.0, Fh.Recover 1);
                  (t0 +. sec 70.0, Fh.Heal ([ 3 ], [ UC.front c ]));
                ]
            in
            (c, fh)));
    measure =
      (fun ~seed:_ (c, fh) ->
        let steps = ref 0 in
        Uksim.Engine.set_observer (UC.engine c)
          (Some (if !tracing then (fun _ -> tick (); incr steps) else fun _ -> tick ()));
        let vnow () = Uksim.Clock.ns (UC.clock c) in
        let v0 = vnow () in
        let r =
          span "drill.run" ~vnow (fun () ->
              UC.run c
                (Ukfleet.Workload.diurnal ~base_rps:(drill_rps ()) ~amplitude:0.6
                   ~period_ns:(sec 30.0) ~duration_ns:(sec 90.0)))
        in
        Uksim.Engine.set_observer (UC.engine c) None;
        let velapsed = vnow () -. v0 in
        let applied = (Fh.stats fh).Fh.applied in
        let checks =
          [
            ("drill.zero_lost", r.UC.lost = 0);
            ("drill.offered_resolved", r.UC.offered = r.UC.completed + r.UC.shed + r.UC.expired);
            ("drill.four_faults_applied", applied = 4);
            ("drill.migrated", r.UC.migrations >= 1);
            ("drill.migration_aborted", r.UC.migration_aborts >= 1);
          ]
        in
        let thr = float_of_int r.UC.completed /. (velapsed /. 1e9) in
        let layers =
          if not !tracing then []
          else
            layers_of
              ~extra:
                [
                  ("uksim.steps", float_of_int !steps);
                  ("ukcluster.retries", float_of_int r.UC.retries);
                  ("ukcluster.hedges", float_of_int r.UC.hedges);
                  ("ukcluster.hedge_win_ratio", ratio r.UC.hedge_wins r.UC.hedges);
                  ("ukcluster.cancelled", float_of_int r.UC.cancelled);
                  ("ukcluster.expired", float_of_int r.UC.expired);
                  ("ukcluster.lost_replies", float_of_int r.UC.lost_replies);
                  ("ukcluster.suspects", float_of_int r.UC.suspects);
                  ("ukcluster.deads", float_of_int r.UC.deads);
                  ("ukcluster.migrations", float_of_int r.UC.migrations);
                  ("ukcluster.migration_aborts", float_of_int r.UC.migration_aborts);
                  ("ukcluster.last_pause_us", UC.last_pause_ns c /. 1e3);
                ]
              ~registry:
                (registry_layers ~measured:[ "drill.run" ] ~setup:"drill.setup" ~reqs:r.UC.offered)
        in
        let n = r.UC.completed in
        {
          blank with
          throughput_rps = thr;
          mean_us = r.UC.mean_us;
          report =
            [
              m ~samples:n "throughput_rps" "req/s" thr;
              m ~samples:n "mean_us" "us" r.UC.mean_us;
              m ~samples:n "p50_us" "us" r.UC.p50_us;
              m ~samples:n "p99_us" "us" r.UC.p99_us;
              m ~samples:n "p999_us" "us" r.UC.p999_us;
              m "offered" "count" (float_of_int r.UC.offered);
              m "shed" "count" (float_of_int r.UC.shed);
              m "expired" "count" (float_of_int r.UC.expired);
              m "lost" "count" (float_of_int r.UC.lost);
              m "faults_applied" "count" (float_of_int applied);
              m "migrations" "count" (float_of_int r.UC.migrations);
              m "migration_aborts" "count" (float_of_int r.UC.migration_aborts);
              m "generator_lateness_us" "us" 0.0;
              m "virtual_elapsed_s" "s" (velapsed /. 1e9);
            ];
          hashes = [ ("drill", Printf.sprintf "%016x" r.UC.trace_hash) ];
          attempted = r.UC.offered;
          failed = r.UC.shed + r.UC.expired + r.UC.lost;
          checks;
          layers;
        });
  }

(* --- JSON output -------------------------------------------------------------- *)

let jfloat x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let jstr s = Printf.sprintf "%S" s
let jobj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) kvs) ^ "}"

let jmetric (x : metric) =
  jobj
    ([ ("value", jfloat x.value); ("unit", jstr x.unit_) ]
    @ match x.samples with Some n -> [ ("samples", string_of_int n) ] | None -> [])

let jreport report = jobj (List.map (fun x -> (x.mname, jmetric x)) report)

let span_json s =
  jobj
    ([
       ("name", jstr s.sname);
       ("parent", match s.parent with Some p -> jstr p | None -> "null");
       ("host_ns", jfloat s.host_ns);
       ("virt_ns", jfloat s.virt_ns);
       ("minor_words", jfloat s.minor_words);
       ("major_collections", string_of_int s.major_collections);
       ("heap_top_mb", jfloat s.heap_top_mb);
       ("counts", Reg.to_json (Reg.prune s.counts));
     ])

(* Virtual-time fingerprint of an iteration: must repeat exactly. *)
let fingerprint (it : iter) =
  ( List.map (fun x -> (x.mname, x.value)) it.report,
    it.hashes,
    it.throughput_rps,
    it.mean_us,
    it.attempted,
    it.failed )

(* --- driver ------------------------------------------------------------------- *)

let held_out seed = (seed * 7919) + 104729

type packed = Pack : 'a workload -> packed

let workloads = [ ("web", Pack web); ("kv", Pack kv); ("drill", Pack drill) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload web|kv|drill --seed N --seconds S --trace 0|1 [--scale full|tiny] [--plant lost]";
  exit 2

let () =
  let wname = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string wname, "web | kv | drill");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "wall seconds to measure");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = per-layer metrics");
      ( "--scale",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> scale := if s = "tiny" then Tiny else Full),
        " workload size (tiny is for the self-test)" );
      ("--plant", Arg.Symbol ([ "lost" ], fun _ -> plant_lost := true), " plant a lost web response (self-test)");
    ]
  in
  Arg.parse spec (fun _ -> usage ()) "perfbench";
  let (Pack w) = match List.assoc_opt !wname workloads with Some p -> p | None -> usage () in
  let log fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!") in
  let show ?(seed = !seed) tag (it : iter) =
    log "%s %s seed %d: setup %.5fs host %.4fs (cpu %.4fs) minor %.2fMw thr %.1f req/s mean %.4fus checks %s"
      !wname tag seed (median it.setup_s) it.host_s it.host_cpu_s it.minor_mwords it.throughput_rps it.mean_us
      (if List.for_all snd it.checks then "ok"
       else String.concat "," (List.map fst (List.filter (fun (_, b) -> not b) it.checks)))
  in
  let t_start = Unix.gettimeofday () in
  let first = run_iter w ~seed:!seed in
  show "iter 1" first;
  let extra_checks, others, held, layers =
    if !trace = 0 then begin
      let rest = ref [] in
      while List.length !rest < 1 || Unix.gettimeofday () -. t_start < !seconds do
        let it = run_iter w ~seed:!seed in
        show (Printf.sprintf "iter %d" (List.length !rest + 2)) it;
        rest := it :: !rest
      done;
      let det = List.for_all (fun it -> fingerprint it = fingerprint first) !rest in
      ([ ("replay.same_seed_identical", det) ], List.rev !rest, None, [])
    end
    else begin
      (* a second untraced iteration is the warm reference for the
         tracing overhead; the first one also pays heap growth *)
      let warm = run_iter w ~seed:!seed in
      show "iter 2" warm;
      tracing := true;
      let traced = run_iter w ~seed:!seed in
      tracing := false;
      show "traced" traced;
      let hseed = held_out !seed in
      let held = run_iter w ~seed:hseed in
      show ~seed:hseed "held-out" held;
      let overhead = traced.host_s -. warm.host_s in
      let layers =
        List.map
          (fun (n, v) -> if n = "bench.trace_overhead_s" then (n, overhead) else (n, v))
          traced.layers
      in
      ( [
          ("replay.same_seed_identical", fingerprint warm = fingerprint first);
          ("trace.invariant", fingerprint traced = fingerprint first);
          ("held_out.checks", List.for_all snd held.checks);
        ],
        [ warm; traced; held ],
        Some held,
        layers )
    end
  in
  let all = first :: others in
  let checks = first.checks @ extra_checks in
  let correct = List.for_all snd checks && List.for_all (fun it -> List.for_all snd it.checks) all in
  let attempted = List.fold_left (fun a it -> a + it.attempted) 0 all in
  let failed = List.fold_left (fun a it -> a + it.failed) 0 all in
  (* host figures come from untraced iterations of the measured seed *)
  let timed = if !trace = 0 then all else [ first; List.hd others ] in
  let med f = median (List.map f timed) in
  let setup_all = List.concat_map (fun it -> it.setup_s) timed in
  let host_s = m ~samples:(List.length timed) "host_s" "s" (med (fun it -> it.host_s)) in
  let setup_s = m ~samples:(List.length setup_all) "setup_s" "s" (median setup_all) in
  let e2e =
    [
      m "throughput_rps" "req/s" first.throughput_rps;
      m "mean_us" "us" first.mean_us;
      host_s;
      m "host_minor_mwords" "Mwords" (med (fun it -> it.minor_mwords));
      m "peak_rss_mb" "MB" (peak_rss_mb ());
      setup_s;
    ]
  in
  let host = [ host_s; m "host_cpu_s" "s" (med (fun it -> it.host_cpu_s)); setup_s ] in
  let report =
    jobj
      ([
         ("workload", jstr !wname);
         ("seed", string_of_int !seed);
         ("iterations", string_of_int (List.length all));
         ("metrics", jreport (first.report @ host));
         ( "error_frac",
           jfloat (if attempted = 0 then 0.0 else float_of_int failed /. float_of_int attempted) );
         ("checks", jobj (List.map (fun (n, b) -> (n, string_of_bool b)) checks));
         ("hashes", jobj (List.map (fun (n, h) -> (n, jstr h)) first.hashes));
       ]
      @
      match held with
      | None -> []
      | Some h ->
          [
            ( "held_out",
              jobj
                [
                  ("seed", string_of_int (held_out !seed));
                  ("metrics", jreport h.report);
                  ("checks", jobj (List.map (fun (n, b) -> (n, string_of_bool b)) h.checks));
                ] );
          ])
  in
  print_endline (jobj [ ("report", report) ]);
  if !trace = 1 then begin
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".perfbench/%s-seed%d-trace.json" !wname !seed in
    let oc = open_out path in
    output_string oc
      (jobj [ ("report", report); ("spans", "[" ^ String.concat ",\n" (List.rev_map span_json !spans) ^ "]") ]);
    close_out oc;
    log "spans written to %s" path
  end;
  let metrics =
    if !trace = 0 then List.map (fun x -> (x.mname, jobj [ ("value", jfloat x.value); ("unit", jstr x.unit_) ])) e2e
    else
      List.map
        (fun (n, v) -> (n, jobj [ ("value", jfloat v); ("unit", jstr (List.assoc n layer_units)) ]))
        layers
  in
  print_endline
    (jobj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", jobj metrics);
       ]);
  exit (if correct then 0 else 1)

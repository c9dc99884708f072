(* Tests for the simulation substrate: clock, RNG, heap, engine, stats. *)

open Uksim

let test_clock_basics () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at zero" 0 (Clock.cycles c);
  Clock.advance c 360;
  Alcotest.(check int) "advance" 360 (Clock.cycles c);
  Alcotest.(check (float 0.001)) "ns conversion at 3.6GHz" 100.0 (Clock.ns c);
  Clock.advance_ns c 100.0;
  Alcotest.(check int) "advance_ns rounds up" 720 (Clock.cycles c);
  Clock.reset c;
  Alcotest.(check int) "reset" 0 (Clock.cycles c)

let test_clock_negative () =
  let c = Clock.create () in
  Alcotest.check_raises "negative advance" (Invalid_argument "Clock.advance: negative cycles")
    (fun () -> Clock.advance c (-1))

let test_clock_span () =
  let c = Clock.create () in
  Clock.advance c 100;
  let s = Clock.start c in
  Clock.advance c 250;
  Alcotest.(check int) "span cycles" 250 (Clock.elapsed_cycles c s)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 99 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in r 5 9 in
    if v < 5 || v > 9 then Alcotest.failf "int_in out of bounds: %d" v
  done;
  for _ = 1 to 100 do
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of bounds: %f" f
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xa = Rng.next a and xb = Rng.next b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_rng_errors () =
  let r = Rng.create 0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "empty choose" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose r [||]))

let test_heapq_order () =
  let h = Heapq.create () in
  List.iter (fun (k, v) -> Heapq.push h k v) [ (5, "e"); (1, "a"); (3, "c"); (2, "b"); (4, "d") ];
  let out = ref [] in
  while not (Heapq.is_empty h) do
    out := Heapq.take h :: !out
  done;
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c"; "d"; "e" ] (List.rev !out)

let test_heapq_fifo_ties () =
  let h = Heapq.create () in
  List.iter (fun v -> Heapq.push h 1 v) [ "first"; "second"; "third" ];
  let a = Heapq.take h in
  let b = Heapq.take h in
  let c = Heapq.take h in
  Alcotest.(check (list string)) "FIFO among equal keys" [ "first"; "second"; "third" ]
    [ a; b; c ]

let heapq_sorts_prop =
  QCheck.Test.make ~name:"heapq pops in nondecreasing key order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun keys ->
      let h = Heapq.create () in
      List.iter (fun k -> Heapq.push h k k) keys;
      let rec drain acc =
        if Heapq.is_empty h then List.rev acc
        else
          let k = Heapq.min_key h in
          ignore (Heapq.take h);
          drain (k :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare keys)

(* The record heap [Heapq] replaced: one boxed entry per push, compared
   by (key, seq). The reference for the array-backed heap. *)
module Ref_heapq = struct
  type 'a entry = { key : int; seq : int; value : 'a }
  type 'a t = { mutable data : 'a entry array; mutable size : int; mutable next_seq : int }

  let create () = { data = [||]; size = 0; next_seq = 0 }
  let lt a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if lt h.data.(i) h.data.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && lt h.data.(l) h.data.(!smallest) then smallest := l;
    if r < h.size && lt h.data.(r) h.data.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h key value =
    let e = { key; seq = h.next_seq; value } in
    h.next_seq <- h.next_seq + 1;
    if h.size = Array.length h.data then begin
      let nd = Array.make (Stdlib.max 16 (2 * h.size)) e in
      Array.blit h.data 0 nd 0 h.size;
      h.data <- nd
    end;
    h.data.(h.size) <- e;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.data.(0) <- h.data.(h.size);
        sift_down h 0
      end;
      Some (top.key, top.value)
    end
end

(* Random interleavings of push and take, many equal keys: every take
   (and the final drain) must give what the record heap gives, i.e. the
   smallest key, earliest pushed first. Pushes outnumber takes, so the
   queue grows through several capacity doublings with entries queued. *)
let heapq_matches_reference_prop =
  QCheck.Test.make ~name:"heapq: push/take interleavings match the record heap" ~count:300
    QCheck.(list_of_size Gen.(0 -- 3000) (option ~ratio:0.6 (int_bound 40)))
    (fun ops ->
      let h = Heapq.create () and r = Ref_heapq.create () in
      let id = ref 0 in
      let take_both () =
        let k = Heapq.min_key h in
        let v = Heapq.take h in
        match Ref_heapq.pop r with
        | Some (rk, rv) -> k = rk && v = rv
        | None -> false
      in
      let ok =
        List.for_all
          (function
            | Some key ->
                incr id;
                Heapq.push h key !id;
                Ref_heapq.push r key !id;
                Heapq.length h = r.Ref_heapq.size
            | None -> Heapq.is_empty h || take_both ())
          ops
      in
      let rec drain () = Heapq.is_empty h || (take_both () && drain ()) in
      ok && drain () && Ref_heapq.pop r = None && Heapq.min_key h = max_int)

let test_heapq_take_empty () =
  Alcotest.check_raises "take on empty" (Invalid_argument "Heapq.take: empty") (fun () ->
      ignore (Heapq.take (Heapq.create () : int Heapq.t)))

let test_engine_ordering () =
  let c = Clock.create () in
  let e = Engine.create c in
  let log = ref [] in
  Engine.after e 100 (fun () -> log := "b" :: !log);
  Engine.after e 50 (fun () -> log := "a" :: !log);
  Engine.after e 150 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 150 (Clock.cycles c)

let test_engine_until () =
  let c = Clock.create () in
  let e = Engine.create c in
  let fired = ref 0 in
  Engine.after e 100 (fun () -> incr fired);
  Engine.after e 300 (fun () -> incr fired);
  Alcotest.(check int) "next cycle" 100 (Engine.next_cycle e);
  Engine.run ~until:200 e;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check int) "clock advanced to limit" 200 (Clock.cycles c);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Alcotest.(check int) "next cycle after the limit" 300 (Engine.next_cycle e);
  Engine.run e;
  Alcotest.(check int) "second fired" 2 !fired;
  Alcotest.(check int) "empty queue: never" max_int (Engine.next_cycle e);
  Engine.run ~until:max_int e;
  Alcotest.(check int) "empty run to max_int stops" max_int (Clock.cycles c)

let test_engine_cascade () =
  let c = Clock.create () in
  let e = Engine.create c in
  let log = ref [] in
  Engine.after e 10 (fun () ->
      log := 1 :: !log;
      Engine.after e 10 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "events can schedule events" [ 1; 2 ] (List.rev !log);
  Alcotest.(check int) "cascade timing" 20 (Clock.cycles c)

let test_engine_past () =
  let c = Clock.create () in
  let e = Engine.create c in
  Clock.advance c 100;
  Alcotest.check_raises "past event rejected" (Invalid_argument "Engine.at: event in the past")
    (fun () -> Engine.at e 50 (fun () -> ()))

let test_engine_after_edges () =
  let c = Clock.create () in
  let e = Engine.create c in
  Alcotest.check_raises "negative delay rejected"
    (Invalid_argument "Engine.after: negative delay") (fun () ->
      Engine.after e (-1) (fun () -> ()));
  Alcotest.(check int) "nothing was scheduled" 0 (Engine.pending e);
  (* Zero delay is valid: fires at the current cycle. *)
  let fired = ref false in
  Engine.after e 0 (fun () -> fired := true);
  Engine.run e;
  Alcotest.(check bool) "zero-delay event fired" true !fired;
  Alcotest.(check int) "clock did not move" 0 (Clock.cycles c);
  (* [at] exactly at the current cycle is valid too (only the strict past
     raises). *)
  Clock.advance c 10;
  Engine.at e 10 (fun () -> ());
  Alcotest.(check int) "boundary event accepted" 1 (Engine.pending e)

let test_stats_percentiles () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.01)) "mean" 50.5 (Stats.mean s);
  Alcotest.(check (float 0.01)) "median" 50.5 (Stats.median s);
  Alcotest.(check (float 0.5)) "p99" 99.0 (Stats.percentile s 99.0);
  Alcotest.(check (float 0.01)) "min" 1.0 (Stats.min s);
  Alcotest.(check (float 0.01)) "max" 100.0 (Stats.max s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean of empty is nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check int) "count" 0 (Stats.count s)

(* Reference implementation: every query sorts a copy of the whole
   history with polymorphic [compare] and writes it back, so [data] is a
   sorted prefix plus the samples added since, in insertion order. *)
module Ref_stats = struct
  type t = { mutable data : float array; mutable size : int; mutable sorted : bool }

  let create () = { data = [||]; size = 0; sorted = true }

  let add t x =
    if t.size = Array.length t.data then begin
      let nd = Array.make (Stdlib.max 64 (2 * t.size)) 0.0 in
      Array.blit t.data 0 nd 0 t.size;
      t.data <- nd
    end;
    t.data.(t.size) <- x;
    t.size <- t.size + 1;
    t.sorted <- false

  let clear t =
    t.size <- 0;
    t.sorted <- true

  let fold f acc t =
    let r = ref acc in
    for i = 0 to t.size - 1 do
      r := f !r t.data.(i)
    done;
    !r

  let mean t = if t.size = 0 then nan else fold ( +. ) 0.0 t /. float_of_int t.size
  let min t = if t.size = 0 then nan else fold Stdlib.min infinity t
  let max t = if t.size = 0 then nan else fold Stdlib.max neg_infinity t

  let stddev t =
    if t.size < 2 then 0.0
    else
      let m = mean t in
      sqrt (fold (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 t /. float_of_int (t.size - 1))

  let percentile t p =
    if t.size = 0 then nan
    else begin
      if not t.sorted then begin
        let sub = Array.sub t.data 0 t.size in
        Array.sort compare sub;
        Array.blit sub 0 t.data 0 t.size;
        t.sorted <- true
      end;
      let p = Stdlib.min 100.0 (Stdlib.max 0.0 p) in
      let rank = p /. 100.0 *. float_of_int (t.size - 1) in
      let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
      if lo = hi then t.data.(lo)
      else
        let frac = rank -. float_of_int lo in
        (t.data.(lo) *. (1.0 -. frac)) +. (t.data.(hi) *. frac)
    end
end

(* Bit-for-bit, except that any NaN matches any NaN: which operand's
   NaN an addition propagates (and so its sign bit) depends on the
   operand order the compiler picks for a commutative [+.]. *)
let check_bits what expected got =
  if
    Int64.bits_of_float expected <> Int64.bits_of_float got
    && not (Float.is_nan expected && Float.is_nan got)
  then Alcotest.failf "%s: expected %h, got %h" what expected got

(* Every observable of [Stats] against the reference. *)
let check_same what r s =
  if r.Ref_stats.size <> Stats.count s then
    Alcotest.failf "%s: count %d, expected %d" what (Stats.count s) r.Ref_stats.size;
  check_bits (what ^ ": mean") (Ref_stats.mean r) (Stats.mean s);
  check_bits (what ^ ": min") (Ref_stats.min r) (Stats.min s);
  check_bits (what ^ ": max") (Ref_stats.max r) (Stats.max s);
  check_bits (what ^ ": stddev") (Ref_stats.stddev r) (Stats.stddev s)

(* Samples with many duplicates, negatives, infinities and NaN. [-0.0]
   is left out: it compares equal to [0.0], and neither sort promises
   an order between equal keys with different bits. *)
let gen_sample rs =
  match Random.State.int rs 8 with
  | 0 -> float_of_int (Random.State.int rs 5)
  | 1 -> -.(1.0 +. float_of_int (Random.State.int rs 5))
  | 2 -> Random.State.float rs 1e6 -. 5e5
  | 3 -> (match Random.State.int rs 3 with 0 -> infinity | 1 -> neg_infinity | _ -> nan)
  | _ -> 100.0 +. Random.State.float rs 50.0

let test_stats_matches_reference () =
  let rs = Random.State.make [| 12 |] in
  for seq = 1 to 400 do
    let r = Ref_stats.create () and s = Stats.create () in
    let ops = 1 + Random.State.int rs 600 in
    for op = 1 to ops do
      let what = Printf.sprintf "seq %d op %d" seq op in
      match Random.State.int rs 20 with
      | 0 ->
          Ref_stats.clear r;
          Stats.clear s
      | 1 | 2 ->
          let p = match Random.State.int rs 4 with
            | 0 -> 97.0
            | 1 -> float_of_int (Random.State.int rs 101)
            | 2 -> Random.State.float rs 120.0 -. 10.0
            | _ -> 99.9
          in
          check_bits (what ^ ": percentile") (Ref_stats.percentile r p) (Stats.percentile s p)
      | 3 -> check_bits (what ^ ": median") (Ref_stats.percentile r 50.0) (Stats.median s)
      | 4 -> check_same what r s
      | _ ->
          for _ = 1 to 1 + Random.State.int rs 40 do
            let x = gen_sample rs in
            Ref_stats.add r x;
            Stats.add s x
          done
    done;
    check_same (Printf.sprintf "seq %d end" seq) r s
  done

let test_stats_large_tail () =
  let rs = Random.State.make [| 99 |] in
  let r = Ref_stats.create () and s = Stats.create () in
  let add_n n =
    for _ = 1 to n do
      let x = gen_sample rs in
      Ref_stats.add r x;
      Stats.add s x
    done
  in
  add_n 40_000;
  check_bits "p50 of the first batch" (Ref_stats.percentile r 50.0) (Stats.percentile s 50.0);
  (* A 70k-sample unsorted tail on top of a 40k sorted prefix. *)
  add_n 70_000;
  check_same "before the big merge" r s;
  List.iter
    (fun p ->
      check_bits (Printf.sprintf "p%g" p) (Ref_stats.percentile r p) (Stats.percentile s p))
    [ 0.0; 1.0; 25.0; 50.0; 97.0; 99.0; 99.9; 100.0 ];
  check_same "after the big merge" r s;
  (* Reuse after clear keeps the grown buffers and still agrees. *)
  Ref_stats.clear r;
  Stats.clear s;
  add_n 5_000;
  check_bits "p97 after clear" (Ref_stats.percentile r 97.0) (Stats.percentile s 97.0);
  check_same "after clear" r s

(* A refresh sorts only the new samples and reuses the scratch buffer:
   the router's every-256-completions hedge refresh over a 100k history
   must not re-sort (or box) the whole history. *)
let test_stats_refresh_allocation () =
  let s = Stats.create () in
  for i = 1 to 100_000 do
    Stats.add s (float_of_int ((i * 7919) mod 100_003))
  done;
  ignore (Stats.percentile s 97.0);
  let before = Gc.minor_words () in
  for round = 1 to 100 do
    for i = 1 to 256 do
      Stats.add s (float_of_int ((round * 256 + i) * 104_729 mod 100_003))
    done;
    ignore (Stats.percentile s 97.0)
  done;
  let words = Gc.minor_words () -. before in
  if words >= 1e6 then
    Alcotest.failf "100 refreshes of a 100k history allocated %.0f minor words (limit 1M)" words

(* Heavy duplicates (a handful of values most of the time), plus the
   wide and non-finite samples [gen_sample] draws. *)
let gen_dup_sample rs =
  if Random.State.int rs 4 = 0 then gen_sample rs
  else 116_000.0 +. float_of_int (Random.State.int rs 6)

let running_ps = [| 0.0; 50.0; 97.0; 99.9; 100.0 |]

(* After every add, the running quantile is bit-for-bit the percentile
   [Stats] computes over the same samples. *)
let running_matches_percentile_prop =
  QCheck.Test.make ~name:"stats: running quantile = percentile after every add" ~count:60
    QCheck.(
      triple (int_bound (Array.length running_ps - 1)) (int_range 1 2000) (int_bound 1_000_000))
    (fun (pi, len, seed) ->
      let p = running_ps.(pi) in
      let rs = Random.State.make [| seed |] in
      let q = Stats.Running.create p and s = Stats.create () in
      let rec go i =
        i > len
        ||
        let x = gen_dup_sample rs in
        Stats.Running.add q x;
        Stats.add s x;
        let want = Stats.percentile s p and got = Stats.Running.get q in
        (Int64.bits_of_float want = Int64.bits_of_float got
        || (Float.is_nan want && Float.is_nan got))
        && Stats.Running.count q = i
        && go (i + 1)
      in
      go 1)

let test_running_edges () =
  let q = Stats.Running.create 97.0 in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.Running.get q));
  Alcotest.check_raises "nan p" (Invalid_argument "Stats.Running.create: p is nan")
    (fun () -> ignore (Stats.Running.create nan));
  let hi = Stats.Running.create 150.0 and lo = Stats.Running.create (-5.0) in
  List.iter
    (fun x ->
      Stats.Running.add hi x;
      Stats.Running.add lo x)
    [ 3.0; 1.0; 2.0 ];
  Alcotest.(check (float 0.0)) "p above 100 clamps" 3.0 (Stats.Running.get hi);
  Alcotest.(check (float 0.0)) "p below 0 clamps" 1.0 (Stats.Running.get lo)

(* Adding allocates nothing but heap growth, which goes to the major
   heap: 100k adds of already-boxed samples stay far below one minor
   word per add. *)
let test_running_allocation () =
  let xs = List.init 100_000 (fun i -> float_of_int ((i * 7919) mod 100_003)) in
  let q = Stats.Running.create 97.0 in
  List.iter (Stats.Running.add q) xs;
  let before = Gc.minor_words () in
  List.iter (Stats.Running.add q) xs;
  let words = Gc.minor_words () -. before in
  if words >= 50_000.0 then
    Alcotest.failf "100k running-quantile adds allocated %.0f minor words" words

let test_stats_nan_percentile () =
  let s = Stats.create () in
  let nan_p = Invalid_argument "Stats.percentile: p is nan" in
  Alcotest.check_raises "nan p on empty" nan_p (fun () -> ignore (Stats.percentile s nan));
  List.iter (fun x -> Stats.add s x) [ 3.0; 1.0; 2.0 ];
  Alcotest.check_raises "nan p" nan_p (fun () -> ignore (Stats.percentile s nan));
  Alcotest.(check (float 0.0)) "p above 100 clamps" 3.0 (Stats.percentile s 150.0);
  Alcotest.(check (float 0.0)) "p below 0 clamps" 1.0 (Stats.percentile s (-5.0))

let test_stats_throughput () =
  Alcotest.(check (float 0.01)) "1000 events in 1ms = 1M/s" 1_000_000.0
    (Stats.throughput_per_sec ~events:1000 ~elapsed_ns:1e6)

let test_units () =
  Alcotest.(check int) "kib" 2048 (Units.kib 2);
  Alcotest.(check string) "pp_bytes MB" "1.4MB" (Fmt.str "%a" Units.pp_bytes 1468006);
  Alcotest.(check string) "pp_ns ms" "3.00ms" (Fmt.str "%a" Units.pp_ns 3.0e6)

let test_cost_table1 () =
  (* The paper's Table 1 anchors. *)
  Alcotest.(check int) "function call = 4 cycles" 4 Cost.function_call;
  Alcotest.(check int) "unikraft syscall = 84" 84 Cost.syscall_unikraft;
  Alcotest.(check int) "linux syscall = 222" 222 Cost.syscall_linux;
  Alcotest.(check int) "linux no-mitigations = 154" 154 Cost.syscall_linux_nomitig

let suite =
  [
    Alcotest.test_case "clock basics" `Quick test_clock_basics;
    Alcotest.test_case "clock rejects negative" `Quick test_clock_negative;
    Alcotest.test_case "clock spans" `Quick test_clock_span;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng errors" `Quick test_rng_errors;
    Alcotest.test_case "heapq ordering" `Quick test_heapq_order;
    Alcotest.test_case "heapq FIFO ties" `Quick test_heapq_fifo_ties;
    QCheck_alcotest.to_alcotest heapq_sorts_prop;
    QCheck_alcotest.to_alcotest heapq_matches_reference_prop;
    Alcotest.test_case "heapq take on empty raises" `Quick test_heapq_take_empty;
    Alcotest.test_case "engine ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine until" `Quick test_engine_until;
    Alcotest.test_case "engine cascade" `Quick test_engine_cascade;
    Alcotest.test_case "engine rejects past" `Quick test_engine_past;
    Alcotest.test_case "engine after: negative/zero edges" `Quick test_engine_after_edges;
    Alcotest.test_case "stats percentiles" `Quick test_stats_percentiles;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats throughput" `Quick test_stats_throughput;
    Alcotest.test_case "stats match the full-re-sort reference" `Quick test_stats_matches_reference;
    Alcotest.test_case "stats: 110k samples, 70k unsorted tail" `Quick test_stats_large_tail;
    Alcotest.test_case "stats refresh allocates no history copy" `Quick test_stats_refresh_allocation;
    Alcotest.test_case "stats percentile rejects nan" `Quick test_stats_nan_percentile;
    QCheck_alcotest.to_alcotest running_matches_percentile_prop;
    Alcotest.test_case "stats running quantile: empty, nan, clamp" `Quick test_running_edges;
    Alcotest.test_case "stats running quantile allocates nothing per add" `Quick
      test_running_allocation;
    Alcotest.test_case "units formatting" `Quick test_units;
    Alcotest.test_case "cost table anchors (Table 1)" `Quick test_cost_table1;
  ]

(* Invariant: [data.(0 .. sorted_upto-1)] is sorted by [Float.compare];
   [data.(sorted_upto .. size-1)] is in insertion order. *)
type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted_upto : int;
  mutable scratch : float array;
}

let create () = { data = [||]; size = 0; sorted_upto = 0; scratch = [||] }

let add t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let nd = Array.make (if cap = 0 then 64 else cap * 2) 0.0 in
    Array.blit t.data 0 nd 0 t.size;
    t.data <- nd
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let count t = t.size

let clear t =
  t.size <- 0;
  t.sorted_upto <- 0

let mean t =
  if t.size = 0 then nan
  else begin
    let d = t.data in
    let acc = ref 0.0 in
    for i = 0 to t.size - 1 do
      acc := !acc +. d.(i)
    done;
    !acc /. float_of_int t.size
  end

(* The comparisons of [Stdlib.min]/[Stdlib.max], unboxed: a NaN sample
   is kept or skipped exactly as they would. *)
let min t =
  if t.size = 0 then nan
  else begin
    let d = t.data in
    let acc = ref infinity in
    for i = 0 to t.size - 1 do
      let x = d.(i) in
      if not (!acc <= x) then acc := x
    done;
    !acc
  end

let max t =
  if t.size = 0 then nan
  else begin
    let d = t.data in
    let acc = ref neg_infinity in
    for i = 0 to t.size - 1 do
      let x = d.(i) in
      if not (!acc >= x) then acc := x
    done;
    !acc
  end

let stddev t =
  if t.size < 2 then 0.0
  else begin
    let m = mean t in
    let d = t.data in
    let ss = ref 0.0 in
    for i = 0 to t.size - 1 do
      let x = d.(i) in
      ss := !ss +. ((x -. m) *. (x -. m))
    done;
    sqrt (!ss /. float_of_int (t.size - 1))
  end

let insertion_sort a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && Float.compare a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Sort [a.(lo .. hi-1)] in place; [tmp.(lo-off ..)] is scratch. Each
   merge copies the left run out and merges forward into [a]: the write
   index never passes the right run's read index. *)
let rec merge_sort a tmp off lo hi =
  if hi - lo <= 16 then insertion_sort a lo hi
  else begin
    let mid = (lo + hi) / 2 in
    merge_sort a tmp off lo mid;
    merge_sort a tmp off mid hi;
    if Float.compare a.(mid - 1) a.(mid) > 0 then begin
      Array.blit a lo tmp (lo - off) (mid - lo);
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid do
        if !j < hi && Float.compare tmp.(!i - off) a.(!j) > 0 then begin
          a.(!k) <- a.(!j);
          incr j
        end
        else begin
          a.(!k) <- tmp.(!i - off);
          incr i
        end;
        incr k
      done
    end
  end

let ensure_sorted t =
  let p = t.sorted_upto and n = t.size in
  if p < n then begin
    let k = n - p in
    if Array.length t.scratch < k then
      t.scratch <- Array.make (Stdlib.max k (2 * Array.length t.scratch)) 0.0;
    let d = t.data and s = t.scratch in
    merge_sort d s p p n;
    (* Merge the sorted tail into the prefix from the back; prefix values
       below the tail's minimum are never touched. *)
    if p > 0 && Float.compare d.(p - 1) d.(p) > 0 then begin
      Array.blit d p s 0 k;
      let i = ref (p - 1) and j = ref (k - 1) and w = ref (n - 1) in
      while !j >= 0 do
        if !i >= 0 && Float.compare d.(!i) s.(!j) > 0 then begin
          d.(!w) <- d.(!i);
          decr i
        end
        else begin
          d.(!w) <- s.(!j);
          decr j
        end;
        decr w
      done
    end;
    t.sorted_upto <- n
  end

let percentile t p =
  if Float.is_nan p then invalid_arg "Stats.percentile: p is nan";
  if t.size = 0 then nan
  else begin
    ensure_sorted t;
    let p = Stdlib.min 100.0 (Stdlib.max 0.0 p) in
    let rank = p /. 100.0 *. float_of_int (t.size - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then t.data.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (t.data.(lo) *. (1.0 -. frac)) +. (t.data.(hi) *. frac)
    end
  end

let median t = percentile t 50.0

let summary t =
  if t.size = 0 then "n=0"
  else
    Printf.sprintf "n=%d, mean=%.2f, p50=%.2f, p99=%.2f, min=%.2f, max=%.2f"
      t.size (mean t) (median t) (percentile t 99.0) (min t) (max t)

let mean_of = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let throughput_per_sec ~events ~elapsed_ns =
  if elapsed_ns <= 0.0 then 0.0 else float_of_int events /. (elapsed_ns /. 1e9)

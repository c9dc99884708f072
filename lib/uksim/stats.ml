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
    let nd = Array.create_float (if cap = 0 then 64 else cap * 2) in
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
      t.scratch <- Array.create_float (Stdlib.max k (2 * Array.length t.scratch));
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

module Running = struct
  (* A max-heap of the lowest [lo+1] samples and a min-heap of the rest,
     both ordered by [Float.compare], so their tops are [data.(lo)] and
     [data.(lo+1)] of the sorted array {!percentile} would read. *)
  type heap = { mutable a : float array; mutable n : int; dir : int }
  (* [dir] = 1: max-heap; [dir] = -1: min-heap. *)

  type t = { p : float; lower : heap; upper : heap }

  let create p =
    if Float.is_nan p then invalid_arg "Stats.Running.create: p is nan";
    let heap dir = { a = [||]; n = 0; dir } in
    { p = Stdlib.min 100.0 (Stdlib.max 0.0 p); lower = heap 1; upper = heap (-1) }

  let count t = t.lower.n + t.upper.n

  let[@inline] above h x y = Float.compare x y * h.dir > 0

  let[@inline] push h x =
    if h.n = Array.length h.a then begin
      let na = Array.create_float (Stdlib.max 64 (2 * h.n)) in
      Array.blit h.a 0 na 0 h.n;
      h.a <- na
    end;
    let a = h.a in
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && above h x a.((!i - 1) / 2) do
      a.(!i) <- a.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    a.(!i) <- x

  (* Drop the top; the last entry sifts down from the root. *)
  let drop_top h =
    let a = h.a in
    let n = h.n - 1 in
    h.n <- n;
    if n > 0 then begin
      let x = a.(n) in
      let i = ref 0 and fin = ref false in
      while not !fin do
        let l = (2 * !i) + 1 in
        if l >= n then fin := true
        else begin
          let c = if l + 1 < n && above h a.(l + 1) a.(l) then l + 1 else l in
          if above h a.(c) x then begin
            a.(!i) <- a.(c);
            i := c
          end
          else fin := true
        end
      done;
      a.(!i) <- x
    end

  let[@inline] move_top ~src ~dst =
    let x = src.a.(0) in
    drop_top src;
    push dst x

  let rank t n = t.p /. 100.0 *. float_of_int (n - 1)

  (* [lo] grows by at most one per sample, so one move restores
     [lower.n = lo + 1]. *)
  let add t x =
    if t.lower.n > 0 && Float.compare x t.lower.a.(0) < 0 then push t.lower x
    else push t.upper x;
    let want = int_of_float (floor (rank t (count t))) + 1 in
    if t.lower.n > want then move_top ~src:t.lower ~dst:t.upper
    else if t.lower.n < want then move_top ~src:t.upper ~dst:t.lower

  let get t =
    let n = count t in
    if n = 0 then nan
    else begin
      let rank = rank t n in
      let lo = int_of_float (floor rank) in
      let hi = int_of_float (ceil rank) in
      if lo = hi then t.lower.a.(0)
      else begin
        let frac = rank -. float_of_int lo in
        (t.lower.a.(0) *. (1.0 -. frac)) +. (t.upper.a.(0) *. frac)
      end
    end
end

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

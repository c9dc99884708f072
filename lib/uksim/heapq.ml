(* Structure of arrays. Heap position [i < size] holds key [keys.(i)]
   and tag [tags.(i)] = [(seq lsl bits) lor slot], where [2^bits] is the
   capacity: the value sits in [vals.(slot)], and since seqs are unique,
   comparing tags orders equal keys by seq. A value is written once, at
   push, into a free slot; sifting moves only ints, so it never goes
   through the write barrier. Slots in use are [0 .. used-1];
   [tags.(size .. used-1)] lists the free ones among them. Once the
   arrays have grown, neither [push] nor [take] allocates. *)
type 'a t = {
  mutable keys : int array;
  mutable tags : int array;
  mutable vals : 'a array;
  mutable bits : int;
  mutable size : int;
  mutable used : int;
  mutable next_seq : int;
}

let create () =
  { keys = [||]; tags = [||]; vals = [||]; bits = 0; size = 0; used = 0; next_seq = 0 }

let is_empty h = h.size = 0
let length h = h.size

(* Lexicographic (key, seq) order makes equal-priority pops FIFO. *)
let[@inline] lt h i k tag = h.keys.(i) < k || (h.keys.(i) = k && h.tags.(i) < tag)

let[@inline] set h i k tag =
  h.keys.(i) <- k;
  h.tags.(i) <- tag

let[@inline] move h ~src ~dst = set h dst h.keys.(src) h.tags.(src)

(* Double the capacity; the tags of queued entries gain one slot bit. *)
let grow h v =
  let cap = Array.length h.keys in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let widen a fill =
    let na = Array.make ncap fill in
    Array.blit a 0 na 0 cap;
    na
  in
  h.keys <- widen h.keys 0;
  h.tags <- widen h.tags 0;
  h.vals <- widen h.vals v;
  let nbits = if cap = 0 then 4 else h.bits + 1 in
  if h.next_seq > max_int lsr nbits then failwith "Heapq.push: sequence space exhausted";
  let mask = (1 lsl h.bits) - 1 in
  for i = 0 to h.size - 1 do
    let tag = h.tags.(i) in
    h.tags.(i) <- ((tag lsr h.bits) lsl nbits) lor (tag land mask)
  done;
  h.bits <- nbits

(* Hole-based sifts: parents (children) shift into the hole until the
   entry fits, then it is written once. *)
let push h k v =
  if h.size = Array.length h.keys then grow h v;
  let slot =
    if h.size < h.used then h.tags.(h.size)
    else begin
      h.used <- h.used + 1;
      h.size
    end
  in
  h.vals.(slot) <- v;
  let s = h.next_seq in
  if s > max_int lsr h.bits then failwith "Heapq.push: sequence space exhausted";
  h.next_seq <- s + 1;
  let tag = (s lsl h.bits) lor slot in
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && not (lt h ((!i - 1) / 2) k tag) do
    let parent = (!i - 1) / 2 in
    move h ~src:parent ~dst:!i;
    i := parent
  done;
  set h !i k tag

let take h =
  if h.size = 0 then invalid_arg "Heapq.take: empty";
  let top = h.tags.(0) land ((1 lsl h.bits) - 1) in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root. *)
    let k = h.keys.(n) and tag = h.tags.(n) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= n then fin := true
      else begin
        let c = if l + 1 < n && lt h (l + 1) h.keys.(l) h.tags.(l) then l + 1 else l in
        if lt h c k tag then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else fin := true
      end
    done;
    set h !i k tag
  end;
  (* Position [n] left the heap: it now lists the freed slot. *)
  h.tags.(n) <- top;
  h.vals.(top)

let min_key h = if h.size = 0 then max_int else h.keys.(0)

let get_u8 b i = Char.code (Bytes.get b i)
let get_u16 b i = (get_u8 b i lsl 8) lor get_u8 b (i + 1)
let get_u32 b i = (get_u16 b i lsl 16) lor get_u16 b (i + 2)
let set_u8 b i v = Bytes.set b i (Char.chr (v land 0xff))

let set_u16 b i v =
  set_u8 b i (v lsr 8);
  set_u8 b (i + 1) v

let set_u32 b i v =
  set_u16 b i (v lsr 16);
  set_u16 b (i + 2) v

let fold_carries s =
  let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
  go s

(* RFC 1071 with deferred carries, one big-endian 32-bit word per step:
   a word hi:lo is congruent to hi + lo modulo 0xffff, so the folded sum
   equals the 16-bit-word one. The 63-bit accumulator cannot overflow for
   any buffer that fits in memory. *)
let partial_sum ?(initial = 0) b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Wire_fmt.partial_sum";
  let s = ref initial in
  let i = ref off in
  let stop = off + len in
  while !i + 3 < stop do
    s := !s + (Int32.to_int (Bytes.get_int32_be b !i) land 0xffff_ffff);
    i := !i + 4
  done;
  if !i + 1 < stop then begin
    s := !s + Bytes.get_uint16_be b !i;
    i := !i + 2
  end;
  if !i < stop then s := !s + (Bytes.get_uint8 b !i lsl 8);
  fold_carries !s

let checksum ?initial b ~off ~len =
  lnot (partial_sum ?initial b ~off ~len) land 0xffff

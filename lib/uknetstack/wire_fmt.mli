(** Byte-level serialization helpers (big-endian, as on the wire) and the
    Internet checksum. *)

val get_u8 : bytes -> int -> int
val get_u16 : bytes -> int -> int
val get_u32 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit
val set_u16 : bytes -> int -> int -> unit
val set_u32 : bytes -> int -> int -> unit

val checksum : ?initial:int -> bytes -> off:int -> len:int -> int
(** RFC 1071 one's-complement sum, finalized (complemented, 16-bit).
    [initial] is a non-negative un-complemented partial sum (e.g. a
    pseudo-header). Raises [Invalid_argument] unless [off, off+len) lies
    within the buffer. *)

val partial_sum : ?initial:int -> bytes -> off:int -> len:int -> int
(** Un-finalized running sum, for pseudo-header composition. *)

val fold_carries : int -> int
(** End-around carry fold of a non-negative sum down to 16 bits. *)

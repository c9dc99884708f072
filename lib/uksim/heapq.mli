(** Mutable binary min-heap keyed by integer priority. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> int -> 'a -> unit
(** [push h key v] inserts [v] with priority [key] (smaller pops first).
    Insertion order breaks ties (FIFO among equal keys). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum entry. *)

val min_key : 'a t -> int
(** Key of the minimum entry, [max_int] when empty; allocates nothing. *)

val clear : 'a t -> unit

(** Mutable binary min-heap keyed by integer priority.

    Keys and insertion stamps live in [int array]s; each value is stored
    once, at push, in a slot of its own array, and sifting moves only
    ints. Neither {!push} nor {!take} allocates once the arrays have
    grown to the queue's high-water mark. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> int -> 'a -> unit
(** [push h key v] inserts [v] with priority [key] (smaller pops first).
    Insertion order breaks ties (FIFO among equal keys). An insertion
    stamp shares an int with the value's slot index, so a queue takes at
    most [2^62 / capacity] pushes in its life: 2^48 at a 16k-entry
    high-water mark.
    @raise Failure once that is exhausted. *)

val take : 'a t -> 'a
(** Remove the minimum entry and return its value; its key is
    {!min_key} read before the call. Allocates nothing.
    @raise Invalid_argument when empty. *)

val min_key : 'a t -> int
(** Key of the minimum entry, [max_int] when empty; allocates nothing. *)


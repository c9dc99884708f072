(** Online statistics and summaries for experiment reporting. *)

type t
(** An accumulating sample set (stores all observations).

    Samples live in one array: a prefix sorted by [Float.compare] (the
    order polymorphic [compare] gives floats), then the samples added
    since the last quantile query, in insertion order. A query sorts
    that tail with an unboxed merge sort and merges it into the prefix
    from the back, so the array holds exactly what re-sorting the whole
    history at each query would leave there, and the summaries see the
    same values in the same order.

    Cost: {!add} is amortised O(1). A quantile query after [k] new
    samples is O(k log k + moved), where [moved] counts the prefix
    samples above the smallest new one. Once the scratch buffer has
    grown to the largest tail seen, queries allocate nothing. *)

val create : unit -> t

val add : t -> float -> unit
(** Append a sample; the sorted prefix is left alone. *)

val count : t -> int

val clear : t -> unit
(** Drop all observations (per-trial reset); capacity is kept. *)

val mean : t -> float
(** Mean of the observations; [nan] when empty. *)

val min : t -> float
val max : t -> float
val stddev : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0,100\]] (clamped outside it), linear
    interpolation; [nan] when empty. Exact: every sample is kept.
    @raise Invalid_argument if [p] is NaN. *)

val median : t -> float

(** An exact running quantile for one fixed [p]: {!Running.get} after
    any sequence of {!Running.add}s returns, bit for bit, what
    {!percentile} [p] returns on a [t] holding the same samples (the
    same [Float.compare] order, clamp, rank and interpolation).

    Samples are split between two unboxed binary heaps around the rank,
    so {!Running.add} is O(log n) and {!Running.get} is O(1); neither
    allocates once the heaps have grown. Every sample is kept. *)
module Running : sig
  type t

  val create : float -> t
  (** [create p], [p] clamped to [\[0,100\]] as {!percentile} does.
      @raise Invalid_argument if [p] is NaN. *)

  val add : t -> float -> unit
  val count : t -> int

  val get : t -> float
  (** The [p]-th percentile of the samples so far; [nan] when empty. *)
end

val summary : t -> string
(** "n=…, mean=…, p50=…, p99=…, min=…, max=…" *)

(** {1 One-shot helpers} *)

val mean_of : float list -> float
val throughput_per_sec : events:int -> elapsed_ns:float -> float
(** Events per second of virtual time. *)

(** Online statistics used by the simulator's metric collection.

    {!Acc} keeps the running mean and maximum of a sample (transaction
    completion times).  {!Timeweighted} tracks the time-weighted
    average of a step function (free cache frames, frames blocked on
    the log, active transactions).  {!Busy} accumulates server busy
    time for utilization reports. *)

module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float
  (** 0 when empty. *)

  val max : t -> float
  (** @raise Invalid_argument when empty. *)
end

module Timeweighted : sig
  type t

  val create : ?t0:float -> unit -> t

  val update : t -> now:float -> level:float -> unit
  (** Record that the tracked quantity has value [level] from [now]
      onwards.  [now] must be monotonically non-decreasing. *)

  val level : t -> float
  (** Current level. *)

  val mean : t -> now:float -> float
  (** Time-weighted mean over [\[t0, now\]]; 0 over an empty interval. *)
end

module Histogram : sig
  (** Streaming quantile accumulator: a fixed-bucket log-scale (HDR
      style) histogram over non-negative samples.  Each power-of-two
      magnitude range is split into 64 linear sub-buckets, bounding the
      relative quantile error by ~0.8% at any magnitude; the first
      [exact_limit] samples are also retained raw, so quantiles over
      small samples are exact (matching {!percentile} bit for bit).
      Memory is a fixed ~6k-bucket array + the raw prefix, independent
      of sample count — the open-loop server records millions of
      latencies through one of these. *)

  type t

  val create : ?exact_limit:int -> unit -> t
  (** [exact_limit] (default 512) bounds the raw-sample prefix that
      makes small-sample quantiles exact. *)

  val add : t -> float -> unit
  (** Record one sample.  Negative samples land in the zero bucket
      (latencies cannot be negative; clamping beats raising mid-run).
      @raise Invalid_argument on NaN. *)

  val count : t -> int

  val total : t -> float

  val mean : t -> float
  (** 0 when empty. *)

  val max : t -> float
  (** Exact (not bucketed).  @raise Invalid_argument when empty. *)

  val percentile : t -> p:float -> float
  (** Quantile estimate ([p] in 0-100): exact while [count <=
      exact_limit], bucket-midpoint (≤ ~0.8% relative error) beyond,
      never exceeding the exact maximum.
      @raise Invalid_argument when empty or [p] outside [0,100]. *)

  val p50 : t -> float

  val p99 : t -> float

  val p999 : t -> float
  (** The 99.9th percentile — the tail the open-loop bench reports. *)

  val merge : t -> t -> t
  (** [merge a b] is a fresh histogram equivalent to one that recorded
      every sample of [a] and [b]: bucket counts add, count/total add,
      the maximum is exact, and quantiles match a union recording bit
      for bit (the merged [exact_limit] is the min of the inputs', so
      the exact small-sample path only fires while both raw prefixes
      were complete).  Neither input is modified. *)
end

val percentile : float list -> p:float -> float
(** [percentile xs ~p] is the [p]-th percentile (0-100) of the samples,
    by linear interpolation between order statistics.
    @raise Invalid_argument on an empty list or p outside [0,100]. *)

module Busy : sig
  type t

  val create : unit -> t

  val reset : t -> unit
  (** Zero the accumulated busy time (fresh-state reuse). *)

  val add_busy : t -> float -> unit
  (** Accumulate a busy interval of the given duration. *)

  val utilization : t -> elapsed:float -> servers:int -> float
  (** Accumulated busy time over [elapsed * servers], clamped to
      [\[0, 1\]]; 0 over an empty interval. *)
end

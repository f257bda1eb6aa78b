(** Bounded, domain-safe, single-flight string-keyed cache.

    The one memo table behind every compile-once, run-many reuse in the
    stack: compiled kernels ({!Taco_exec.Compile}), chosen plans
    ({!Taco_ir.Autoschedule}) and the per-operation kernels of
    [Taco_ops.Ops] and [Taco_graph.Graph].

    - {b Bounded.} The capacity is fixed at {!create}; inserting a new
      key into a full cache evicts the oldest key (FIFO). Replacing an
      entry keeps its position.
    - {b Locked.} The table and counters sit behind one mutex, so any
      number of domains may share an instance. Builds run outside it.
    - {b Single-flight.} While one domain builds a key, others asking
      for the same key wait for that build and take its result (a
      coalesced hit) instead of building it again. A build that returns
      [Error] or raises caches nothing and wakes its waiters, one of
      which then builds in turn. A build must not ask its own cache for
      its own key.

    Every lookup is counted exactly once, as a hit or a miss, in
    {!stats}, in the Trace counters [<name>.cache.hit] /
    [<name>.cache.miss] (plus [<name>.cache.evict] per eviction) and,
    when {!Metrics} is enabled, in the counters
    [taco_<name>_cache_hits_total] / [taco_<name>_cache_misses_total]
    and the gauge [taco_<name>_cache_size]. *)

type 'a t

type stats = {
  hits : int;  (** Lookups served from the table. *)
  misses : int;  (** Lookups that ran the build (one per build attempt). *)
  entries : int;
  evictions : int;
  coalesced : int;
      (** Hits that waited for a concurrent in-flight build of the same
          key instead of building it again (a subset of [hits]). *)
}

type outcome =
  | Hit
  | Coalesced  (** A hit that waited for another domain's build. *)
  | Miss  (** This call ran the build. *)

(** [create ~name ~capacity] — [name] labels the counters and metrics.
    Raises [Invalid_argument] on a non-positive capacity. *)
val create : name:string -> capacity:int -> 'a t

(** [find_or_build t ?valid key build] returns the entry under [key],
    or runs [build] and caches an [Ok] result under [key]. [valid]
    (default: always) is re-checked on every hit: an entry failing it
    counts as a miss and the fresh build replaces it. Exceptions from
    [build] propagate. *)
val find_or_build :
  'a t ->
  ?valid:('a -> bool) ->
  string ->
  (unit -> ('a, 'e) result) ->
  ('a * outcome, 'e) result

val stats : 'a t -> stats

(** Drop all entries and reset the counters. Builds in flight stay
    marked, so their waiters still pair up with their completion. *)
val clear : 'a t -> unit

(** A mutable array of [2^domain_bits] fixed-size buckets in one
    contiguous buffer: the working table {!Cuckoo} places records in, and
    what tests and benchmarks fill before sealing it with {!to_store}.

    No PIR answer reads a [Bucket_db]: servers scan pinned
    {!Lw_store.Snapshot}s ({!Server}). Fixed bucket size is load-bearing
    for privacy: every response has the same length no matter which
    record was fetched. *)

type t

val create : domain_bits:int -> bucket_size:int -> t
(** All buckets start zeroed (= empty). [domain_bits] in [1..26] keeps the
    buffer under [2^26 * bucket_size] bytes; [bucket_size] must be
    positive. *)

val domain_bits : t -> int
val size : t -> int
(** Number of buckets, [2^domain_bits]. *)

val bucket_size : t -> int
val total_bytes : t -> int

val set : t -> int -> string -> unit
(** [set db i data] writes [data] into bucket [i]; [data] shorter than the
    bucket is zero-padded, longer raises [Invalid_argument]. *)

val get : t -> int -> string
(** [get db i] is the full [bucket_size] contents of bucket [i]. *)

val is_empty : t -> int -> bool
(** [is_empty db i] is true when bucket [i] is all zeros. *)

val clear : t -> int -> unit

val fill_random : t -> Lw_util.Det_rng.t -> unit
(** Fill every bucket with deterministic pseudorandom bytes; used by the
    benchmarks, which only care about scan geometry, not contents. *)

val occupied : t -> int
(** Number of non-empty buckets (linear scan; for tests and stats). *)

val to_store : ?block_bytes:int -> t -> Lw_store.t
(** Seal the current contents as one epoch of a fresh epoch engine
    ([Lw_store.create] with the default hash key, [keep = 1] so the
    empty initial epoch is dropped at once, and [block_bytes] passed
    through). The store shares no bytes with [t]: later writes to [t]
    are not seen. Serve it with
    [Server.of_snapshot (Lw_store.current st)]. *)

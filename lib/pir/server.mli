(** The two-server PIR server side: per-request DPF evaluation plus the
    linear data scan (the two cost components the paper's §5.1
    microbenchmark separates: 64 ms DPF evaluation + 103 ms scan per GiB).

    A server is a {e slice} of one pinned {!Lw_store.Snapshot}: the
    aligned bucket range whose top bits equal a prefix. {!of_snapshot}
    serves the whole snapshot; {!slice} cuts a sub-range, and a frontend
    shard ([Lightweb.Zltp_frontend]) and a partition of a parallel answer
    are the same object. Slices are views: they copy nothing, and every
    kernel reads the snapshot's bytes (and feeds its access trace) in
    global bucket indices.

    The production path is the fused, blocked kernel: {!answer} consumes
    DPF leaf bits block-by-block against the matching database block as
    the traversal produces them, and {!answer_batch} packs up to 8
    queries' selection bits into one byte per bucket so a batch pays one
    streamed pass over the data per 8-query pack
    ({!Lw_util.Xorbuf.xor_buckets_packed}; a narrower pack pads its spare
    lanes with a zero-bit scratch accumulator).

    {!eval_bits} and {!scan} remain the seed's two-pass reference
    implementation: benchmarks (E1, E19) time its phases separately and
    the property tests assert the fused and batched kernels agree with it
    byte-for-byte. *)

type t

val of_snapshot : Lw_store.Snapshot.t -> t
(** Serve one pinned epoch of the versioned engine. The caller owns the
    pin: keep the snapshot pinned for as long as the server answers from
    it. *)

val slice : t -> levels:int -> prefix:int -> t
(** [slice t ~levels ~prefix] serves the [prefix]-th of the [2^levels]
    aligned sub-ranges of [t]: a server of [domain_bits t - levels] bits
    over the same snapshot. Keys for it are the client key rebased at that
    sub-range's tree node ([Lw_dpf.Distributed.split ~shard_bits:levels]).
    Raises [Invalid_argument] unless [0 <= levels < domain_bits t] and
    [0 <= prefix < 2^levels]. *)

val domain_bits : t -> int
val size : t -> int
val bucket_size : t -> int
val total_bytes : t -> int

val eval_bits : t -> Lw_dpf.Dpf.key -> Bytes.t
(** [eval_bits t k] is one byte (0/1) per bucket, in index order — the
    first pass of the reference path. Raises [Invalid_argument] if the
    key's domain differs from the database's. *)

val scan : t -> Bytes.t -> string
(** [scan t bits] XORs every bucket whose bit is set into a fresh
    accumulator of [bucket_size] bytes — the second pass of the reference
    path (scalar per-bucket masked kernel). *)

val answer : t -> Lw_dpf.Dpf.key -> string
(** One private-GET response share, via the fused single-pass kernel. *)

val answer_pair : t -> Lw_dpf.Dpf.key -> Lw_dpf.Dpf.key -> string * string
(** Both responses from ONE streamed pass over the data — the width-2
    fused kernel the keyword verb's two cuckoo probes ride: two DPF
    evaluations, a single memory traversal, each source word loaded once
    and masked into both accumulators. *)

val parallel_cutoff_bytes : int
(** Default work-size cutoff (1 MiB) of {!answer_batch}: below this a
    parallel answer would be all spawn/join overhead. *)

val answer_batch :
  ?cutoff_bytes:int -> ?domains:int -> t -> Lw_dpf.Dpf.key array -> string array
(** All responses for a batch; [answer_batch t [|k|]] is [[|answer t k|]]
    and a batch of two rides {!answer_pair}. Wider batches take one
    streamed pass over the data per 8 queries, selection bits bit-packed
    8 queries to the byte (a partial final pack runs the same kernel on
    fewer lanes).

    With [domains > 1] (default 1) and at least [cutoff_bytes] (default
    {!parallel_cutoff_bytes}) of data, the domain splits into the
    smallest power-of-two count [>= domains] of slices; every key is
    rebased once per slice, each slice runs the serial batch above on a
    worker ({!parallel_init}), and the per-slice shares XOR-reduce —
    byte-identical to the serial answer. Tests pass [~cutoff_bytes:0] to
    force the parallel path on small databases. *)

val parallel_init : domains:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init ~domains n f] is [Array.init n f] with the calls run
    by [min domains n] OCaml domains claiming indices from an atomic
    counter — the one Domain-parallel loop of the PIR path. All domains
    are joined before the first failure (in join order) is re-raised, so
    a raising task leaks no domain and no partial array. With
    [domains <= 1] it is [Array.init]. *)

val answer_partitioned : ?partitions:int -> t -> Lw_dpf.Dpf.key -> string
(** The slices of the parallel path on a serial schedule (ascending
    prefix order, no domains): the deterministic twin the obliviousness
    trace checker drives. [partitions] (default 2) rounds up to a power
    of two, clamped below the domain size. *)

val answer_partitioned_timed : ?partitions:int -> t -> Lw_dpf.Dpf.key -> string * float array
(** {!answer_partitioned} plus per-slice elapsed seconds (span clock).
    [max times] is the critical path an idle [partitions]-core machine
    would pay for the parallel answer — what bench E24 reports as the
    achievable speedup independent of this machine's core count. *)

val answer_serialized : t -> string -> (string, string) result
(** Wire-level entry point: deserialises the key, validates the domain,
    answers. *)

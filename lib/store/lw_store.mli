(** Epoch-versioned storage engine: immutable snapshots + copy-on-write
    writers over the PIR bucket array.

    Two-server PIR reconstruction is XOR over two servers' shares, so it
    is only correct when both servers scanned {e bit-identical}
    databases. Publishers, however, push updates continuously. This
    engine makes the two compatible by construction:

    - readers {!pin} an immutable {!Snapshot.t} of some epoch [e] and
      scan it for as long as they like — a snapshot's bytes never change;
    - a {!Writer.t} batches publisher mutations copy-on-write against the
      current epoch and publishes them atomically as epoch [e+1] via
      {!Writer.seal}.

    Storage is an array of fixed-size blocks (power-of-two runs of
    buckets sized to the [Xorbuf] streaming-block budget, 256 KiB by
    default). Sealing shares every untouched block with the previous
    epoch, so a 1%-churn epoch costs ~1% of a full database copy — the
    property bench E22 measures.

    Epoch lifetime is refcounted: an epoch is retired once no reader
    pins it {e and} it has aged out of the [keep] most recent epochs.
    The keep window (default 2: current + previous) is what lets a
    client that pinned an epoch for a multi-fetch page visit still be
    answered while the publisher seals the next epoch underneath it. *)

type t
(** The engine: a totally-ordered sequence of epochs over one logical
    bucket database. Publishing ([Writer.seal]) and pin bookkeeping are
    mutex-protected; reads of snapshot bytes are lock-free. *)

type store = t

type snapshot
type writer

val create :
  ?hash_key:string ->
  ?keep:int ->
  ?block_bytes:int ->
  ?initial_epoch:int ->
  domain_bits:int ->
  bucket_size:int ->
  unit ->
  t
(** Epoch 0 is the empty (all-zero) database. [hash_key] is the 16-byte
    SipHash keyword key ({!index_of_key}); [keep] (default 2, min 1) is
    how many most-recent epochs survive without pins; [block_bytes]
    (default [2^18]) bounds the CoW block size.

    [initial_epoch] (default 0, must be [>= 0]) numbers the initial
    empty epoch: a restarted fleet member that persisted a manifest at
    epoch [e] rebuilds as [create ~initial_epoch:(e - 1)] plus one seal,
    so its epoch counter rejoins the cluster's instead of restarting
    from zero. *)

val domain_bits : t -> int
val size : t -> int
val bucket_size : t -> int
val total_bytes : t -> int
val hash_key : t -> string

val index_of_key : t -> string -> int
(** Keyword-to-bucket placement, identical to [Lw_pir.Keymap] with the
    same [hash_key] — the snapshot carries its keymap with it. *)

val block_buckets : t -> int
(** Buckets per CoW block (a power of two that tiles the domain). *)

val block_bytes : t -> int
val n_blocks : t -> int

(** {2 Epoch lifecycle} *)

val current : t -> snapshot
(** Latest published snapshot, without taking a pin: safe to read (its
    bytes are immutable) but it may be retired under you once newer
    epochs publish — use {!pin_latest} for anything longer-lived than a
    single borrow. *)

val current_epoch : t -> int

val oldest_epoch : t -> int
(** Oldest still-live (pinned or kept) epoch. *)

val live_epochs : t -> int list
(** Live epochs, oldest first. *)

val pin_latest : t -> snapshot
(** Pin and return the current epoch. Pair with {!unpin}. *)

type pin_error =
  | Retired  (** the epoch aged out of the keep window with no pins *)
  | Ahead  (** the epoch has not been published here yet *)

val pin : t -> epoch:int -> (snapshot, pin_error) result
(** Pin a specific epoch — how a server answers "the queried epoch":
    [Error Retired] / [Error Ahead] map onto the wire's structured
    [err_epoch_retired] / [err_epoch_ahead]. *)

val unpin : t -> snapshot -> unit
(** Release one pin. Dropping the last pin of an epoch outside the keep
    window retires it. Unpinning an already-retired snapshot is a no-op. *)

val writer : t -> writer
(** Open a copy-on-write mutation batch against the current epoch. *)

(** {2 Tracing} (the obliviousness checker's hook)

    Every scan kernel records each bucket it streams, in order, with
    global bucket indices — so the trace of a [Lw_pir.Server] slice is
    the slice's range of the store's one walk. *)

val set_tracing : t -> bool -> unit
val access_trace : t -> int list

(** {2 Snapshots} *)

module Snapshot : sig
  type t = snapshot
  (** A frozen database at one epoch: bucket bytes + keyword placement.
      All accessors are lock-free and safe from any domain. *)

  val epoch : t -> int
  val store : t -> store
  val domain_bits : t -> int
  val size : t -> int
  val bucket_size : t -> int
  val total_bytes : t -> int
  val hash_key : t -> string
  val index_of_key : t -> string -> int

  val get : t -> int -> string
  (** Bucket [i]'s bytes (zero-padded to [bucket_size]). Recorded in the
      access trace when tracing is on. *)

  val is_empty : t -> int -> bool
  val occupied : t -> int

  (** The scan kernels — the only ones in the repository; every PIR
      answer reads through them. Every bucket a kernel streams is traced
      individually. *)

  val xor_bucket_into_masked : t -> int -> mask:int -> dst:Bytes.t -> unit
  (** XOR bucket [i], each byte ANDed with [mask land 0xff], into [dst]
      — the reference scan's step. A zero mask still reads the bucket. *)

  val xor_block_into_masked :
    t -> base:int -> count:int -> bits:Bytes.t -> bits_pos:int -> dst:Bytes.t -> unit
  (** Fused-scan block entry; the run may span CoW block boundaries and
      is split internally. *)

  val xor_block_into_masked2 :
    t ->
    base:int ->
    count:int ->
    bits0:Bytes.t ->
    bits0_pos:int ->
    bits1:Bytes.t ->
    bits1_pos:int ->
    dst0:Bytes.t ->
    dst1:Bytes.t ->
    unit
  (** Width-2 fused block entry (the two-probe keyword scan): one pass
      over the run feeds both accumulators; spans CoW blocks like
      {!xor_block_into_masked}. Each bucket is traced once. *)

  val xor_block_into_packed :
    t ->
    base:int ->
    count:int ->
    packs:Bytes.t ->
    packs_pos:int ->
    dsts:Bytes.t array ->
    unit
  (** Batch block entry: bucket [base + j] is XORed into the 8
      accumulators of [dsts], lane [q] masked by bit [q] of
      [packs.[packs_pos + j]]; spans CoW blocks like
      {!xor_block_into_masked}. Each bucket is traced once per call, so
      a batch visits every bucket once per 8-query pack. *)

  val set_tracing : t -> bool -> unit
  val access_trace : t -> int list

  val diff_ranges : t -> t -> (int * int) list
  (** [diff_ranges a b] is the [(base, count)] bucket ranges (ascending,
      coalesced) where the two epochs' block pointers differ — the exact
      set of buckets an incremental consumer (a cluster replica push) must
      re-copy. Physical comparison, so it is correct
      across any number of intervening epochs. Raises [Invalid_argument]
      if the snapshots belong to different stores. *)
end

(** {2 Writers} *)

module Writer : sig
  type t = writer
  (** A copy-on-write mutation batch against one base epoch. Writers are
      single-owner and not thread-safe; when several race, the first to
      seal wins and the others' [seal] raises. *)

  val base_epoch : t -> int

  val set : t -> int -> string -> unit
  (** Write bucket [i] (zero-padding to [bucket_size]); the first write
      into a CoW block pays that block's copy, later writes to the same
      block are free. Raises once the writer is sealed. *)

  val clear : t -> int -> unit

  val get : t -> int -> string
  (** Read-your-writes view of the batch (uncommitted). *)

  val is_empty : t -> int -> bool

  val mutations : t -> int
  val dirty_blocks : t -> int

  val cow_bytes : t -> int
  (** Bytes copied so far — the real cost of this epoch vs. the naive
      full-database rewrite ([total_bytes]). *)

  val seal : ?epoch:int -> t -> snapshot
  (** Atomically publish the batch as the next epoch and return its
      snapshot (unpinned). Raises [Invalid_argument] if another writer
      sealed since this one was opened (stale writer), or on double
      seal.

      [?epoch] publishes under an explicit epoch number (must exceed the
      base epoch) instead of [base + 1] — how a cluster shard that was
      offline for several epochs applies one combined catch-up diff and
      lands exactly on the fleet's current epoch. Epoch numbers in one
      store may therefore have gaps; pins and [diff_ranges] are
      unaffected (both work on live snapshots, not arithmetic). *)
end

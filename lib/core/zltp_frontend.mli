(** Sharded ZLTP data plane (§5.2): a front-end owns [2^shard_bits] data
    shards, each serving the slice of the bucket domain whose top bits
    equal its shard index. Per query, the front-end expands the top of the
    client's DPF tree, hands every shard its sub-tree root, and XORs the
    shard answers — so each shard pays only the small-domain evaluation
    cost, exactly the distribution argument the paper's Table 2 scale-up
    rests on.

    Shards are views, not copies: shard [i] is
    [Lw_pir.Server.slice ~levels:shard_bits ~prefix:i] of the
    {!Lw_store} snapshot that shard last refreshed to, and each shard
    holds its own pin on that snapshot. *)

type t

val of_store : Lw_store.t -> shard_bits:int -> t
(** Shard the current epoch of the versioned engine: every shard pins it.
    Raises [Invalid_argument] unless [0 < shard_bits < domain_bits]. *)

val refresh : ?abort_after:int -> t -> int
(** Move every shard that is not at the engine's current epoch onto it
    (pin the new epoch, re-slice, release the old pin) and return how
    many shards moved. No bytes are copied. [?abort_after n] (test/chaos
    hook) stops after moving [n] shards, leaving the rest pinned at their
    old epoch — the mixed-epoch state the [_result] answer paths refuse.
    A straggler's pin keeps its epoch live even after it ages out of the
    store's keep window; the following [refresh] moves it on and so
    releases the epoch. *)

val domain_bits : t -> int
val shard_bits : t -> int
val shard_count : t -> int
val bucket_size : t -> int

val shard_histograms : t -> Lw_obs.Metrics.histogram array
(** The per-shard answer-latency histograms
    ([zltp.frontend.shardNN.answer_seconds]), indexed by shard — what
    {!Lw_obs.Metrics.merge_into} folds into one fleet-wide view. *)

(** {2 Scan parallelism}

    Per-shard scans can run on OCaml domains
    ([Lw_pir.Server.answer_batch ~domains]); the knob applies to every
    answer path, and {!Lw_pir.Server.parallel_cutoff_bytes} keeps small
    shards on the serial kernel regardless. *)

val set_scan_domains : t -> int -> unit
(** Workers each shard's scan may use; 1 (the default) is the serial
    fused kernel. Raises [Invalid_argument] when [< 1]. *)

val scan_domains : t -> int

(** {2 Hierarchical fan-out tree}

    With a fanout set, single-key answers route through a tree of
    interior nodes, each splitting its incoming key once into
    [2^fanout_bits] sub-keys ({!Lw_dpf.Dpf.eval_prefixes} +
    {!Lw_dpf.Dpf.make_subkey}); leaves hand their sub-key to one data
    shard. A query thus reaches [N] shards with [O(log N)]-deep splits
    plus per-shard small-domain work instead of [N] full-domain
    evaluations, and the XOR of the leaf shares is bit-identical to the
    flat fan-out. Down-shard and mixed-epoch refusals are checked in the
    [_result] entry points before any walk, so they survive the tree
    unchanged. *)

val set_tree_fanout : t -> int option -> unit
(** [Some fanout_bits] builds (and routes answers through) the tree;
    [None] restores the flat split. Raises [Invalid_argument] when
    [fanout_bits < 1]. *)

val tree_fanout : t -> int option

val tree_depth : t -> int
(** Interior levels of the active tree ([ceil (shard_bits /
    fanout_bits)]); 0 without a tree. *)

val tree_nodes : t -> int
(** Total tree nodes including leaves; 0 without a tree. *)

(** {2 Shard epochs}

    Shares computed against different epochs XOR into silent garbage
    exactly like shares with a shard missing, so the [_result] answer
    paths refuse (structured error, [zltp.frontend.epoch_refusals]
    counter) unless every shard sits at the same epoch. *)

val epoch_agreed : t -> int option
(** [Some e] iff every shard serves epoch [e]. *)

val announced_epoch : t -> int
(** The highest shard epoch — what the server announces in [Welcome] /
    [Health_reply] (also the [zltp.frontend.epoch] gauge). *)

val get_bucket : t -> int -> string
(** [get_bucket t global_index] reads the bucket through the shard that
    owns it, at that shard's epoch (not private: for checks and tests). *)

(** {2 Shard health}

    An answer share is the XOR over {e every} shard's contribution, so a
    single unreachable shard makes the whole share silently wrong. The
    front-end therefore tracks per-shard availability and the
    [_result] answer paths refuse — with a structured error naming the
    down shards — rather than return a partial XOR. *)

val set_shard_down : t -> int -> bool -> unit
(** Mark shard [i] unreachable (or back up). Used operationally and by the
    chaos harness to inject backend degradation. *)

val shard_down : t -> int -> bool

val shards_down : t -> int
(** Number of shards currently marked down. *)

val answer_result : t -> Lw_dpf.Dpf.key -> (string, string) result
(** Like {!answer} but refuses with [Error] naming the down shards when
    any shard is unavailable. *)

val answer_batch_result :
  t -> Lw_dpf.Dpf.key array -> (string array, string) result

val answer : t -> Lw_dpf.Dpf.key -> string
(** Full private-GET answer share for a full-domain DPF key. *)

val answer_batch : t -> Lw_dpf.Dpf.key array -> string array
(** Batched private-GET: each shard receives the whole batch of its
    sub-keys and answers them through the bit-packed scan kernel
    ({!Lw_pir.Server.answer_batch}), so a batch pays one streamed pass
    over each shard's slice per 8 queries. When a fan-out tree is active
    ({!set_tree_fanout}), each key's sub-keys are derived through the
    hierarchical walk instead of the flat split — bit-identical leaves,
    so the shard batches are unchanged. [answer_batch t [|k|]] and
    [[|answer t k|]] agree byte-for-byte. *)

type shard_timing = { shard : int; eval_s : float; scan_s : float }

val answer_timed : t -> Lw_dpf.Dpf.key -> string * shard_timing list
(** Same, with per-shard eval/scan timings (read off the span clock, so
    virtual clocks make them deterministic) for E7. The sequential
    answer paths also feed the per-shard
    [zltp.frontend.shardNN.answer_seconds] histograms in {!Lw_obs}. *)

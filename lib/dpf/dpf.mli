(** Distributed point functions (Boyle–Gilboa–Ishai, CCS'16).

    A DPF for the point function [f_{α,v}] (value [v] at index [α] of a
    [2^d] domain, zero elsewhere) is a pair of keys. Each key alone reveals
    nothing about [α] or [v]; evaluations of the two keys XOR to
    [f_{α,v}]. Two-server PIR evaluates a key over the whole domain and
    XOR-accumulates database buckets where the share bit is set — the
    per-request linear scan the paper measures (§5.1).

    Selection-bit keys use BGI16's early termination: the GGM tree stops
    7 levels above the leaves, and each of its leaf seeds yields 128
    selection bits through one {!Prg.convert_block} call, corrected by one
    128-bit leaf correction word. A full-domain evaluation over [2^d]
    indices therefore costs about [2^(d-7)] tree expansions plus as many
    Converts, instead of [2^d - 1] expansions. Value-carrying keys keep
    one output per leaf seed, so their tree runs to full depth.

    Keys are [O(λ·d)] bytes: per tree level one 16-byte seed correction
    word plus two control bits, then the leaf correction word — 16 bytes
    for a selection-bit key, [value_len] bytes for a value-carrying one. *)

type key

(** {2 Key generation} *)

val gen :
  ?prg:Prg.t ->
  ?value:string ->
  domain_bits:int ->
  alpha:int ->
  Lw_crypto.Drbg.t ->
  key * key
(** [gen ~domain_bits ~alpha rng] produces the two key shares for the
    selection-bit point function at [alpha]; with [?value], evaluations
    carry XOR shares of [value] at [alpha]. [domain_bits] must be in
    [1..30] and [alpha] in [[0, 2^domain_bits)]. *)

(** {2 Accessors} *)

val party : key -> int
val domain_bits : key -> int
val value_len : key -> int
val prg : key -> Prg.t

(** {2 Evaluation} *)

val eval_bit : key -> int -> int
(** [eval_bit k x] is this party's share bit at index [x]; the two
    parties' bits XOR to [1] iff [x = alpha]. *)

val eval_value : key -> int -> string
(** [eval_value k x] is this party's [value_len]-byte share at [x].
    Raises [Invalid_argument] for a selection-bit key. *)

val eval_all_bits : key -> (int -> int -> unit) -> unit
(** [eval_all_bits k f] calls [f x bit] for every [x] in domain order.
    A selection-bit key costs ~3 PRG calls per 128 indices (depth-first
    tree expansion plus one Convert per leaf seed); a value-carrying key
    ~2 per index. *)

val eval_bits_blocked : key -> block_bits:int -> (int -> Bytes.t -> int -> unit) -> unit
(** [eval_bits_blocked k ~block_bits f] streams the full-domain evaluation
    in blocks of [2^block_bits] leaves: [f base buf count] is called once
    per block, in domain order, with [buf.[j]] the selection bit (0/1
    byte) of leaf [base + j] for [j < count]. The same block-sized scratch
    buffer is reused across calls — valid only during the callback — so a
    full-domain pass allocates [2^block_bits] bytes instead of
    [2^domain_bits]. [block_bits] must lie in [0..domain_bits]; below 7 a
    block is a window of one leaf word, so one Convert feeds several
    callbacks. *)

val eval_all_seeds : key -> (int -> int -> Bytes.t -> int -> unit) -> unit
(** [eval_all_seeds k f] calls [f x bit seed_buf pos] with the 16-byte leaf
    seed at [pos] in [seed_buf] (valid only during the callback); callers
    convert seeds to value shares with {!Prg.convert} when needed. Only
    value-carrying keys have one seed per index: raises
    [Invalid_argument] for a selection-bit key. *)

val selected_indices : key -> int list
(** [selected_indices k] lists the indices where this share's bit is 1 —
    handy in tests; roughly half the domain. *)

(** {2 Serialisation} *)

val serialize : key -> string
(** Version-2 layout: an 11-byte header (magic, version, party, root
    control bit, PRG tag, [domain_bits], leaf-word bit offset, 4-byte
    [value_len]), the 16-byte root seed, per tree level a 16-byte seed
    correction word, per tree level one control-bit byte, then the leaf
    correction word. *)

val deserialize : string -> (key, string) result
(** Structural validation only: a syntactically valid key that was never
    produced by {!gen} still evaluates (to garbage shares) — privacy, not
    integrity, is the DPF's contract. Version-1 (full-depth) keys are
    rejected as ["unsupported version"]. *)

val serialized_size : domain_bits:int -> value_len:int -> int
(** Exact byte size of {!serialize} output for the given shape. *)

val paper_key_size : domain_bits:int -> int
(** The paper's "(λ+2)·d" key-size arithmetic (§5.1), interpreted — as the
    paper's own totals require — in bytes with λ = 128: used by the
    cost-model reproduction of the communication rows. *)

(** {2 Internal hooks for [Distributed]} *)

val make_subkey :
  ?prefix:int -> key -> root_seed:Bytes.t -> root_pos:int -> root_t:int -> levels:int -> key
(** [make_subkey ~prefix k ~root_seed ~root_pos ~root_t ~levels] rebases
    [k] at the node [prefix] (default 0) [levels] deep, whose seed and
    control bit {!eval_prefixes} reported: the result is a valid key over
    the remaining [domain_bits k - levels] bits. Past the tree's depth
    the node is a window of a leaf word, and [prefix]'s low bits pick
    which window; above it [prefix] is ignored. *)

val eval_prefixes : key -> levels:int -> (int -> int -> Bytes.t -> int -> unit) -> unit
(** [eval_prefixes k ~levels f] expands only the top [levels] levels,
    calling [f prefix t seed_buf pos] for each of the [2^levels] nodes in
    order. Past the tree's depth every prefix under one leaf seed is
    reported with that leaf's seed and control bit. *)

(** Fast XOR over byte buffers.

    The PIR data scan is dominated by XOR-accumulating fixed-size buckets
    into a response buffer, so these loops work 64 bits at a time. All
    functions validate their ranges once up front and then run unchecked
    word loops.

    The three scan kernels ({!xor_buckets_masked}, {!xor_buckets_masked2},
    {!xor_buckets_packed}) are register-blocked: they fold a block of
    buckets (four, four and two) into each accumulator word in registers,
    so an accumulator word is read and written once per block rather than
    once per bucket. Selection bits become all-zero or all-one word masks
    arithmetically; every source word is loaded and every accumulator
    word rewritten whatever the bits, so a scan's memory trace does not
    depend on the selection.

    [xor_into_masked] deliberately keeps the checked accessors of the
    seed implementation: it is the reference kernel the scan kernels are
    benchmarked (E19) and property-tested against. *)

val xor_into : src:Bytes.t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit
(** [xor_into ~src ~src_pos ~dst ~dst_pos ~len] XORs [len] bytes of [src]
    (from [src_pos]) into [dst] (at [dst_pos]). Bounds are checked once up
    front; raises [Invalid_argument] when a range is out of bounds
    (including [pos + len] overflowing the integer range). *)

val xor_into_masked :
  mask:int -> src:Bytes.t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit
(** Like {!xor_into}, but each source byte is ANDed with [mask land 0xff]
    first. Mask [0x00] still performs the full read-modify-write of [dst],
    so selecting buckets by mask (instead of skipping them with a branch)
    keeps a scan's memory trace independent of the selection bits. *)

val xor_buckets_masked :
  bits:Bytes.t ->
  bits_pos:int ->
  count:int ->
  src:Bytes.t ->
  src_pos:int ->
  bucket:int ->
  dst:Bytes.t ->
  unit
(** [xor_buckets_masked ~bits ~bits_pos ~count ~src ~src_pos ~bucket ~dst]
    is the width-1 scan kernel: for each [j < count], XOR the
    [bucket]-byte record at [src_pos + j*bucket] into [dst] under the mask
    splatted from the low bit of selection byte [bits.[bits_pos + j]].
    Records are folded four per pass, so each word of [dst] is read and
    written once per four records. One bounds gate covers the whole
    block. Raises [Invalid_argument] on a non-positive [bucket], a
    negative [count] or any out-of-bounds range. *)

val xor_buckets_masked2 :
  bits0:Bytes.t ->
  bits0_pos:int ->
  bits1:Bytes.t ->
  bits1_pos:int ->
  count:int ->
  src:Bytes.t ->
  src_pos:int ->
  bucket:int ->
  dst0:Bytes.t ->
  dst1:Bytes.t ->
  unit
(** Width-2 variant of {!xor_buckets_masked}, the two-probe keyword
    shape: record [j] is masked into [dst0] by the low bit of
    [bits0.[bits0_pos + j]] and into [dst1] by that of
    [bits1.[bits1_pos + j]]. Four records per pass; both lanes fold the
    same source loads. *)

val xor_buckets_packed :
  packs:Bytes.t ->
  packs_pos:int ->
  count:int ->
  src:Bytes.t ->
  src_pos:int ->
  bucket:int ->
  dsts:Bytes.t array ->
  unit
(** [xor_buckets_packed ~packs ~packs_pos ~count ~src ~src_pos ~bucket
    ~dsts] is the batch kernel: record [j] is XORed into lane [q]'s
    accumulator [dsts.(q)] under the mask splatted from bit [q] of pack
    byte [packs.[packs_pos + j]]. [dsts] holds exactly 8 buffers; a batch
    of fewer queries pads its spare lanes with a scratch buffer whose
    pack bits are zero. Records are folded two per pass. Raises
    [Invalid_argument] unless [dsts] has 8 lanes, and on any bad geometry
    or out-of-bounds range. *)

val xor_string_into : src:string -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit
(** Same as {!xor_into} with an immutable source. *)

val xor : string -> string -> string
(** [xor a b] is the bytewise XOR of two equal-length strings. Raises
    [Invalid_argument] if lengths differ. *)

val is_zero_range : Bytes.t -> pos:int -> len:int -> bool
(** [is_zero_range b ~pos ~len] is true iff bytes [pos..pos+len) of [b]
    are all ['\x00']. Scans 64-bit words with a byte tail. *)

val is_zero : string -> bool
(** [is_zero s] is true iff every byte of [s] is ['\x00']. Scans 64-bit
    words with a byte tail. *)

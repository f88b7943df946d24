(* The epoch-versioned storage engine.

   Two-server PIR is only correct when both servers scan bit-identical
   databases, yet publishers keep pushing updates. The engine resolves
   the tension by never mutating a published database: readers pin an
   immutable [Snapshot] of some epoch [e] and scan it for as long as
   they like, while a [Writer] batches mutations copy-on-write and
   publishes them as epoch [e+1] with one atomic [seal].

   Storage is an array of fixed-size blocks (a power-of-two run of
   buckets sized to the Xorbuf streaming-block budget). Sealing shares
   every block the writer did not touch with the previous epoch, so an
   epoch that changed 1% of the buckets costs ~1% of a full copy — the
   block arrays differ only where publishers actually wrote.

   Epoch lifetime is refcounted: [pin]/[pin_latest] take a reference,
   [unpin] releases it, and an epoch is retired (its private blocks
   dropped) once nobody pins it and it has aged out of the small keep
   window that lets briefly-behind clients still be answered. *)

(* Block budget mirrors the fused scan kernel's streaming block
   ([Lw_pir.Server.block_bytes]): CoW granularity and scan granularity
   describe the same slice of the database. *)
let default_block_bytes = 1 lsl 18
let max_domain_bits = 26
let default_hash_key = String.sub (Lw_crypto.Sha256.digest "lw-pir-store-default") 0 16

type trace = { mutable on : bool; mutable rev : int list }

type snapshot = { epoch : int; blocks : Bytes.t array; store : t }

and entry = { snap : snapshot; mutable pins : int }

and t = {
  domain_bits : int;
  bucket_size : int;
  hash_key : string;
  block_bits : int; (* log2 of buckets per block *)
  keep : int;
  lock : Mutex.t;
  mutable entries : entry list; (* newest epoch first; head is current *)
  trace : trace;
}

type store = t

let m_sealed = Lw_obs.Metrics.counter "store.epochs_sealed"
let m_cow_bytes = Lw_obs.Metrics.counter "store.cow_bytes"
let g_live = Lw_obs.Metrics.gauge "store.live_epochs"
let g_pins = Lw_obs.Metrics.gauge "store.pinned_readers"

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let domain_bits t = t.domain_bits
let size t = 1 lsl t.domain_bits
let bucket_size t = t.bucket_size
let hash_key t = t.hash_key
let total_bytes t = size t * t.bucket_size
let block_buckets t = 1 lsl t.block_bits
let n_blocks t = size t lsr t.block_bits
let block_bytes t = block_buckets t * t.bucket_size

let index_of_key t key =
  Lw_crypto.Siphash.to_domain ~key:t.hash_key ~domain_bits:t.domain_bits key

let create ?(hash_key = default_hash_key) ?(keep = 2) ?(block_bytes = default_block_bytes)
    ?(initial_epoch = 0) ~domain_bits ~bucket_size () =
  if domain_bits < 1 || domain_bits > max_domain_bits then
    invalid_arg "Lw_store.create: domain_bits out of range";
  if bucket_size <= 0 then invalid_arg "Lw_store.create: bucket_size must be positive";
  if String.length hash_key <> 16 then invalid_arg "Lw_store.create: hash_key must be 16 bytes";
  if keep < 1 then invalid_arg "Lw_store.create: keep must be >= 1";
  if block_bytes < 1 then invalid_arg "Lw_store.create: block_bytes must be positive";
  if initial_epoch < 0 then invalid_arg "Lw_store.create: initial_epoch must be >= 0";
  let size = 1 lsl domain_bits in
  (* largest power-of-two bucket run that fits the block budget, clamped
     to [1, size] so blocks always tile the domain exactly *)
  let rec fit b =
    if 1 lsl (b + 1) > size then b
    else if (1 lsl (b + 1)) * bucket_size > block_bytes then b
    else fit (b + 1)
  in
  let block_bits = fit 0 in
  let t =
    {
      domain_bits;
      bucket_size;
      hash_key;
      block_bits;
      keep;
      lock = Mutex.create ();
      entries = [];
      trace = { on = false; rev = [] };
    }
  in
  let blocks =
    Array.init (size lsr block_bits) (fun _ ->
        Bytes.make ((1 lsl block_bits) * bucket_size) '\x00')
  in
  t.entries <- [ { snap = { epoch = initial_epoch; blocks; store = t }; pins = 0 } ];
  t

let current_entry t = match t.entries with e :: _ -> e | [] -> assert false

(* Retirement, under the lock: an epoch survives while someone pins it
   or while it is within the [keep] most recent epochs (current
   included) — the window that lets a client one epoch behind still be
   answered instead of bounced straight to a re-sync. *)
let retire_locked t =
  let cur = (current_entry t).snap.epoch in
  t.entries <- List.filter (fun e -> e.pins > 0 || e.snap.epoch > cur - t.keep) t.entries;
  Lw_obs.Metrics.set g_live (float_of_int (List.length t.entries))

let current t = with_lock t (fun () -> (current_entry t).snap)
let current_epoch t = (current t).epoch

let oldest_epoch t =
  with_lock t (fun () ->
      List.fold_left (fun acc e -> min acc e.snap.epoch) max_int t.entries)

let live_epochs t =
  with_lock t (fun () -> List.rev_map (fun e -> e.snap.epoch) t.entries)

let total_pins_locked t = List.fold_left (fun acc e -> acc + e.pins) 0 t.entries

let pin_latest t =
  with_lock t (fun () ->
      let e = current_entry t in
      e.pins <- e.pins + 1;
      Lw_obs.Metrics.set g_pins (float_of_int (total_pins_locked t));
      e.snap)

type pin_error = Retired | Ahead

let pin t ~epoch =
  with_lock t (fun () ->
      match List.find_opt (fun e -> e.snap.epoch = epoch) t.entries with
      | Some e ->
          e.pins <- e.pins + 1;
          Lw_obs.Metrics.set g_pins (float_of_int (total_pins_locked t));
          Ok e.snap
      | None -> if epoch > (current_entry t).snap.epoch then Error Ahead else Error Retired)

let unpin t snap =
  with_lock t (fun () ->
      match List.find_opt (fun e -> e.snap.epoch = snap.epoch) t.entries with
      | None -> () (* epoch already retired; double-unpin is harmless *)
      | Some e ->
          if e.pins > 0 then e.pins <- e.pins - 1;
          Lw_obs.Metrics.set g_pins (float_of_int (total_pins_locked t));
          if e.pins = 0 then retire_locked t)

let set_tracing t on =
  t.trace.on <- on;
  t.trace.rev <- []

let access_trace t = List.rev t.trace.rev

module Snapshot = struct
  type nonrec t = snapshot

  let epoch s = s.epoch
  let store s = s.store
  let domain_bits s = s.store.domain_bits
  let size s = 1 lsl s.store.domain_bits
  let bucket_size s = s.store.bucket_size
  let total_bytes s = size s * bucket_size s
  let hash_key s = s.store.hash_key
  let index_of_key s key = index_of_key s.store key

  let check_index s i =
    if i < 0 || i >= size s then invalid_arg "Lw_store.Snapshot: index out of range"

  let record s i = if s.store.trace.on then s.store.trace.rev <- i :: s.store.trace.rev
  let locate s i = (i lsr s.store.block_bits, i land ((1 lsl s.store.block_bits) - 1))

  let get s i =
    check_index s i;
    record s i;
    let b, local = locate s i in
    Bytes.sub_string s.blocks.(b) (local * s.store.bucket_size) s.store.bucket_size

  let is_empty s i =
    check_index s i;
    let b, local = locate s i in
    Lw_util.Xorbuf.is_zero_range s.blocks.(b) ~pos:(local * s.store.bucket_size)
      ~len:s.store.bucket_size

  let xor_bucket_into_masked s i ~mask ~dst =
    check_index s i;
    record s i;
    let b, local = locate s i in
    Lw_util.Xorbuf.xor_into_masked ~mask ~src:s.blocks.(b)
      ~src_pos:(local * s.store.bucket_size) ~dst ~dst_pos:0 ~len:s.store.bucket_size

  (* Block scan entries: the requested [base, base+count) run may span
     several CoW blocks. [iter_runs] splits it into per-block runs and
     hands each to [f] as [off run src src_pos] ([off] is the run's
     offset into the caller's selection bytes). Tracing stays
     bucket-granular, so the obliviousness checker observes the same
     per-bucket sequence as the scalar reference kernel produces. *)
  let iter_runs s ~base ~count f =
    if count < 0 || base < 0 || base > size s - count then
      invalid_arg "Lw_store.Snapshot: block out of range";
    if s.store.trace.on then
      for j = 0 to count - 1 do
        s.store.trace.rev <- (base + j) :: s.store.trace.rev
      done;
    let bb = 1 lsl s.store.block_bits in
    let off = ref 0 in
    while !off < count do
      let i = base + !off in
      let local = i land (bb - 1) in
      let run = min (count - !off) (bb - local) in
      f !off run s.blocks.(i lsr s.store.block_bits) (local * s.store.bucket_size);
      off := !off + run
    done

  let xor_block_into_masked s ~base ~count ~bits ~bits_pos ~dst =
    iter_runs s ~base ~count (fun off run src src_pos ->
        Lw_util.Xorbuf.xor_buckets_masked ~bits ~bits_pos:(bits_pos + off) ~count:run ~src
          ~src_pos ~bucket:s.store.bucket_size ~dst)

  let xor_block_into_masked2 s ~base ~count ~bits0 ~bits0_pos ~bits1 ~bits1_pos ~dst0 ~dst1 =
    iter_runs s ~base ~count (fun off run src src_pos ->
        Lw_util.Xorbuf.xor_buckets_masked2 ~bits0 ~bits0_pos:(bits0_pos + off) ~bits1
          ~bits1_pos:(bits1_pos + off) ~count:run ~src ~src_pos ~bucket:s.store.bucket_size ~dst0
          ~dst1)

  let xor_block_into_packed s ~base ~count ~packs ~packs_pos ~dsts =
    iter_runs s ~base ~count (fun off run src src_pos ->
        Lw_util.Xorbuf.xor_buckets_packed ~packs ~packs_pos:(packs_pos + off) ~count:run ~src
          ~src_pos ~bucket:s.store.bucket_size ~dsts)

  let set_tracing s on = set_tracing s.store on
  let access_trace s = access_trace s.store

  (* Physical block diff: snapshots of one engine share untouched blocks,
     so two epochs differ exactly where the block pointers differ. Always
     correct regardless of how many epochs (retired or not) lie between
     the two — retirement never resurrects a shared block. *)
  let diff_ranges a b =
    if a.store != b.store then invalid_arg "Lw_store.Snapshot.diff_ranges: different stores";
    let bb = 1 lsl a.store.block_bits in
    let ranges = ref [] in
    Array.iteri
      (fun blk ab ->
        if ab != b.blocks.(blk) then begin
          let base = blk * bb in
          match !ranges with
          | (rb, rc) :: rest when rb + rc = base -> ranges := (rb, rc + bb) :: rest
          | _ -> ranges := (base, bb) :: !ranges
        end)
      a.blocks;
    List.rev !ranges

  let occupied s =
    let n = ref 0 in
    for i = 0 to size s - 1 do
      if not (is_empty s i) then incr n
    done;
    !n
end

module Writer = struct
  type writer = {
    store : t;
    base_epoch : int;
    blocks : Bytes.t array;
    dirty : bool array;
    mutable cow_bytes : int;
    mutable mutations : int;
    mutable sealed : bool;
  }

  type nonrec t = writer

  let base_epoch w = w.base_epoch
  let cow_bytes w = w.cow_bytes
  let mutations w = w.mutations

  let dirty_blocks w =
    let n = ref 0 in
    Array.iter (fun d -> if d then incr n) w.dirty;
    !n

  let check_open w =
    if w.sealed then invalid_arg "Lw_store.Writer: writer already sealed"

  let check_index w i =
    if i < 0 || i >= size w.store then invalid_arg "Lw_store.Writer: index out of range"

  (* First touch of a block pays the copy; every later write to the same
     block is free. This is the entire CoW cost of an epoch. *)
  let touch w b =
    if not w.dirty.(b) then begin
      w.blocks.(b) <- Bytes.copy w.blocks.(b);
      w.dirty.(b) <- true;
      w.cow_bytes <- w.cow_bytes + Bytes.length w.blocks.(b)
    end

  let locate w i = (i lsr w.store.block_bits, i land ((1 lsl w.store.block_bits) - 1))

  let set w i data =
    check_open w;
    check_index w i;
    if String.length data > w.store.bucket_size then
      invalid_arg "Lw_store.Writer.set: data exceeds bucket";
    let b, local = locate w i in
    touch w b;
    let off = local * w.store.bucket_size in
    Bytes.fill w.blocks.(b) off w.store.bucket_size '\x00';
    Bytes.blit_string data 0 w.blocks.(b) off (String.length data);
    w.mutations <- w.mutations + 1

  let clear w i =
    check_open w;
    check_index w i;
    let b, local = locate w i in
    touch w b;
    Bytes.fill w.blocks.(b) (local * w.store.bucket_size) w.store.bucket_size '\x00';
    w.mutations <- w.mutations + 1

  (* Read-your-writes: publisher code validates against the in-progress
     batch (collision checks, overwrite detection) before sealing. *)
  let get w i =
    check_index w i;
    let b, local = locate w i in
    Bytes.sub_string w.blocks.(b) (local * w.store.bucket_size) w.store.bucket_size

  let is_empty w i =
    check_index w i;
    let b, local = locate w i in
    Lw_util.Xorbuf.is_zero_range w.blocks.(b) ~pos:(local * w.store.bucket_size)
      ~len:w.store.bucket_size

  let seal ?epoch w =
    check_open w;
    let t = w.store in
    let next = match epoch with None -> w.base_epoch + 1 | Some e -> e in
    if next <= w.base_epoch then
      invalid_arg "Lw_store.Writer.seal: epoch must exceed the base epoch";
    with_lock t (fun () ->
        let cur = current_entry t in
        if cur.snap.epoch <> w.base_epoch then
          invalid_arg "Lw_store.Writer.seal: stale writer (another epoch was sealed)";
        w.sealed <- true;
        (* the writer's block array becomes the new epoch verbatim:
           untouched slots still point at the previous epoch's blocks *)
        let snap = { epoch = next; blocks = w.blocks; store = t } in
        t.entries <- { snap; pins = 0 } :: t.entries;
        retire_locked t;
        Lw_obs.Metrics.incr m_sealed;
        Lw_obs.Metrics.add m_cow_bytes w.cow_bytes;
        snap)
end

type writer = Writer.t

let writer t =
  with_lock t (fun () ->
      let cur = current_entry t in
      {
        Writer.store = t;
        base_epoch = cur.snap.epoch;
        blocks = Array.copy cur.snap.blocks;
        dirty = Array.make (n_blocks t) false;
        cow_bytes = 0;
        mutations = 0;
        sealed = false;
      })

(* A server answers over one slice of one pinned [Lw_store] snapshot: the
   aligned bucket range [base, base + 2^domain_bits). A whole snapshot is
   the slice at base 0; a frontend shard and a parallel partition are the
   same object, cut by [slice]. Every kernel call adds [base] and goes to
   the snapshot's scan kernels, so a slice's memory trace is its range of
   the snapshot's one walk, in global bucket indices. *)

type t = { snap : Lw_store.Snapshot.t; base : int; domain_bits : int }

let of_snapshot snap = { snap; base = 0; domain_bits = Lw_store.Snapshot.domain_bits snap }

let slice t ~levels ~prefix =
  if levels < 0 || levels >= t.domain_bits then invalid_arg "Server.slice: levels out of range";
  if prefix < 0 || prefix >= 1 lsl levels then invalid_arg "Server.slice: prefix out of range";
  let domain_bits = t.domain_bits - levels in
  { t with base = t.base + (prefix lsl domain_bits); domain_bits }

let domain_bits t = t.domain_bits
let size t = 1 lsl t.domain_bits
let bucket_size t = Lw_store.Snapshot.bucket_size t.snap
let total_bytes t = size t * bucket_size t

let check_domain t k =
  if Lw_dpf.Dpf.domain_bits k <> t.domain_bits then
    invalid_arg "Server: key domain does not match database"

(* Reference two-pass path: materialise one selection byte per bucket,
   then walk the database a second time. Kept (unchanged from the seed,
   checked-word kernel included) as the baseline the fused and batched
   kernels are benchmarked (E19) and property-tested against, and so E1
   can time the DPF and scan phases separately. *)

let eval_bits t k =
  check_domain t k;
  let bits = Bytes.create (size t) in
  Lw_dpf.Dpf.eval_all_bits k (fun i b -> Bytes.unsafe_set bits i (Char.unsafe_chr b));
  bits

(* Every bucket is visited with identical work: the selection bit becomes
   a byte mask (0x00/0xff) arithmetically, never a branch, so the scan's
   memory trace is the full [0..size) walk no matter which key share the
   query carries. Lint rule [secret-branch] and the dynamic checker in
   [Lw_analysis.Trace_check] both watch this property. *)
let mask_of_bit b = (0 - (b land 1)) land 0xff

let scan t bits =
  let acc = Bytes.make (bucket_size t) '\x00' in
  for i = 0 to size t - 1 do
    let mask = mask_of_bit (Char.code (Bytes.unsafe_get bits i)) in
    Lw_store.Snapshot.xor_bucket_into_masked t.snap (t.base + i) ~mask ~dst:acc
  done;
  Bytes.unsafe_to_string acc

(* ------------------------------------------------------------------ *)
(* The fused, blocked kernels — the only production scan path          *)
(* ------------------------------------------------------------------ *)

(* Cache budget for one streamed block of database: big enough to
   amortise per-block overheads, small enough that a block and the
   accumulators it feeds stay resident while a batch's packs revisit it.
   Matches [Lw_store]'s CoW block budget, so a fused-scan block never
   spans more than two CoW blocks of a snapshot. *)
let block_bytes = 1 lsl 18

let block_bits_for t =
  let bucket = bucket_size t in
  let d = domain_bits t in
  let rec fit b = if b >= d || (1 lsl (b + 1)) * bucket > block_bytes then b else fit (b + 1) in
  fit 0

(* Registry counters: one increment + one add per answer, so the fused
   scan stays within the E21 overhead budget (<2%). *)
let m_answers = Lw_obs.Metrics.counter "pir.server.answers"
let m_batches = Lw_obs.Metrics.counter "pir.server.batch_answers"
let m_scan_bytes = Lw_obs.Metrics.counter "pir.server.scan_bytes"
let m_parallel = Lw_obs.Metrics.counter "pir.server.parallel_answers"

(* One answering pass over [t] for [n] keys: a batch of two or more
   counts as one batch answer and streams the data once per 8-query
   pack. The uncounted kernels below are shared by the serial entry
   points and by every partition of a parallel answer, which is counted
   once, here, by its caller. *)
let count_pass t n =
  if n >= 2 then Lw_obs.Metrics.incr m_batches;
  Lw_obs.Metrics.add m_answers n;
  Lw_obs.Metrics.add m_scan_bytes ((n + 7) / 8 * total_bytes t)

(* Eval↔scan fusion: each block of DPF leaf bits is XOR-consumed against
   the matching database block the moment the traversal produces it — no
   full-domain bits buffer, one pass over the data, per-block bounds
   checks instead of per-bucket ones. *)
let fused t k =
  let acc = Bytes.make (bucket_size t) '\x00' in
  Lw_dpf.Dpf.eval_bits_blocked k ~block_bits:(block_bits_for t) (fun base bits count ->
      Lw_store.Snapshot.xor_block_into_masked t.snap ~base:(t.base + base) ~count ~bits
        ~bits_pos:0 ~dst:acc);
  Bytes.unsafe_to_string acc

(* Width-2 fusion — the keyword verb's two-probe shape and every batch of
   exactly two queries: key 1's bits are materialised blockwise into a
   full-domain buffer (blit, no per-leaf closure), then key 0's blocked
   traversal drives ONE pass over the data feeding both accumulators
   ([xor_block_into_masked2] loads each source word once). The pair costs
   two DPF evaluations plus a single memory traversal, without the 8-lane
   packed kernel's six idle scratch lanes. *)
let fused_pair t k0 k1 =
  let block_bits = block_bits_for t in
  let bits1 = Bytes.create (size t) in
  Lw_dpf.Dpf.eval_bits_blocked k1 ~block_bits (fun base buf count ->
      Bytes.blit buf 0 bits1 base count);
  let acc0 = Bytes.make (bucket_size t) '\x00' in
  let acc1 = Bytes.make (bucket_size t) '\x00' in
  Lw_dpf.Dpf.eval_bits_blocked k0 ~block_bits (fun base bits count ->
      Lw_store.Snapshot.xor_block_into_masked2 t.snap ~base:(t.base + base) ~count ~bits0:bits
        ~bits0_pos:0 ~bits1 ~bits1_pos:base ~dst0:acc0 ~dst1:acc1);
  (Bytes.unsafe_to_string acc0, Bytes.unsafe_to_string acc1)

(* OR one key's selection bytes (0/1 each) into lane [bit] of the packed
   bytes at [dst_pos]. A 0/1 byte shifted left by < 8 never crosses into
   its neighbour, so whole 64-bit words are packed at once. *)
let pack_lane ~bits ~count ~bit ~dst ~dst_pos =
  let words = count lsr 3 in
  for w = 0 to words - 1 do
    let i = 8 * w in
    Bytes.set_int64_le dst (dst_pos + i)
      (Int64.logor
         (Bytes.get_int64_le dst (dst_pos + i))
         (Int64.shift_left (Bytes.get_int64_le bits i) bit))
  done;
  for i = 8 * words to count - 1 do
    let cur = Char.code (Bytes.unsafe_get dst (dst_pos + i)) in
    Bytes.unsafe_set dst (dst_pos + i)
      (Char.unsafe_chr (cur lor ((Char.code (Bytes.unsafe_get bits i) land 1) lsl bit)))
  done

(* Bit-packed batching: up to 8 queries' selection bits share one byte
   per bucket, and the scan streams each database block once per pack,
   feeding the pack's 8 accumulators from the same resident bytes
   through the 8-lane block kernel. A pack of fewer than 8 queries fills
   its spare lanes with one scratch accumulator whose pack bits are
   zero, so every width runs the same straight-line kernel. A batch
   therefore costs one DB traversal per pack (plus register-masked XOR
   work per lane) instead of [n] re-entries of the scalar scan. *)
let packed t keys =
  let n = Array.length keys in
  let size = size t in
  let bucket = bucket_size t in
  let n_packs = (n + 7) / 8 in
  (* pack p's byte for bucket i carries query [8p+q]'s bit at bit q *)
  let packed = Array.init n_packs (fun _ -> Bytes.make size '\x00') in
  let block_bits = block_bits_for t in
  Array.iteri
    (fun q k ->
      let dst = packed.(q lsr 3) and bit = q land 7 in
      Lw_dpf.Dpf.eval_bits_blocked k ~block_bits (fun base bits count ->
          pack_lane ~bits ~count ~bit ~dst ~dst_pos:base))
    keys;
  let accs = Array.init n (fun _ -> Bytes.make bucket '\x00') in
  let lanes =
    Array.init n_packs (fun p ->
        let live = min 8 (n - (8 * p)) in
        let pad = if live < 8 then Bytes.make bucket '\x00' else Bytes.empty in
        Array.init 8 (fun q -> if q < live then accs.((8 * p) + q) else pad))
  in
  let block = max 1 (block_bytes / bucket) in
  let base = ref 0 in
  while !base < size do
    let count = min block (size - !base) in
    for p = 0 to n_packs - 1 do
      Lw_store.Snapshot.xor_block_into_packed t.snap ~base:(t.base + !base) ~count
        ~packs:packed.(p) ~packs_pos:!base ~dsts:lanes.(p)
    done;
    base := !base + count
  done;
  Array.map Bytes.unsafe_to_string accs

(* Width dispatch, in one place: one key rides the fused kernel, two the
   width-2 kernel, more the bit-packed one. *)
let serial_batch t keys =
  match Array.length keys with
  | 0 -> [||]
  | 1 -> [| fused t keys.(0) |]
  | 2 ->
      let a0, a1 = fused_pair t keys.(0) keys.(1) in
      [| a0; a1 |]
  | _ -> packed t keys

let answer t k =
  check_domain t k;
  let share = fused t k in
  count_pass t 1;
  share

let answer_pair t k0 k1 =
  check_domain t k0;
  check_domain t k1;
  let shares = fused_pair t k0 k1 in
  count_pass t 2;
  shares

(* ------------------------------------------------------------------ *)
(* The one Domain-parallel path                                        *)
(* ------------------------------------------------------------------ *)

(* Join every domain before acting on any failure, so a raising task can
   neither leak the other domains nor let a partial result escape. *)
let join_all_reraise doms =
  let first_failure =
    List.fold_left
      (fun acc d ->
        match Domain.join d with
        | () -> acc
        | exception e -> ( match acc with None -> Some e | Some _ -> acc))
      None doms
  in
  match first_failure with Some e -> raise e | None -> ()

let parallel_init ~domains n f =
  if domains <= 1 || n <= 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Workers claim task indices through [Atomic.fetch_and_add], so each
       [results] slot is written by exactly one worker; the joins give
       this domain the happens-before edge back before the reads below. *)
    (* lw-lint: allow race lines=9 *)
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (f i);
          go ()
        end
      in
      go ()
    in
    join_all_reraise (List.init (min domains n) (fun _ -> Domain.spawn worker));
    (* every index was claimed once and no worker raised *)
    Array.map Option.get results
  end

(* Below this a parallel answer is all spawn/join overhead: the fused
   serial kernel finishes a 1 MiB scan in well under a millisecond. *)
let parallel_cutoff_bytes = 1 lsl 20

(* Smallest power-of-two partition count >= [requested], clamped so the
   split stays a strict prefix of the key's tree ([levels < domain_bits]). *)
let partition_levels t requested =
  let d = domain_bits t in
  let rec up l = if 1 lsl l >= requested then l else up (l + 1) in
  min (d - 1) (max 1 (up 0))

let xor_reduce t shares =
  let acc = Bytes.make (bucket_size t) '\x00' in
  Array.iter
    (fun s ->
      Lw_util.Xorbuf.xor_string_into ~src:s ~src_pos:0 ~dst:acc ~dst_pos:0 ~len:(bucket_size t))
    shares;
  Bytes.unsafe_to_string acc

(* The domain splits into 2^levels aligned slices. Every key is rebased
   once per slice at the slice's internal tree node ([Distributed.split]),
   each slice runs the serial width dispatch on its own, and the
   per-slice shares XOR-reduce to exactly the serial answer. Every slice
   is still walked in full with mask-selected XORs, so the union of the
   per-worker traces is the serial scan's trace — parallelism changes who
   touches a bucket, never whether. *)
let parallel_batch t keys ~domains =
  let levels = partition_levels t domains in
  let subs = Array.map (fun k -> Lw_dpf.Distributed.split k ~shard_bits:levels) keys in
  let parts =
    parallel_init ~domains (1 lsl levels) (fun prefix ->
        serial_batch (slice t ~levels ~prefix) (Array.map (fun s -> s.(prefix)) subs))
  in
  Array.mapi (fun q _ -> xor_reduce t (Array.map (fun shares -> shares.(q)) parts)) keys

let answer_batch ?(cutoff_bytes = parallel_cutoff_bytes) ?(domains = 1) t keys =
  Array.iter (check_domain t) keys;
  let n = Array.length keys in
  let shares =
    if n = 0 || domains <= 1 || domain_bits t < 2 || total_bytes t < cutoff_bytes then
      serial_batch t keys
    else begin
      Lw_obs.Metrics.incr m_parallel;
      parallel_batch t keys ~domains
    end
  in
  count_pass t n;
  shares

(* Serial schedule over the same slices the parallel path cuts: the
   deterministic twin [Trace_check.check_partitioned_scan] drives, and the
   per-slice timer the bench uses to report the critical path (max slice
   time) a multi-core machine would pay. *)
let answer_partitioned_timed ?(partitions = 2) t k =
  check_domain t k;
  let levels = partition_levels t partitions in
  let subs = Lw_dpf.Distributed.split k ~shard_bits:levels in
  let clock = Lw_obs.Span.clock () in
  let times = Array.make (Array.length subs) 0. in
  let shares =
    Array.mapi
      (fun prefix sub ->
        let t0 = Lw_obs.Clock.now clock in
        let share = fused (slice t ~levels ~prefix) sub in
        times.(prefix) <- Lw_obs.Clock.now clock -. t0;
        share)
      subs
  in
  count_pass t 1;
  (xor_reduce t shares, times)

let answer_partitioned ?partitions t k = fst (answer_partitioned_timed ?partitions t k)

let answer_serialized t key_bytes =
  match Lw_dpf.Dpf.deserialize key_bytes with
  | Error e -> Error (Printf.sprintf "bad DPF key: %s" e)
  | Ok k ->
      if Lw_dpf.Dpf.domain_bits k <> domain_bits t then Error "domain mismatch"
      else Ok (answer t k)

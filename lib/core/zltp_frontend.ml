(* Interior node of the hierarchical fan-out tree: an [Inner] node owns
   [levels] bits of the shard index and splits an incoming key once into
   [2^levels] sub-keys ([Distributed.split], i.e. [Dpf.eval_prefixes] +
   [make_subkey]); a [Leaf] hands its sub-key to one data shard. Re-basing
   composes, so the key a leaf receives is bit-identical to the one the
   flat [Distributed.split] fan-out would have produced. *)
type tree_node = Leaf of int | Inner of { levels : int; children : tree_node array }

type tree_rep = { root : tree_node; tdepth : int; tnodes : int }

type t = {
  store : Lw_store.t;
  domain_bits : int;
  shard_bits : int;
  bucket_size : int;
  pins : Lw_store.Snapshot.t array;
      (* the snapshot each shard serves, one pin per shard: answers may
         only be combined while every shard sits at the same epoch *)
  shards : Lw_pir.Server.t array; (* shard i = slice i of pins.(i) *)
  down : bool array;
  shard_hist : Lw_obs.Metrics.histogram array;
      (* per-shard answer latency; shared by name across front-ends of the
         same width, which is what an operator wants from a process dump *)
  mutable scan_domains : int;
      (* workers each shard's scan may use (Server.answer_batch ~domains);
         1 = the serial fused kernel *)
  mutable tree : (int * tree_rep) option;
      (* (fanout_bits, tree): when set, single-key answers route through
         the hierarchical fan-out instead of the flat split *)
}

let m_answers = Lw_obs.Metrics.counter "zltp.frontend.answers"
let m_tree_answers = Lw_obs.Metrics.counter "zltp.frontend.tree_answers"
let m_batch_queries = Lw_obs.Metrics.counter "zltp.frontend.batch_queries"
let m_refusals = Lw_obs.Metrics.counter "zltp.frontend.degraded_refusals"
let m_epoch_refusals = Lw_obs.Metrics.counter "zltp.frontend.epoch_refusals"
let g_shards_down = Lw_obs.Metrics.gauge "zltp.frontend.shards_down"
let g_epoch = Lw_obs.Metrics.gauge "zltp.frontend.epoch"

let shard_histogram i =
  Lw_obs.Metrics.histogram (Printf.sprintf "zltp.frontend.shard%02d.answer_seconds" i)

let domain_bits t = t.domain_bits
let shard_bits t = t.shard_bits
let shard_count t = Array.length t.shards
let bucket_size t = t.bucket_size
let shard_histograms t = Array.copy t.shard_hist

(* ---- epoch bookkeeping over the versioned engine ---- *)

let shard_epoch t i = Lw_store.Snapshot.epoch t.pins.(i)
let announced_epoch t = Array.fold_left (fun e s -> max e (Lw_store.Snapshot.epoch s)) 0 t.pins

let epoch_agreed t =
  let e = shard_epoch t 0 in
  if Array.for_all (fun s -> Lw_store.Snapshot.epoch s = e) t.pins then Some e else None

(* One more pin on an epoch the caller already pins, so it cannot have
   retired in between. *)
let repin st snap = Result.get_ok (Lw_store.pin st ~epoch:(Lw_store.Snapshot.epoch snap))

let shard_server ~shard_bits snap i =
  Lw_pir.Server.slice (Lw_pir.Server.of_snapshot snap) ~levels:shard_bits ~prefix:i

let of_store st ~shard_bits =
  let domain_bits = Lw_store.domain_bits st in
  if shard_bits <= 0 || shard_bits >= domain_bits then
    invalid_arg "Zltp_frontend.of_store: shard_bits must be in (0, domain_bits)";
  let n = 1 lsl shard_bits in
  let snap = Lw_store.pin_latest st in
  let pins =
    Fun.protect
      ~finally:(fun () -> Lw_store.unpin st snap)
      (fun () -> Array.init n (fun _ -> repin st snap))
  in
  let shards = Array.init n (fun i -> shard_server ~shard_bits pins.(i) i) in
  Lw_obs.Metrics.set g_epoch (float_of_int (Lw_store.Snapshot.epoch snap));
  {
    store = st;
    domain_bits;
    shard_bits;
    bucket_size = Lw_store.bucket_size st;
    pins;
    shards;
    down = Array.make n false;
    shard_hist = Array.init n shard_histogram;
    scan_domains = 1;
    tree = None;
  }

(* Move every shard not yet at the engine's current epoch onto it: pin
   the new epoch for the shard, re-slice, release the shard's old pin.
   Nothing is copied — a shard is a view of the snapshot it pins.

   [?abort_after] is a test/chaos hook: stop after moving that many
   shards, leaving the rest pinned at their old epoch — the mixed-epoch
   state the answer paths must refuse. A straggler's pin keeps its epoch
   live past the keep window until the next refresh moves it on. *)
let refresh ?abort_after t =
  let snap = Lw_store.pin_latest t.store in
  let updated =
    Fun.protect
      ~finally:(fun () -> Lw_store.unpin t.store snap)
      (fun () ->
        let epoch = Lw_store.Snapshot.epoch snap in
        let budget = Option.value abort_after ~default:max_int in
        let updated = ref 0 in
        for i = 0 to Array.length t.shards - 1 do
          if shard_epoch t i <> epoch && !updated < budget then begin
            let old = t.pins.(i) in
            t.pins.(i) <- repin t.store snap;
            t.shards.(i) <- shard_server ~shard_bits:t.shard_bits snap i;
            Lw_store.unpin t.store old;
            incr updated
          end
        done;
        !updated)
  in
  Lw_obs.Metrics.set g_epoch (float_of_int (announced_epoch t));
  updated

let shards_down t =
  Array.fold_left (fun n d -> if d then n + 1 else n) 0 t.down

let set_shard_down t i down =
  if i < 0 || i >= Array.length t.shards then invalid_arg "Zltp_frontend.set_shard_down";
  t.down.(i) <- down;
  Lw_obs.Metrics.set g_shards_down (float_of_int (shards_down t))

let shard_down t i = t.down.(i)

(* An answer share is the XOR over every shard's contribution, so a single
   unreachable shard makes the whole share wrong — the only safe reaction
   is a structured refusal the client can act on (fail over), never a
   partial XOR. *)
let check_down t =
  if shards_down t = 0 then Ok ()
  else begin
    let downs = ref [] in
    Array.iteri (fun i d -> if d then downs := i :: !downs) t.down;
    Error
      (Printf.sprintf "shards down: %s"
         (String.concat "," (List.rev_map string_of_int !downs)))
  end

(* The never-partial-XOR invariant, extended to epochs: shares computed
   against different epochs XOR into silent garbage exactly like shares
   with a shard missing, so a mixed-epoch shard fleet refuses with a
   structured error instead of combining. *)
let check_epochs t =
  match epoch_agreed t with
  | Some _ -> Ok ()
  | None ->
      let l =
        String.concat ","
          (List.init (Array.length t.pins) (fun i -> Printf.sprintf "%d:%d" i (shard_epoch t i)))
      in
      Error (Printf.sprintf "epoch mismatch across shards: %s" l)

(* Read through the shard that owns the bucket, at that shard's epoch. *)
let get_bucket t global =
  if global < 0 || global >= 1 lsl t.domain_bits then
    invalid_arg "Zltp_frontend: index out of domain";
  Lw_store.Snapshot.get t.pins.(global lsr (t.domain_bits - t.shard_bits)) global

let check_key t k =
  if Lw_dpf.Dpf.domain_bits k <> t.domain_bits then
    invalid_arg "Zltp_frontend.answer: key domain mismatch"

let combine_shares t shares =
  let acc = Bytes.make t.bucket_size '\x00' in
  Array.iter
    (fun share -> Lw_util.Xorbuf.xor_string_into ~src:share ~src_pos:0 ~dst:acc ~dst_pos:0
        ~len:t.bucket_size)
    shares;
  Bytes.unsafe_to_string acc

(* Time one shard's contribution against the span clock and feed the
   per-shard histogram; with metrics disabled this is the bare call. *)
let timed_shard t i f =
  if Lw_obs.Metrics.is_enabled () then begin
    let c = Lw_obs.Span.clock () in
    let t0 = Lw_obs.Clock.now c in
    let share = f () in
    Lw_obs.Metrics.observe t.shard_hist.(i) (Lw_obs.Clock.now c -. t0);
    share
  end
  else f ()

(* ---- shard-level scan parallelism knob ---- *)

let set_scan_domains t n =
  if n < 1 then invalid_arg "Zltp_frontend.set_scan_domains: need at least one domain";
  t.scan_domains <- n

let scan_domains t = t.scan_domains

(* One shard's contribution for a batch of its sub-keys
   (Server.answer_batch applies its own work-size cutoff, so small shards
   stay on the serial kernel whatever the knob says). *)
let answer_batch_shard t i subs =
  Lw_pir.Server.answer_batch ~domains:t.scan_domains t.shards.(i) subs

let answer_shard t i sub = (answer_batch_shard t i [| sub |]).(0)

(* ---- hierarchical fan-out tree ---- *)

let build_tree t fanout_bits =
  if fanout_bits < 1 then invalid_arg "Zltp_frontend.set_tree_fanout: fanout_bits must be >= 1";
  let nodes = ref 0 and depth = ref 0 in
  let rec mk level levels_left base =
    incr nodes;
    if level > !depth then depth := level;
    if levels_left = 0 then Leaf base
    else begin
      let b = min fanout_bits levels_left in
      let rem = levels_left - b in
      Inner
        {
          levels = b;
          children = Array.init (1 lsl b) (fun i -> mk (level + 1) rem (base lor (i lsl rem)));
        }
    end
  in
  let root = mk 0 t.shard_bits 0 in
  { root; tdepth = !depth; tnodes = !nodes }

let set_tree_fanout t fanout =
  match fanout with
  | None -> t.tree <- None
  | Some b -> t.tree <- Some (b, build_tree t b)

let tree_fanout t = Option.map fst t.tree
let tree_depth t = match t.tree with Some (_, r) -> r.tdepth | None -> 0
let tree_nodes t = match t.tree with Some (_, r) -> r.tnodes | None -> 0

(* Walk the tree: an interior node pays one [2^levels]-way key split —
   O(2^fanout) small-prefix DPF expansions — and each leaf pays only its
   shard's small-domain evaluation, so one query reaches N shards with
   O(N) interior splits of depth O(log N) instead of N full-domain
   evaluations at the root. Sub-key re-basing composes (the child key of
   a child key shares the original correction words), so the shares this
   walk XORs are bit-identical to the flat fan-out's. *)
let answer_via_tree t rep k =
  let rec go node key =
    match node with
    | Leaf s -> timed_shard t s (fun () -> answer_shard t s key)
    | Inner { levels; children } ->
        let subs = Lw_dpf.Distributed.split key ~shard_bits:levels in
        let acc = Bytes.make t.bucket_size '\x00' in
        Array.iteri
          (fun i child ->
            let share = go child subs.(i) in
            Lw_util.Xorbuf.xor_string_into ~src:share ~src_pos:0 ~dst:acc ~dst_pos:0
              ~len:t.bucket_size)
          children;
        Bytes.unsafe_to_string acc
  in
  Lw_obs.Metrics.incr m_tree_answers;
  go rep.root k

(* The batched tree walk: one pass over the tree per key, collecting the
   sub-key each leaf would have received into a shard-indexed array.
   Re-basing composes exactly as in [answer_via_tree], so [out.(s)] is
   bit-identical to the flat [Distributed.split] sub-key for shard [s] —
   which is what lets batches (and the keyword verb riding them) use the
   hierarchical fan-out and still feed the bit-packed shard kernel. *)
let leaf_subkeys t rep k =
  let out = Array.make (Array.length t.shards) k in
  let rec go node key =
    match node with
    | Leaf s -> out.(s) <- key
    | Inner { levels; children } ->
        let subs = Lw_dpf.Distributed.split key ~shard_bits:levels in
        Array.iteri (fun i child -> go child subs.(i)) children
  in
  go rep.root k;
  out

let answer t k =
  check_key t k;
  Lw_obs.Span.with_ ~name:"zltp.frontend.answer" (fun () ->
      let share =
        match t.tree with
        | Some (_, rep) -> answer_via_tree t rep k
        | None ->
            let subs = Lw_dpf.Distributed.split k ~shard_bits:t.shard_bits in
            let shares =
              Array.mapi (fun i sub -> timed_shard t i (fun () -> answer_shard t i sub)) subs
            in
            combine_shares t shares
      in
      Lw_obs.Metrics.incr m_answers;
      share)

let answer_result t k =
  match check_down t with
  | Error _ as e ->
      Lw_obs.Metrics.incr m_refusals;
      e
  | Ok () -> (
      match check_epochs t with
      | Error _ as e ->
          Lw_obs.Metrics.incr m_epoch_refusals;
          e
      | Ok () -> Ok (answer t k))

(* Batched private-GET across the shard fleet: split every query's key
   once, then hand each shard the whole batch of its sub-keys so it runs
   the bit-packed scan kernel ([Lw_pir.Server.answer_batch]) — one
   streamed pass over the shard's slice per 8 queries instead of one per
   query. Query [q]'s answer is the XOR of its per-shard shares, exactly
   as in [answer]. *)
let answer_batch t keys =
  Array.iter (check_key t) keys;
  let n = Array.length keys in
  if n = 0 then [||]
  else
    Lw_obs.Span.with_ ~name:"zltp.frontend.answer_batch" (fun () ->
        let subs =
          match t.tree with
          | Some (_, rep) ->
              Lw_obs.Metrics.add m_tree_answers n;
              Array.map (fun k -> leaf_subkeys t rep k) keys
          | None -> Array.map (fun k -> Lw_dpf.Distributed.split k ~shard_bits:t.shard_bits) keys
        in
        let by_shard =
          Array.mapi
            (fun s _shard ->
              timed_shard t s (fun () ->
                  answer_batch_shard t s (Array.map (fun sub -> sub.(s)) subs)))
            t.shards
        in
        Lw_obs.Metrics.add m_batch_queries n;
        Array.init n (fun q -> combine_shares t (Array.map (fun shares -> shares.(q)) by_shard)))

let answer_batch_result t keys =
  match check_down t with
  | Error _ as e ->
      Lw_obs.Metrics.incr m_refusals;
      e
  | Ok () -> (
      match check_epochs t with
      | Error _ as e ->
          Lw_obs.Metrics.incr m_epoch_refusals;
          e
      | Ok () -> Ok (answer_batch t keys))

type shard_timing = { shard : int; eval_s : float; scan_s : float }

let answer_timed t k =
  check_key t k;
  let subs = Lw_dpf.Distributed.split k ~shard_bits:t.shard_bits in
  let clock = Lw_obs.Span.clock () in
  let timings = ref [] in
  let shares =
    Array.mapi
      (fun i sub ->
        let t0 = Lw_obs.Clock.now clock in
        let bits = Lw_pir.Server.eval_bits t.shards.(i) sub in
        let t1 = Lw_obs.Clock.now clock in
        let share = Lw_pir.Server.scan t.shards.(i) bits in
        let t2 = Lw_obs.Clock.now clock in
        timings := { shard = i; eval_s = t1 -. t0; scan_s = t2 -. t1 } :: !timings;
        Lw_obs.Metrics.observe t.shard_hist.(i) (t2 -. t0);
        share)
      subs
  in
  (combine_shares t shares, List.rev !timings)

type key = {
  party : int;
  domain_bits : int; (* this key evaluates [2^domain_bits] outputs *)
  value_len : int; (* 0 = selection-bit DPF *)
  prg : Prg.t;
  root_seed : Bytes.t; (* 16 bytes *)
  root_t : int; (* control bit at the root (= party for fresh keys) *)
  cw_seeds : Bytes.t; (* full correction words, 16 bytes per level *)
  cw_bits : Bytes.t; (* 1 byte per level: tl lor (tr lsl 1) *)
  cw_offset : int; (* first level of cw_seeds/cw_bits that applies: sub-keys
                      produced by [make_subkey] share the parent arrays *)
  leaf_off : int; (* first bit of this key's outputs inside its leaf word:
                     non-zero only for sub-keys narrower than one word *)
  cw_leaf : string; (* value_len bytes, or the 16-byte leaf word CW_leaf *)
}

let party k = k.party
let domain_bits k = k.domain_bits
let value_len k = k.value_len
let prg k = k.prg

let max_domain_bits = 30

(* BGI16 early termination: a selection-bit key stops its GGM tree this
   many levels above the leaves, and each leaf seed yields one 128-bit
   word of outputs through a single Convert call. A value-carrying key
   keeps one output per leaf seed, so its tree runs to full depth. *)
let word_log = 7

let depth_of ~domain_bits ~value_len =
  if value_len > 0 then domain_bits else max 0 (domain_bits - word_log)

(* The invariant [depth = depth_of ...] also holds for every sub-key:
   rebasing [levels] deep shortens domain and tree alike until the tree
   runs out, and below that the sub-key is a window of one leaf word. *)
let tree_depth k = depth_of ~domain_bits:k.domain_bits ~value_len:k.value_len

(* log2 of the outputs per leaf seed: 0 for value keys, <= 7 for bit keys *)
let leaf_bits k = k.domain_bits - tree_depth k

let cw_seed_pos k level = 16 * (k.cw_offset + level)
let cw_bit k level = Char.code (Bytes.get k.cw_bits (k.cw_offset + level))

(* ------------------------------------------------------------------ *)
(* Key generation                                                      *)
(* ------------------------------------------------------------------ *)

(* Keygen runs on the client, whose own query index [alpha] is the
   secret; it still must not branch on it, or a co-resident observer
   times the key out of the client. lw-lint's secret-branch rule keeps
   the per-level selects below arithmetic. *)
(* lw-lint: secret alpha alpha_bit alpha_low *)

(* [pick_int bit a b] is [a] when bit = 0, [b] when bit = 1, branch-free
   for bit in {0,1}. *)
let pick_int bit a b = ((1 - bit) * a) + (bit * b)

(* The 128-bit word with only bit [alpha_low] set (bit j is bit [j land 7]
   of byte [j lsr 3]). Every bit position is computed and written the
   same way: [alpha_low = j] becomes 1 through the sign of [diff - 1],
   so neither a write offset nor a branch follows the secret. *)
let one_hot_word alpha_low =
  Bytes.init 16 (fun i ->
      let byte = ref 0 in
      for j = 0 to 7 do
        let diff = alpha_low lxor ((8 * i) + j) in
        byte := !byte lor (((diff - 1) lsr (Sys.int_size - 1)) lsl j)
      done;
      Char.unsafe_chr !byte)

let gen ?(prg = Prg.default) ?value ~domain_bits ~alpha rng =
  if domain_bits < 1 || domain_bits > max_domain_bits then
    invalid_arg "Dpf.gen: domain_bits out of range";
  (* domain bound check: public bounds, rejected before any use *)
  if alpha < 0 || alpha >= 1 lsl domain_bits then (* lw-lint: allow secret-branch taint *)
    invalid_arg "Dpf.gen: alpha out of domain";
  let value_len = match value with None -> 0 | Some v -> String.length v in
  let d = domain_bits in
  let depth = depth_of ~domain_bits:d ~value_len in
  let s0 = Bytes.of_string (Lw_crypto.Drbg.generate rng 16) in
  let s1 = Bytes.of_string (Lw_crypto.Drbg.generate rng 16) in
  (* seeds keep their low bit of byte 15 clear, matching PRG outputs *)
  let clear_low b = Bytes.set b 15 (Char.chr (Char.code (Bytes.get b 15) land 0xfe)) in
  clear_low s0;
  clear_low s1;
  let root0 = Bytes.copy s0 and root1 = Bytes.copy s1 in
  let t0 = ref 0 and t1 = ref 1 in
  let cw_seeds = Bytes.create (16 * depth) in
  let cw_bits = Bytes.create depth in
  let c0 = Bytes.create 32 and c1 = Bytes.create 32 in
  for level = 0 to depth - 1 do
    let bits0 = Prg.expand_into prg ~src:s0 ~src_pos:0 ~dst:c0 ~dst_pos:0 in
    let bits1 = Prg.expand_into prg ~src:s1 ~src_pos:0 ~dst:c1 ~dst_pos:0 in
    let tl0 = bits0 land 1 and tr0 = bits0 lsr 1 in
    let tl1 = bits1 land 1 and tr1 = bits1 lsr 1 in
    let alpha_bit = Lw_util.Bitops.bit_msb alpha ~width:d level in
    (* keep = the child alpha descends into; lose = the other. Both
       halves of each expansion are read on every level and combined
       through the splatted mask, so neither the offsets touched nor
       the instructions executed follow the secret bit. *)
    let m = (0 - alpha_bit) land 0xff in
    let sel_keep c i =
      (Char.code (Bytes.get c i) land lnot m)
      lor (Char.code (Bytes.get c (16 + i)) land m)
    in
    let sel_lose c i =
      (Char.code (Bytes.get c i) land m)
      lor (Char.code (Bytes.get c (16 + i)) land lnot m)
    in
    for i = 0 to 15 do
      Bytes.set cw_seeds ((16 * level) + i)
        (Char.unsafe_chr (sel_lose c0 i lxor sel_lose c1 i))
    done;
    let tl_cw = tl0 lxor tl1 lxor alpha_bit lxor 1 in
    let tr_cw = tr0 lxor tr1 lxor alpha_bit in
    Bytes.set cw_bits level (Char.chr (tl_cw lor (tr_cw lsl 1)));
    let tkeep_cw = pick_int alpha_bit tl_cw tr_cw in
    let step s c t tkeep =
      for i = 0 to 15 do
        Bytes.set s i (Char.unsafe_chr (sel_keep c i))
      done;
      (* the correction is applied under a mask splatted from the
         control bit: same XOR work whether t is 0 or 1 *)
      Lw_util.Xorbuf.xor_into_masked
        ~mask:((0 - (t land 1)) land 0xff)
        ~src:cw_seeds ~src_pos:(16 * level) ~dst:s ~dst_pos:0 ~len:16;
      tkeep lxor (t land tkeep_cw)
    in
    let tkeep0 = pick_int alpha_bit tl0 tr0 in
    let tkeep1 = pick_int alpha_bit tl1 tr1 in
    let t0' = step s0 c0 !t0 tkeep0 in
    let t1' = step s1 c1 !t1 tkeep1 in
    t0 := t0';
    t1 := t1'
  done;
  (* Leaf correction. On alpha's path the two leaf seeds differ and
     t0 xor t1 = 1, so the parties' outputs XOR to the one-hot word (bit
     vector) or [v]; off the path seeds and bits agree and cancel. *)
  let cw_leaf =
    match value with
    | None ->
        let alpha_low = alpha land ((1 lsl (d - depth)) - 1) in
        let w = one_hot_word alpha_low in
        let conv = Bytes.create 16 in
        List.iter
          (fun s ->
            Prg.convert_block prg ~src:s ~src_pos:0 ~dst:conv ~dst_pos:0;
            Lw_util.Xorbuf.xor_into ~src:conv ~src_pos:0 ~dst:w ~dst_pos:0 ~len:16)
          [ s0; s1 ];
        Bytes.unsafe_to_string w
    | Some v ->
        let conv s = Prg.convert prg ~seed:s ~pos:0 ~len:value_len in
        Lw_util.Xorbuf.xor (Lw_util.Xorbuf.xor v (conv s0)) (conv s1)
  in
  let mk party root_seed =
    {
      party;
      domain_bits = d;
      value_len;
      prg;
      root_seed;
      root_t = party;
      cw_seeds;
      cw_bits;
      cw_offset = 0;
      leaf_off = 0;
      cw_leaf;
    }
  in
  (mk 0 root0, mk 1 root1)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* Expand the node at [seed]/[t] one level; children (with corrections
   applied) land in [children]; returns corrected (tl lor (tr lsl 1)). *)
let expand_node k ~level ~seed ~seed_pos ~t ~children =
  let bits = Prg.expand_into k.prg ~src:seed ~src_pos:seed_pos ~dst:children ~dst_pos:0 in
  if t = 1 then begin
    let pos = cw_seed_pos k level in
    Lw_util.Xorbuf.xor_into ~src:k.cw_seeds ~src_pos:pos ~dst:children ~dst_pos:0 ~len:16;
    Lw_util.Xorbuf.xor_into ~src:k.cw_seeds ~src_pos:pos ~dst:children ~dst_pos:16 ~len:16;
    bits lxor cw_bit k level
  end
  else bits

(* The leaf word of the seed at [seed]/[pos] with control bit [t], into
   [dst.[0..15]]: for a selection-bit key, Convert(seed) XOR t·CW_leaf,
   applied under a mask splatted from [t]; for a value key, its one
   output, the control bit itself, in bit 0. *)
let leaf_word k ~seed ~pos ~t ~dst =
  if k.value_len > 0 then Bytes.unsafe_set dst 0 (Char.unsafe_chr t)
  else begin
    Prg.convert_block k.prg ~src:seed ~src_pos:pos ~dst ~dst_pos:0;
    Lw_util.Xorbuf.xor_into_masked
      ~mask:((0 - (t land 1)) land 0xff)
      ~src:(Bytes.unsafe_of_string k.cw_leaf) ~src_pos:0 ~dst ~dst_pos:0 ~len:16
  end

let word_bit word j = (Char.code (Bytes.unsafe_get word (j lsr 3)) lsr (j land 7)) land 1

(* Four bits to four 0/1 bytes (little-endian): the shifted copies of the
   nibble land 7 bits apart, so they never overlap and no carry crosses
   a byte. Arithmetic, not a table, so no memory index follows the bits. *)
let spread4 n = (n * 0x204081) land 0x01010101

(* Write bits [first .. first+count) of [word] as 0/1 bytes at [dst_pos]. *)
let spread_bits word ~first ~count ~dst ~dst_pos =
  if first land 7 = 0 && count land 7 = 0 then
    for i = 0 to (count lsr 3) - 1 do
      let b = Char.code (Bytes.unsafe_get word ((first lsr 3) + i)) in
      Bytes.set_int64_le dst
        (dst_pos + (8 * i))
        (Int64.of_int (spread4 (b land 15) lor (spread4 (b lsr 4) lsl 32)))
    done
  else
    for i = 0 to count - 1 do
      Bytes.unsafe_set dst (dst_pos + i) (Char.unsafe_chr (word_bit word (first + i)))
    done

let eval_leaf_state k leaf =
  let depth = tree_depth k in
  let seed = Bytes.copy k.root_seed in
  let children = Bytes.create 32 in
  let t = ref k.root_t in
  for level = 0 to depth - 1 do
    let bits = expand_node k ~level ~seed ~seed_pos:0 ~t:!t ~children in
    let b = Lw_util.Bitops.bit_msb leaf ~width:depth level in
    Bytes.blit children (16 * b) seed 0 16;
    t := (bits lsr b) land 1
  done;
  (seed, !t)

let check_index k x =
  if x < 0 || x >= 1 lsl k.domain_bits then invalid_arg "Dpf.eval: index out of domain"

let eval_bit k x =
  check_index k x;
  let lb = leaf_bits k in
  let seed, t = eval_leaf_state k (x lsr lb) in
  let word = Bytes.create 16 in
  leaf_word k ~seed ~pos:0 ~t ~dst:word;
  word_bit word (k.leaf_off + (x land ((1 lsl lb) - 1)))

let eval_value k x =
  if k.value_len = 0 then invalid_arg "Dpf.eval_value: selection-bit key";
  check_index k x;
  let seed, t = eval_leaf_state k x in
  let share = Prg.convert k.prg ~seed ~pos:0 ~len:k.value_len in
  if t = 1 then Lw_util.Xorbuf.xor share k.cw_leaf else share

(* The one tree walker. Depth-first expansion of the top [depth] levels;
   each recursion level owns a preallocated 32-byte children buffer, so
   no allocation happens per node. *)
let eval_depth k ~depth f =
  let bufs = Array.init (depth + 1) (fun _ -> Bytes.create 32) in
  let rec go level seed_buf seed_pos index t =
    if level = depth then f index t seed_buf seed_pos
    else begin
      let children = bufs.(level) in
      let bits = expand_node k ~level ~seed:seed_buf ~seed_pos ~t ~children in
      go (level + 1) children 0 (2 * index) (bits land 1);
      go (level + 1) children 16 ((2 * index) + 1) (bits lsr 1)
    end
  in
  go 0 (Bytes.copy k.root_seed) 0 0 k.root_t

let eval_all_seeds k f =
  if k.value_len = 0 then invalid_arg "Dpf.eval_all_seeds: selection-bit key";
  eval_depth k ~depth:k.domain_bits f

(* Blocked leaf-bit streaming: walk the tree to its leaf seeds and spread
   each leaf word's [2^leaf_bits] outputs into one reusable
   [2^block_bits]-byte buffer, handing it to [f] whenever it fills. A
   block holds several leaf words, or, below [leaf_bits], one leaf word
   spans several blocks. The scratch stays cache-resident instead of the
   full-domain buffer an [eval_all_bits] caller would materialise — the
   traversal half of the PIR server's fused eval↔scan kernel. *)
let eval_bits_blocked k ~block_bits f =
  if block_bits < 0 || block_bits > k.domain_bits then
    invalid_arg "Dpf.eval_bits_blocked: block_bits out of range";
  let lb = leaf_bits k in
  let per = 1 lsl lb and block = 1 lsl block_bits in
  let buf = Bytes.create block in
  let word = Bytes.create 16 in
  eval_depth k ~depth:(tree_depth k) (fun leaf t seed pos ->
      leaf_word k ~seed ~pos ~t ~dst:word;
      let first = leaf lsl lb in
      if per <= block then begin
        let off = first land (block - 1) in
        spread_bits word ~first:k.leaf_off ~count:per ~dst:buf ~dst_pos:off;
        if off + per = block then f (first - off) buf block
      end
      else
        for j = 0 to (per / block) - 1 do
          spread_bits word ~first:(k.leaf_off + (j * block)) ~count:block ~dst:buf ~dst_pos:0;
          f (first + (j * block)) buf block
        done)

let eval_all_bits k f =
  eval_bits_blocked k ~block_bits:(leaf_bits k) (fun base buf count ->
      for j = 0 to count - 1 do
        f (base + j) (Char.code (Bytes.unsafe_get buf j))
      done)

(* Diagnostic only: recovering the selected support from the leaf bits
   is inherently selection-dependent control flow, and this helper never
   runs on the server answer path — tests and debugging use it to check
   a key's point function. *)
let selected_indices k =
  let acc = ref [] in
  (* lw-lint: allow taint *)
  eval_all_bits k (fun x t -> if t = 1 then acc := x :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Distributed-evaluation hooks                                        *)
(* ------------------------------------------------------------------ *)

(* Past the tree's depth the nodes are windows of a leaf word: each of
   the [2^(levels - depth)] prefixes under one leaf seed gets that seed. *)
let eval_prefixes k ~levels f =
  if levels < 0 || levels > k.domain_bits then invalid_arg "Dpf.eval_prefixes: bad level count";
  let depth = tree_depth k in
  if levels <= depth then eval_depth k ~depth:levels f
  else begin
    let below = levels - depth in
    eval_depth k ~depth (fun leaf t seed_buf pos ->
        for j = 0 to (1 lsl below) - 1 do
          f ((leaf lsl below) lor j) t seed_buf pos
        done)
  end

let make_subkey ?(prefix = 0) k ~root_seed ~root_pos ~root_t ~levels =
  if levels < 0 || levels >= k.domain_bits then invalid_arg "Dpf.make_subkey: bad level count";
  let depth = tree_depth k in
  let rem = k.domain_bits - levels in
  let below = max 0 (levels - depth) in
  let seed = Bytes.create 16 in
  Bytes.blit root_seed root_pos seed 0 16;
  {
    k with
    domain_bits = rem;
    root_seed = seed;
    root_t;
    cw_offset = k.cw_offset + min levels depth;
    leaf_off = k.leaf_off + ((prefix land ((1 lsl below) - 1)) lsl rem);
  }

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

(* Version 2 layout (version 1 was the full-depth tree, now rejected):
     'D' | 2 | party | root_t | prg tag | domain_bits | leaf_off
     | value_len (u32 BE) | root seed (16) | depth x seed CW (16 each)
     | depth x control-bit CW (1 each) | leaf CW (value_len, or 16)
   where depth = domain_bits for value keys, max 0 (domain_bits - 7)
   for selection-bit keys. *)
let magic = 'D'
let version = 2
let header_len = 11

let leaf_cw_len ~value_len = if value_len > 0 then value_len else 16

let serialized_size ~domain_bits ~value_len =
  header_len + 16
  + (17 * depth_of ~domain_bits ~value_len)
  + leaf_cw_len ~value_len

let paper_key_size ~domain_bits = (128 + 2) * domain_bits

let serialize k =
  let d = k.domain_bits and depth = tree_depth k in
  let buf = Buffer.create (serialized_size ~domain_bits:d ~value_len:k.value_len) in
  Buffer.add_char buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr k.party);
  Buffer.add_char buf (Char.chr k.root_t);
  Buffer.add_char buf (Char.chr (Prg.to_tag k.prg));
  Buffer.add_char buf (Char.chr d);
  Buffer.add_char buf (Char.chr k.leaf_off);
  Buffer.add_int32_be buf (Int32.of_int k.value_len);
  Buffer.add_subbytes buf k.root_seed 0 16;
  Buffer.add_subbytes buf k.cw_seeds (16 * k.cw_offset) (16 * depth);
  Buffer.add_subbytes buf k.cw_bits k.cw_offset depth;
  Buffer.add_string buf k.cw_leaf;
  Buffer.contents buf

(* A leaf window of [2^(d - depth)] outputs must sit aligned inside the
   128-bit word; value keys have no window. *)
let leaf_off_ok ~d ~value_len off =
  if value_len > 0 then off = 0
  else begin
    let width = 1 lsl (d - depth_of ~domain_bits:d ~value_len) in
    off land (width - 1) = 0 && off + width <= 1 lsl word_log
  end

let deserialize s =
  let err msg = Error msg in
  if String.length s < header_len then err "short header"
  else if s.[0] <> magic then err "bad magic"
  else if Char.code s.[1] <> version then err "unsupported version"
  else begin
    let party = Char.code s.[2] and root_t = Char.code s.[3] in
    let prg_tag = Char.code s.[4] and d = Char.code s.[5] in
    let leaf_off = Char.code s.[6] in
    let value_len = Int32.to_int (String.get_int32_be s 7) in
    if party > 1 then err "bad party"
    else if root_t > 1 then err "bad root bit"
    else if d < 1 || d > max_domain_bits then err "bad domain_bits"
    else if value_len < 0 || value_len > 1 lsl 24 then err "bad value_len"
    else if not (leaf_off_ok ~d ~value_len leaf_off) then err "bad leaf offset"
    else begin
      match Prg.of_tag prg_tag with
      | None -> err "unknown prg"
      | Some prg ->
          let expect = serialized_size ~domain_bits:d ~value_len in
          if String.length s <> expect then err "length mismatch"
          else begin
            let depth = depth_of ~domain_bits:d ~value_len in
            let pos = ref header_len in
            let take n =
              let sub = String.sub s !pos n in
              pos := !pos + n;
              sub
            in
            let root_seed = Bytes.of_string (take 16) in
            let cw_seeds = Bytes.of_string (take (16 * depth)) in
            let cw_bits = Bytes.of_string (take depth) in
            let cw_leaf = take (leaf_cw_len ~value_len) in
            let bits_ok = ref true in
            Bytes.iter (fun c -> if Char.code c > 3 then bits_ok := false) cw_bits;
            if not !bits_ok then err "bad control bits"
            else
              Ok
                {
                  party;
                  domain_bits = d;
                  value_len;
                  prg;
                  root_seed;
                  root_t;
                  cw_seeds;
                  cw_bits;
                  cw_offset = 0;
                  leaf_off;
                  cw_leaf;
                }
          end
    end
  end

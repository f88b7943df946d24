open Lw_dpf

let rng () = Lw_crypto.Drbg.create ~seed:"dpf-tests"

let prgs = [ Prg.Aes_mmo; Prg.Chacha 8; Prg.Chacha 20 ]

let iter_prgs f = List.iter (fun prg -> f prg) prgs

(* ---------------- correctness: point evaluation ---------------- *)

let test_point_function_bits () =
  iter_prgs (fun prg ->
      let d = 6 in
      let alpha = 37 in
      let k0, k1 = Dpf.gen ~prg ~domain_bits:d ~alpha (rng ()) in
      for x = 0 to (1 lsl d) - 1 do
        let got = Dpf.eval_bit k0 x lxor Dpf.eval_bit k1 x in
        let want = if x = alpha then 1 else 0 in
        Alcotest.(check int) (Printf.sprintf "%s x=%d" (Prg.name prg) x) want got
      done)

let test_point_function_all_alphas () =
  let d = 4 in
  for alpha = 0 to (1 lsl d) - 1 do
    let k0, k1 = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
    for x = 0 to (1 lsl d) - 1 do
      let got = Dpf.eval_bit k0 x lxor Dpf.eval_bit k1 x in
      Alcotest.(check int) (Printf.sprintf "a=%d x=%d" alpha x) (if x = alpha then 1 else 0) got
    done
  done

let test_value_dpf () =
  iter_prgs (fun prg ->
      let d = 5 and value = "lightweb secret page data padded" in
      let alpha = 19 in
      let k0, k1 = Dpf.gen ~prg ~value ~domain_bits:d ~alpha (rng ()) in
      for x = 0 to (1 lsl d) - 1 do
        let got = Lw_util.Xorbuf.xor (Dpf.eval_value k0 x) (Dpf.eval_value k1 x) in
        if x = alpha then
          Alcotest.(check string) (Printf.sprintf "%s value at alpha" (Prg.name prg)) value got
        else
          Alcotest.(check bool) (Printf.sprintf "%s zero at %d" (Prg.name prg) x) true
            (Lw_util.Xorbuf.is_zero got)
      done)

let test_domain_edges () =
  (* depth-1 tree and both extreme alphas *)
  List.iter
    (fun (d, alpha) ->
      let k0, k1 = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
      for x = 0 to (1 lsl d) - 1 do
        Alcotest.(check int)
          (Printf.sprintf "d=%d a=%d x=%d" d alpha x)
          (if x = alpha then 1 else 0)
          (Dpf.eval_bit k0 x lxor Dpf.eval_bit k1 x)
      done)
    [ (1, 0); (1, 1); (2, 3); (10, 0); (10, 1023) ]

let test_gen_validation () =
  let r = rng () in
  Alcotest.check_raises "domain too small" (Invalid_argument "Dpf.gen: domain_bits out of range")
    (fun () -> ignore (Dpf.gen ~domain_bits:0 ~alpha:0 r));
  Alcotest.check_raises "alpha out of range" (Invalid_argument "Dpf.gen: alpha out of domain")
    (fun () -> ignore (Dpf.gen ~domain_bits:3 ~alpha:8 r));
  Alcotest.check_raises "alpha negative" (Invalid_argument "Dpf.gen: alpha out of domain")
    (fun () -> ignore (Dpf.gen ~domain_bits:3 ~alpha:(-1) r))

let test_eval_validation () =
  let k0, _ = Dpf.gen ~domain_bits:3 ~alpha:2 (rng ()) in
  Alcotest.check_raises "x out of domain" (Invalid_argument "Dpf.eval: index out of domain")
    (fun () -> ignore (Dpf.eval_bit k0 8));
  Alcotest.check_raises "eval_value on bit key"
    (Invalid_argument "Dpf.eval_value: selection-bit key") (fun () ->
      ignore (Dpf.eval_value k0 0))

(* ---------------- eval_all consistency ---------------- *)

let test_eval_all_matches_point () =
  iter_prgs (fun prg ->
      let d = 8 and alpha = 211 in
      let k0, _ = Dpf.gen ~prg ~domain_bits:d ~alpha (rng ()) in
      let bits = Array.make (1 lsl d) (-1) in
      Dpf.eval_all_bits k0 (fun x t ->
          Alcotest.(check int) "visited once" (-1) bits.(x);
          bits.(x) <- t);
      Array.iteri
        (fun x t ->
          Alcotest.(check int) (Printf.sprintf "%s x=%d" (Prg.name prg) x) (Dpf.eval_bit k0 x) t)
        bits)

let test_eval_all_visits_in_order () =
  let k0, _ = Dpf.gen ~domain_bits:7 ~alpha:12 (rng ()) in
  let expected = ref 0 in
  Dpf.eval_all_bits k0 (fun x _ ->
      Alcotest.(check int) "order" !expected x;
      incr expected);
  Alcotest.(check int) "count" 128 !expected

let test_eval_all_seeds_value_shares () =
  let d = 6 and value = String.init 48 (fun i -> Char.chr (i land 0xff)) in
  let alpha = 33 in
  let k0, k1 = Dpf.gen ~value ~domain_bits:d ~alpha (rng ()) in
  (* reconstruct eval_value from eval_all_seeds *)
  let shares k =
    let out = Array.make (1 lsl d) "" in
    Dpf.eval_all_seeds k (fun x t seed pos ->
        let s = Prg.convert (Dpf.prg k) ~seed ~pos ~len:48 in
        out.(x) <- (if t = 1 then Lw_util.Xorbuf.xor s (Dpf.eval_value k x |> fun v ->
          (* cross-check against eval_value directly instead of reaching into cw *)
          Lw_util.Xorbuf.xor s v) else s));
    out
  in
  (* simpler: check eval_all_seeds bit/seed agrees with eval_value *)
  ignore shares;
  Dpf.eval_all_seeds k0 (fun x t seed pos ->
      let s = Prg.convert (Dpf.prg k0) ~seed ~pos ~len:48 in
      let direct = Dpf.eval_value k0 x in
      if t = 0 then Alcotest.(check string) "t=0 share is convert" s direct);
  let got = Lw_util.Xorbuf.xor (Dpf.eval_value k0 alpha) (Dpf.eval_value k1 alpha) in
  Alcotest.(check string) "value" value got

let test_selected_indices_halfish () =
  let d = 10 in
  let k0, k1 = Dpf.gen ~domain_bits:d ~alpha:77 (rng ()) in
  let n0 = List.length (Dpf.selected_indices k0) in
  let n1 = List.length (Dpf.selected_indices k1) in
  (* each share bit is pseudorandom: expect ~512 +/- 5 sigma (~80) *)
  Alcotest.(check bool) "share0 balanced" true (n0 > 384 && n0 < 640);
  Alcotest.(check bool) "share1 balanced" true (n1 > 384 && n1 < 640);
  (* the two sets differ in exactly the point alpha *)
  let s0 = List.filter (fun x -> not (List.mem x (Dpf.selected_indices k1))) (Dpf.selected_indices k0) in
  let s1 = List.filter (fun x -> not (List.mem x (Dpf.selected_indices k0))) (Dpf.selected_indices k1) in
  Alcotest.(check (list int)) "symmetric difference" [ 77 ] (List.sort compare (s0 @ s1))

(* ---------------- distributed evaluation ---------------- *)

let test_distributed_equivalence () =
  iter_prgs (fun prg ->
      let d = 10 and shard_bits = 3 in
      let alpha = 709 in
      let k0, k1 = Dpf.gen ~prg ~domain_bits:d ~alpha (rng ()) in
      List.iter
        (fun k ->
          let subs = Distributed.split k ~shard_bits in
          Alcotest.(check int) "shard count" 8 (Array.length subs);
          let rem = d - shard_bits in
          Array.iteri
            (fun shard sub ->
              Alcotest.(check int) "sub domain" rem (Dpf.domain_bits sub);
              for j = 0 to (1 lsl rem) - 1 do
                let g = Distributed.global_index ~rem_bits:rem ~shard j in
                Alcotest.(check int)
                  (Printf.sprintf "%s shard=%d j=%d" (Prg.name prg) shard j)
                  (Dpf.eval_bit k g) (Dpf.eval_bit sub j)
              done)
            subs)
        [ k0; k1 ])

let test_distributed_correctness_combined () =
  (* shards of the two parties still XOR to the point function *)
  let d = 9 and shard_bits = 2 and alpha = 300 in
  let k0, k1 = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
  let s0 = Distributed.split k0 ~shard_bits and s1 = Distributed.split k1 ~shard_bits in
  let rem = d - shard_bits in
  let hits = ref [] in
  Array.iteri
    (fun shard sub0 ->
      for j = 0 to (1 lsl rem) - 1 do
        if Dpf.eval_bit sub0 j lxor Dpf.eval_bit s1.(shard) j = 1 then
          hits := Distributed.global_index ~rem_bits:rem ~shard j :: !hits
      done)
    s0;
  Alcotest.(check (list int)) "single point" [ alpha ] !hits

let test_distributed_validation () =
  let k0, _ = Dpf.gen ~domain_bits:5 ~alpha:3 (rng ()) in
  Alcotest.check_raises "zero" (Invalid_argument "Distributed.split: bad shard_bits") (fun () ->
      ignore (Distributed.split k0 ~shard_bits:0));
  Alcotest.check_raises "full" (Invalid_argument "Distributed.split: bad shard_bits") (fun () ->
      ignore (Distributed.split k0 ~shard_bits:5))

let test_distributed_value_dpf () =
  let d = 6 and shard_bits = 2 and alpha = 45 in
  let value = "0123456789abcdef" in
  let k0, k1 = Dpf.gen ~value ~domain_bits:d ~alpha (rng ()) in
  let s0 = Distributed.split k0 ~shard_bits and s1 = Distributed.split k1 ~shard_bits in
  let rem = d - shard_bits in
  let shard = alpha lsr rem and j = alpha land ((1 lsl rem) - 1) in
  let got = Lw_util.Xorbuf.xor (Dpf.eval_value s0.(shard) j) (Dpf.eval_value s1.(shard) j) in
  Alcotest.(check string) "value through shards" value got

(* ---------------- serialisation ---------------- *)

let test_serialize_roundtrip () =
  iter_prgs (fun prg ->
      List.iter
        (fun value ->
          let d = 12 in
          let k0, k1 = Dpf.gen ~prg ?value ~domain_bits:d ~alpha:1000 (rng ()) in
          List.iter
            (fun k ->
              let s = Dpf.serialize k in
              Alcotest.(check int) "size formula"
                (Dpf.serialized_size ~domain_bits:d ~value_len:(Dpf.value_len k))
                (String.length s);
              match Dpf.deserialize s with
              | Error e -> Alcotest.fail e
              | Ok k' ->
                  Alcotest.(check int) "party" (Dpf.party k) (Dpf.party k');
                  Alcotest.(check int) "domain" (Dpf.domain_bits k) (Dpf.domain_bits k');
                  for x = 0 to 200 do
                    Alcotest.(check int) "eval agrees" (Dpf.eval_bit k x) (Dpf.eval_bit k' x)
                  done)
            [ k0; k1 ])
        [ None; Some "some value bytes" ])

let test_serialize_subkey_roundtrip () =
  let k0, _ = Dpf.gen ~domain_bits:8 ~alpha:200 (rng ()) in
  let subs = Distributed.split k0 ~shard_bits:3 in
  Array.iteri
    (fun shard sub ->
      match Dpf.deserialize (Dpf.serialize sub) with
      | Error e -> Alcotest.fail e
      | Ok sub' ->
          for j = 0 to 31 do
            Alcotest.(check int)
              (Printf.sprintf "shard %d j %d" shard j)
              (Dpf.eval_bit sub j) (Dpf.eval_bit sub' j)
          done)
    subs

let test_deserialize_rejects () =
  let k0, _ = Dpf.gen ~domain_bits:4 ~alpha:9 (rng ()) in
  let s = Dpf.serialize k0 in
  let mutate i c =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Bytes.to_string b
  in
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty" true (is_err (Dpf.deserialize ""));
  Alcotest.(check bool) "bad magic" true (is_err (Dpf.deserialize (mutate 0 'X')));
  Alcotest.(check bool) "bad version" true (is_err (Dpf.deserialize (mutate 1 '\x09')));
  Alcotest.(check bool) "bad party" true (is_err (Dpf.deserialize (mutate 2 '\x05')));
  Alcotest.(check bool) "bad prg" true (is_err (Dpf.deserialize (mutate 4 '\x7f')));
  Alcotest.(check bool) "truncated" true (is_err (Dpf.deserialize (String.sub s 0 (String.length s - 1))));
  Alcotest.(check bool) "extended" true (is_err (Dpf.deserialize (s ^ "\x00")))

let test_key_sizes () =
  Alcotest.(check int) "paper formula d=22" 2860 (Dpf.paper_key_size ~domain_bits:22);
  (* real key for d=22, bit-only, its tree stopped 7 levels above the
     leaves: 11 header + 16 root seed + 17*(22-7) tree correction words
     + 16 leaf word = 298 bytes (the full-depth tree took
     10 + 16 + 17*22 = 400) *)
  Alcotest.(check int) "real size d=22" 298 (Dpf.serialized_size ~domain_bits:22 ~value_len:0)

(* ---------------- privacy sanity ---------------- *)

let test_single_share_balanced_bits () =
  (* one share's eval bits should look like fair coin flips regardless of
     alpha: compare population counts for two very different alphas *)
  let d = 12 in
  let count alpha =
    let k0, _ = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
    let n = ref 0 in
    Dpf.eval_all_bits k0 (fun _ t -> n := !n + t);
    !n
  in
  let n1 = count 0 and n2 = count 4095 in
  let mid = 1 lsl (d - 1) in
  let tol = 6 * int_of_float (sqrt (float_of_int mid)) in
  Alcotest.(check bool) "alpha=0 balanced" true (abs (n1 - mid) < tol);
  Alcotest.(check bool) "alpha=max balanced" true (abs (n2 - mid) < tol)

let test_keys_differ_between_gens () =
  let k0a, _ = Dpf.gen ~domain_bits:8 ~alpha:5 (rng ()) in
  let r = rng () in
  ignore (Lw_crypto.Drbg.generate r 1);
  let k0b, _ = Dpf.gen ~domain_bits:8 ~alpha:5 r in
  Alcotest.(check bool) "fresh randomness" true
    (not (String.equal (Dpf.serialize k0a) (Dpf.serialize k0b)))

(* ---------------- oracle: the full-depth evaluator ---------------- *)

(* The DPF as it was before early termination: keygen walks all d
   levels, and evaluation expands the tree down to every leaf at 2 PRG
   calls per node, one output per leaf. The early-terminated key shares
   the top [d - 7] levels with it (same randomness, same correction
   words), so the oracle checks the new evaluator bit for bit: walk the
   oracle's tree to the shared depth, then apply the leaf Convert with
   the leaf correction word read off the new key's serialisation. *)
module Full_depth = struct
  type key = {
    party : int;
    domain_bits : int;
    prg : Prg.t;
    root_seed : Bytes.t;
    root_t : int;
    cw_seeds : Bytes.t;
    cw_bits : Bytes.t;
    cw_leaf : string;
  }

  let gen ?(prg = Prg.default) ?value ~domain_bits:d ~alpha rng =
    let s0 = Bytes.of_string (Lw_crypto.Drbg.generate rng 16) in
    let s1 = Bytes.of_string (Lw_crypto.Drbg.generate rng 16) in
    let clear_low b = Bytes.set b 15 (Char.chr (Char.code (Bytes.get b 15) land 0xfe)) in
    clear_low s0;
    clear_low s1;
    let root0 = Bytes.copy s0 and root1 = Bytes.copy s1 in
    let t0 = ref 0 and t1 = ref 1 in
    let cw_seeds = Bytes.create (16 * d) and cw_bits = Bytes.create d in
    let c0 = Bytes.create 32 and c1 = Bytes.create 32 in
    for level = 0 to d - 1 do
      let bits0 = Prg.expand_into prg ~src:s0 ~src_pos:0 ~dst:c0 ~dst_pos:0 in
      let bits1 = Prg.expand_into prg ~src:s1 ~src_pos:0 ~dst:c1 ~dst_pos:0 in
      let a = Lw_util.Bitops.bit_msb alpha ~width:d level in
      let keep = 16 * a and lose = 16 * (1 - a) in
      for i = 0 to 15 do
        Bytes.set cw_seeds ((16 * level) + i)
          (Char.chr (Char.code (Bytes.get c0 (lose + i)) lxor Char.code (Bytes.get c1 (lose + i))))
      done;
      let tl_cw = bits0 land 1 lxor (bits1 land 1) lxor a lxor 1 in
      let tr_cw = (bits0 lsr 1) lxor (bits1 lsr 1) lxor a in
      Bytes.set cw_bits level (Char.chr (tl_cw lor (tr_cw lsl 1)));
      let tkeep_cw = if a = 0 then tl_cw else tr_cw in
      let step s c t bits =
        Bytes.blit c keep s 0 16;
        if t = 1 then
          Lw_util.Xorbuf.xor_into ~src:cw_seeds ~src_pos:(16 * level) ~dst:s ~dst_pos:0 ~len:16;
        ((bits lsr a) land 1) lxor (t land tkeep_cw)
      in
      let t0' = step s0 c0 !t0 bits0 in
      let t1' = step s1 c1 !t1 bits1 in
      t0 := t0';
      t1 := t1'
    done;
    let cw_leaf =
      match value with
      | None -> ""
      | Some v ->
          let conv s = Prg.convert prg ~seed:s ~pos:0 ~len:(String.length v) in
          Lw_util.Xorbuf.xor (Lw_util.Xorbuf.xor v (conv s0)) (conv s1)
    in
    let mk party root_seed =
      { party; domain_bits = d; prg; root_seed; root_t = party; cw_seeds; cw_bits; cw_leaf }
    in
    (mk 0 root0, mk 1 root1)

  let expand_node k ~level ~seed ~seed_pos ~t ~children =
    let bits = Prg.expand_into k.prg ~src:seed ~src_pos:seed_pos ~dst:children ~dst_pos:0 in
    if t = 1 then begin
      let pos = 16 * level in
      Lw_util.Xorbuf.xor_into ~src:k.cw_seeds ~src_pos:pos ~dst:children ~dst_pos:0 ~len:16;
      Lw_util.Xorbuf.xor_into ~src:k.cw_seeds ~src_pos:pos ~dst:children ~dst_pos:16 ~len:16;
      bits lxor Char.code (Bytes.get k.cw_bits level)
    end
    else bits

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

  (* full-depth bits: the control bit at every leaf *)
  let eval_all_bits k f = eval_depth k ~depth:k.domain_bits (fun x t _ _ -> f x t)

  let eval_values k =
    let out = Array.make (1 lsl k.domain_bits) "" in
    eval_depth k ~depth:k.domain_bits (fun x t seed pos ->
        let share = Prg.convert k.prg ~seed ~pos ~len:(String.length k.cw_leaf) in
        out.(x) <- (if t = 1 then Lw_util.Xorbuf.xor share k.cw_leaf else share));
    out

  (* The bits an early-terminated key must produce, per share: walk the
     shared top of the tree, then Convert each leaf seed and apply the
     leaf word [cw_leaf] under its control bit. *)
  let early_bits k ~cw_leaf =
    let d = k.domain_bits in
    let depth = max 0 (d - 7) in
    let out = Bytes.create (1 lsl d) in
    let word = Bytes.create 16 in
    eval_depth k ~depth (fun leaf t seed pos ->
        Prg.convert_block k.prg ~src:seed ~src_pos:pos ~dst:word ~dst_pos:0;
        if t = 1 then Lw_util.Xorbuf.xor_into ~src:cw_leaf ~src_pos:0 ~dst:word ~dst_pos:0 ~len:16;
        for j = 0 to (1 lsl (d - depth)) - 1 do
          let bit = (Char.code (Bytes.get word (j / 8)) lsr (j mod 8)) land 1 in
          Bytes.set out ((leaf lsl (d - depth)) + j) (Char.chr bit)
        done);
    out

  (* the version-1 serialisation, which [Dpf.deserialize] must now refuse *)
  let serialize_v1 k =
    let buf = Buffer.create 64 in
    Buffer.add_string buf "D\001";
    List.iter (fun b -> Buffer.add_char buf (Char.chr b))
      [ k.party; k.root_t; Prg.to_tag k.prg; k.domain_bits ];
    Buffer.add_int32_be buf (Int32.of_int (String.length k.cw_leaf));
    Buffer.add_bytes buf k.root_seed;
    Buffer.add_bytes buf k.cw_seeds;
    Buffer.add_bytes buf k.cw_bits;
    Buffer.add_string buf k.cw_leaf;
    Buffer.contents buf
end

(* The v2 layout carries the leaf word last and its bit offset at byte 6. *)
let leaf_cw_of k =
  let s = Dpf.serialize k in
  Bytes.of_string (String.sub s (String.length s - 16) 16)

let bits_of_blocked k ~block_bits =
  let out = Bytes.make (1 lsl Dpf.domain_bits k) '\xff' in
  Dpf.eval_bits_blocked k ~block_bits (fun base buf count -> Bytes.blit buf 0 out base count);
  out

let bits_of_all k =
  let out = Bytes.make (1 lsl Dpf.domain_bits k) '\xff' in
  Dpf.eval_all_bits k (fun x t -> Bytes.set out x (Char.chr t));
  out

(* Every evaluation path of one early-terminated share against the
   oracle's bits for that share: full domain, blocked at several widths,
   point evaluation, and the sub-keys of every split depth (sampled past
   16 shards, alpha's shard always kept) — each also through
   serialize/deserialize. Returns the first mismatch, if any. *)
let check_share_against_oracle ~rand ~alpha ~(ok : Dpf.key) ~(oracle : Full_depth.key) =
  let d = Dpf.domain_bits ok in
  let depth = max 0 (d - 7) in
  let want = Full_depth.early_bits oracle ~cw_leaf:(leaf_cw_of ok) in
  let fail = ref None in
  let expect what cond = if !fail = None && not cond then fail := Some what in
  (* the shared top of the tree: same seeds and control bits *)
  let nodes eval =
    let l = ref [] in
    eval (fun p t s pos -> l := (p, t, Bytes.sub_string s pos 16) :: !l);
    !l
  in
  expect "tree prefix"
    (nodes (Dpf.eval_prefixes ok ~levels:depth) = nodes (Full_depth.eval_depth oracle ~depth));
  expect "eval_all_bits" (Bytes.equal want (bits_of_all ok));
  List.iter
    (fun b ->
      if b <= d then
        expect (Printf.sprintf "blocked %d" b) (Bytes.equal want (bits_of_blocked ok ~block_bits:b)))
    [ 0; 1; 3; 6; 7; 8; d ];
  List.iter
    (fun x ->
      let x = x land ((1 lsl d) - 1) in
      expect (Printf.sprintf "eval_bit %d" x) (Dpf.eval_bit ok x = Char.code (Bytes.get want x)))
    [ 0; alpha; alpha + 1; (1 lsl d) - 1; Random.State.int rand (1 lsl d) ];
  for s = 1 to d - 1 do
    let subs = Distributed.split ok ~shard_bits:s in
    let rem = d - s in
    let shards =
      if s <= 4 then List.init (1 lsl s) Fun.id
      else (alpha lsr rem) :: List.init 15 (fun _ -> Random.State.int rand (1 lsl s))
    in
    List.iter
      (fun shard ->
        let window = Bytes.sub want (shard lsl rem) (1 lsl rem) in
        let sub = subs.(shard) in
        let what = Printf.sprintf "split %d shard %d" s shard in
        expect what (Bytes.equal window (bits_of_all sub));
        expect (what ^ " blocked") (Bytes.equal window (bits_of_blocked sub ~block_bits:(rem / 2)));
        match Dpf.deserialize (Dpf.serialize sub) with
        | Error e -> expect (what ^ " deserialize: " ^ e) false
        | Ok sub' -> expect (what ^ " roundtrip") (Bytes.equal window (bits_of_all sub')))
      shards
  done;
  (want, !fail)

(* d in 1..20, both parties, both PRG constructions, every split depth *)
let prop_early_termination_oracle =
  QCheck.Test.make ~name:"bit keys match full-depth oracle" ~count:1
    QCheck.(pair small_nat (int_range 0 max_int))
    (fun (seed, a) ->
      let rand = Random.State.make [| seed; a |] in
      List.for_all
        (fun prg ->
          List.for_all
            (fun d ->
              let alpha = a land ((1 lsl d) - 1) in
              let seed = Printf.sprintf "oracle-%d-%d" seed d in
              let k0, k1 = Dpf.gen ~prg ~domain_bits:d ~alpha (Lw_crypto.Drbg.create ~seed) in
              let o0, o1 =
                Full_depth.gen ~prg ~domain_bits:d ~alpha (Lw_crypto.Drbg.create ~seed)
              in
              let w0, f0 = check_share_against_oracle ~rand ~alpha ~ok:k0 ~oracle:o0 in
              let w1, f1 = check_share_against_oracle ~rand ~alpha ~ok:k1 ~oracle:o1 in
              let report = function
                | None -> true
                | Some what ->
                    QCheck.Test.fail_reportf "%s d=%d alpha=%d: %s" (Prg.name prg) d alpha what
              in
              let point = ref true in
              Bytes.iteri
                (fun x c ->
                  let v = Char.code c lxor Char.code (Bytes.get w1 x) in
                  if v <> Bool.to_int (x = alpha) then point := false)
                w0;
              report f0 && report f1 && !point)
            (List.init 20 (fun i -> i + 1)))
        [ Prg.Aes_mmo; Prg.Chacha 8 ])

(* Value-carrying keys keep the full-depth tree: same key material and the
   same shares as the oracle, index for index. *)
let test_value_keys_match_oracle () =
  iter_prgs (fun prg ->
      List.iter
        (fun d ->
          let alpha = (37 * d) land ((1 lsl d) - 1) and value = "full-depth value share" in
          let seed = Printf.sprintf "value-oracle-%d" d in
          let k0, k1 = Dpf.gen ~prg ~value ~domain_bits:d ~alpha (Lw_crypto.Drbg.create ~seed) in
          let o0, o1 =
            Full_depth.gen ~prg ~value ~domain_bits:d ~alpha (Lw_crypto.Drbg.create ~seed)
          in
          List.iter
            (fun (k, o) ->
              let bits = Bytes.create (1 lsl d) in
              Full_depth.eval_all_bits o (fun x t -> Bytes.set bits x (Char.chr t));
              Alcotest.(check bool) "control bits" true (Bytes.equal bits (bits_of_all k));
              Array.iteri
                (fun x share -> Alcotest.(check string) "value share" share (Dpf.eval_value k x))
                (Full_depth.eval_values o))
            [ (k0, o0); (k1, o1) ])
        [ 1; 5; 9 ])

let test_narrow_subkey_serialisation () =
  (* d=10 keeps a 3-level tree; splitting 8 deep leaves 4-output windows
     at bit offsets 0, 4, .., 124 of each leaf word *)
  let k0, _ = Dpf.gen ~domain_bits:10 ~alpha:555 (rng ()) in
  let subs = Distributed.split k0 ~shard_bits:8 in
  Array.iteri
    (fun shard sub ->
      let s = Dpf.serialize sub in
      Alcotest.(check int) "narrow size"
        (Dpf.serialized_size ~domain_bits:2 ~value_len:0)
        (String.length s);
      Alcotest.(check int) "leaf offset byte" (4 * (shard land 31)) (Char.code s.[6]);
      match Dpf.deserialize s with
      | Error e -> Alcotest.fail e
      | Ok sub' ->
          for j = 0 to 3 do
            Alcotest.(check int)
              (Printf.sprintf "shard %d j %d" shard j)
              (Dpf.eval_bit k0 ((shard lsl 2) + j))
              (Dpf.eval_bit sub' j)
          done)
    subs;
  let s = Dpf.serialize subs.(3) in
  let with_off off =
    let b = Bytes.of_string s in
    Bytes.set b 6 (Char.chr off);
    Dpf.deserialize (Bytes.to_string b)
  in
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "misaligned window" true (is_err (with_off 2));
  Alcotest.(check bool) "window past the word" true (is_err (with_off 128));
  Alcotest.(check bool) "aligned window" false (is_err (with_off 124))

let test_rejects_version1 () =
  List.iter
    (fun value ->
      let o0, _ = Full_depth.gen ?value ~domain_bits:12 ~alpha:1000 (rng ()) in
      match Dpf.deserialize (Full_depth.serialize_v1 o0) with
      | Ok _ -> Alcotest.fail "version-1 key accepted"
      | Error e -> Alcotest.(check string) "error" "unsupported version" e)
    [ None; Some "v" ]

(* ---------------- properties ---------------- *)

let prop_correctness =
  QCheck.Test.make ~name:"dpf point function (random d, alpha)" ~count:60
    QCheck.(pair (int_range 1 11) (int_range 0 10000))
    (fun (d, a) ->
      let alpha = a mod (1 lsl d) in
      let k0, k1 = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
      let ok = ref true in
      for x = 0 to (1 lsl d) - 1 do
        let v = Dpf.eval_bit k0 x lxor Dpf.eval_bit k1 x in
        if v <> if x = alpha then 1 else 0 then ok := false
      done;
      !ok)

let prop_value_roundtrip =
  QCheck.Test.make ~name:"value dpf reconstructs value" ~count:40
    QCheck.(pair (int_range 1 8) (string_of_size Gen.(1 -- 64)))
    (fun (d, value) ->
      let alpha = Hashtbl.hash value mod (1 lsl d) in
      let k0, k1 = Dpf.gen ~value ~domain_bits:d ~alpha (rng ()) in
      String.equal value (Lw_util.Xorbuf.xor (Dpf.eval_value k0 alpha) (Dpf.eval_value k1 alpha)))

let prop_distributed_split =
  QCheck.Test.make ~name:"distributed split equals direct eval" ~count:30
    QCheck.(triple (int_range 3 9) (int_range 1 2) (int_range 0 100000))
    (fun (d, sb, a) ->
      let alpha = a mod (1 lsl d) in
      let k0, _ = Dpf.gen ~domain_bits:d ~alpha (rng ()) in
      let subs = Distributed.split k0 ~shard_bits:sb in
      let rem = d - sb in
      let ok = ref true in
      Array.iteri
        (fun shard sub ->
          for j = 0 to (1 lsl rem) - 1 do
            if Dpf.eval_bit sub j <> Dpf.eval_bit k0 (Distributed.global_index ~rem_bits:rem ~shard j)
            then ok := false
          done)
        subs;
      !ok)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_correctness; prop_value_roundtrip; prop_distributed_split ]

let () =
  Alcotest.run "lw_dpf"
    [
      ( "correctness",
        [
          Alcotest.test_case "point bits" `Quick test_point_function_bits;
          Alcotest.test_case "all alphas d=4" `Quick test_point_function_all_alphas;
          Alcotest.test_case "value dpf" `Quick test_value_dpf;
          Alcotest.test_case "domain edges" `Quick test_domain_edges;
          Alcotest.test_case "gen validation" `Quick test_gen_validation;
          Alcotest.test_case "eval validation" `Quick test_eval_validation;
        ] );
      ( "eval_all",
        [
          Alcotest.test_case "matches point eval" `Quick test_eval_all_matches_point;
          Alcotest.test_case "in-order traversal" `Quick test_eval_all_visits_in_order;
          Alcotest.test_case "seeds give value shares" `Quick test_eval_all_seeds_value_shares;
          Alcotest.test_case "selected indices" `Quick test_selected_indices_halfish;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "share equivalence" `Quick test_distributed_equivalence;
          Alcotest.test_case "combined correctness" `Quick test_distributed_correctness_combined;
          Alcotest.test_case "validation" `Quick test_distributed_validation;
          Alcotest.test_case "value dpf through shards" `Quick test_distributed_value_dpf;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "subkey roundtrip" `Quick test_serialize_subkey_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_deserialize_rejects;
          Alcotest.test_case "key sizes" `Quick test_key_sizes;
          Alcotest.test_case "narrow subkey roundtrip" `Quick test_narrow_subkey_serialisation;
          Alcotest.test_case "rejects version 1" `Quick test_rejects_version1;
        ] );
      ( "early-term",
        [
          Alcotest.test_case "value keys match full-depth oracle" `Quick test_value_keys_match_oracle;
          QCheck_alcotest.to_alcotest prop_early_termination_oracle;
        ] );
      ( "privacy",
        [
          Alcotest.test_case "single share balanced" `Quick test_single_share_balanced_bits;
          Alcotest.test_case "fresh randomness" `Quick test_keys_differ_between_gens;
        ] );
      ("properties", props);
    ]

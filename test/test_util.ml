let test_hex_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "roundtrip" s (Lw_util.Hex.decode (Lw_util.Hex.encode s)))
    [ ""; "\x00"; "abc"; String.init 256 Char.chr ]

let test_hex_decode_cases () =
  Alcotest.(check string) "upper" "\xde\xad\xbe\xef" (Lw_util.Hex.decode "DEADBEEF");
  Alcotest.(check (option string)) "odd" None (Lw_util.Hex.decode_opt "abc");
  Alcotest.(check (option string)) "bad char" None (Lw_util.Hex.decode_opt "zz");
  Alcotest.(check (option string)) "ok" (Some "\x01\x02") (Lw_util.Hex.decode_opt "0102")

let test_xor_basic () =
  Alcotest.(check string) "self-inverse" "abc" (Lw_util.Xorbuf.xor (Lw_util.Xorbuf.xor "abc" "xyz") "xyz");
  Alcotest.(check string) "zero" "abc" (Lw_util.Xorbuf.xor "abc" "\x00\x00\x00");
  Alcotest.check_raises "length mismatch" (Invalid_argument "Xorbuf.xor: length mismatch")
    (fun () -> ignore (Lw_util.Xorbuf.xor "ab" "abc"))

let test_xor_into_offsets () =
  (* exercise the word loop + tail across alignments *)
  List.iter
    (fun (len, spos, dpos) ->
      let src = Bytes.init 64 (fun i -> Char.chr (i land 0xff)) in
      let dst = Bytes.make 64 '\x55' in
      let expected =
        Bytes.init 64 (fun i ->
            if i >= dpos && i < dpos + len then
              Char.chr (0x55 lxor Char.code (Bytes.get src (spos + i - dpos)))
            else '\x55')
      in
      Lw_util.Xorbuf.xor_into ~src ~src_pos:spos ~dst ~dst_pos:dpos ~len;
      Alcotest.(check string)
        (Printf.sprintf "len=%d s=%d d=%d" len spos dpos)
        (Bytes.to_string expected) (Bytes.to_string dst))
    [ (0, 0, 0); (1, 0, 0); (7, 3, 5); (8, 1, 2); (9, 0, 0); (16, 8, 8); (33, 7, 13) ]

let test_xor_bounds () =
  let b = Bytes.make 8 '\x00' in
  Alcotest.check_raises "src overflow"
    (Invalid_argument "Xorbuf.xor_into(src): range out of bounds") (fun () ->
      Lw_util.Xorbuf.xor_into ~src:b ~src_pos:4 ~dst:(Bytes.make 32 '\x00') ~dst_pos:0 ~len:8)

let test_xor_bounds_overflow () =
  (* pos + len overflowing the native int must still be rejected: the
     check is [pos > total - len], never the wrappable sum *)
  let b = Bytes.make 8 '\x00' in
  let dst = Bytes.make 8 '\x00' in
  List.iter
    (fun (spos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos=%d len=%d" spos len)
        (Invalid_argument "Xorbuf.xor_into(src): range out of bounds")
        (fun () -> Lw_util.Xorbuf.xor_into ~src:b ~src_pos:spos ~dst ~dst_pos:0 ~len))
    [ (1, max_int); (max_int, 8); (4, max_int - 2); (0, -1); (-1, 4) ]

let test_is_zero () =
  Alcotest.(check bool) "zero" true (Lw_util.Xorbuf.is_zero "\x00\x00");
  Alcotest.(check bool) "nonzero" false (Lw_util.Xorbuf.is_zero "\x00\x01");
  Alcotest.(check bool) "empty" true (Lw_util.Xorbuf.is_zero "");
  (* word loop + byte tail: lone set bits at every offset of a 19-byte
     buffer, plus ranges that exclude the set byte *)
  for i = 0 to 18 do
    let b = Bytes.make 19 '\x00' in
    Bytes.set b i '\x80';
    Alcotest.(check bool)
      (Printf.sprintf "bit at %d seen" i)
      false
      (Lw_util.Xorbuf.is_zero_range b ~pos:0 ~len:19);
    Alcotest.(check bool)
      (Printf.sprintf "bit at %d excluded" i)
      true
      (Lw_util.Xorbuf.is_zero_range b ~pos:((i + 1) mod 19)
         ~len:(if i = 18 then 18 else 19 - i - 1));
    Alcotest.(check bool) "empty range" true (Lw_util.Xorbuf.is_zero_range b ~pos:i ~len:0)
  done;
  Alcotest.check_raises "range checked"
    (Invalid_argument "Xorbuf.is_zero_range: range out of bounds") (fun () ->
      ignore (Lw_util.Xorbuf.is_zero_range (Bytes.make 4 '\x00') ~pos:2 ~len:max_int))

(* reference implementation for the masked/packed kernels *)
let naive_masked ~mask ~src ~dst =
  Bytes.mapi
    (fun i d -> Char.chr (Char.code d lxor (Char.code (Bytes.get src i) land mask)))
    dst

(* Byte-wise reference for the block kernels: record [j] of [src] (from
   [src_pos]) XORed into a copy of [dst] under the byte mask splatted
   from [bit j] (0 or 1). *)
let naive_block ~bit ~count ~src ~src_pos ~bucket ~dst =
  let acc = ref (Bytes.copy dst) in
  for j = 0 to count - 1 do
    let b = Bytes.sub src (src_pos + (j * bucket)) bucket in
    acc := naive_masked ~mask:(-bit j land 0xff) ~src:b ~dst:!acc
  done;
  !acc

(* Lanes as [Server.packed] lays out a pack: [live] accumulators, then
   one shared scratch buffer in every spare lane. *)
let padded_lanes ~live accs scratch =
  Array.init 8 (fun q -> if q < live then accs.(q) else scratch)

let test_xor_buckets_masked () =
  let rng = Lw_util.Det_rng.of_string_seed "buckets-masked" in
  List.iter
    (fun (count, bucket) ->
      let src = Bytes.of_string (Lw_util.Det_rng.bytes rng (count * bucket)) in
      let bits0 = Bytes.init count (fun _ -> Char.chr (Lw_util.Det_rng.int rng 2)) in
      let bits1 = Bytes.init count (fun _ -> Char.chr (Lw_util.Det_rng.int rng 2)) in
      let dst0 = Bytes.of_string (Lw_util.Det_rng.bytes rng bucket) in
      let dst1 = Bytes.of_string (Lw_util.Det_rng.bytes rng bucket) in
      let expected bits dst =
        naive_block ~bit:(fun j -> Char.code (Bytes.get bits j)) ~count ~src ~src_pos:0 ~bucket
          ~dst
      in
      let want0 = expected bits0 dst0 and want1 = expected bits1 dst1 in
      let dst = Bytes.copy dst0 in
      Lw_util.Xorbuf.xor_buckets_masked ~bits:bits0 ~bits_pos:0 ~count ~src ~src_pos:0 ~bucket
        ~dst;
      let case = Printf.sprintf "count=%d bucket=%d" count bucket in
      Alcotest.(check string) case (Bytes.to_string want0) (Bytes.to_string dst);
      Lw_util.Xorbuf.xor_buckets_masked2 ~bits0 ~bits0_pos:0 ~bits1 ~bits1_pos:0 ~count ~src
        ~src_pos:0 ~bucket ~dst0 ~dst1;
      Alcotest.(check string) (case ^ " lane 0") (Bytes.to_string want0) (Bytes.to_string dst0);
      Alcotest.(check string) (case ^ " lane 1") (Bytes.to_string want1) (Bytes.to_string dst1))
    [ (1, 1); (3, 7); (4, 8); (5, 32); (2, 33); (7, 40); (1, 100) ];
  Alcotest.check_raises "src range"
    (Invalid_argument "Xorbuf.xor_buckets_masked(src): range out of bounds") (fun () ->
      Lw_util.Xorbuf.xor_buckets_masked ~bits:(Bytes.make 4 '\x00') ~bits_pos:0 ~count:4
        ~src:(Bytes.make 16 '\x00') ~src_pos:0 ~bucket:8 ~dst:(Bytes.make 8 '\x00'))

(* [lanes] live lanes padded to 8, [len]-byte buckets, three buckets per
   call (one two-bucket pass plus the odd one out) *)
let test_xor_buckets_packed () =
  let rng = Lw_util.Det_rng.of_string_seed "packed" in
  let count = 3 in
  List.iter
    (fun (lanes, len) ->
      let src = Bytes.of_string (Lw_util.Det_rng.bytes rng (count * len)) in
      let packs =
        Bytes.init count (fun _ -> Char.chr (Lw_util.Det_rng.int rng 256 land ((1 lsl lanes) - 1)))
      in
      let accs = Array.init lanes (fun _ -> Bytes.of_string (Lw_util.Det_rng.bytes rng len)) in
      let expected =
        Array.mapi
          (fun q dst ->
            naive_block
              ~bit:(fun j -> (Char.code (Bytes.get packs j) lsr q) land 1)
              ~count ~src ~src_pos:0 ~bucket:len ~dst)
          accs
      in
      let scratch = Bytes.make len '\x00' in
      Lw_util.Xorbuf.xor_buckets_packed ~packs ~packs_pos:0 ~count ~src ~src_pos:0 ~bucket:len
        ~dsts:(padded_lanes ~live:lanes accs scratch);
      Array.iteri
        (fun q dst ->
          Alcotest.(check string)
            (Printf.sprintf "lanes=%d len=%d lane=%d" lanes len q)
            (Bytes.to_string expected.(q))
            (Bytes.to_string dst))
        accs;
      Alcotest.(check bool)
        (Printf.sprintf "lanes=%d len=%d scratch untouched" lanes len)
        true
        (Lw_util.Xorbuf.is_zero_range scratch ~pos:0 ~len))
    [ (1, 5); (2, 16); (3, 17); (8, 8); (8, 64); (8, 67); (5, 33); (8, 1) ];
  Alcotest.check_raises "lane count"
    (Invalid_argument "Xorbuf.xor_buckets_packed: need 8 lanes") (fun () ->
      Lw_util.Xorbuf.xor_buckets_packed ~packs:(Bytes.make 1 '\x00') ~packs_pos:0 ~count:1
        ~src:(Bytes.make 8 '\x00') ~src_pos:0 ~bucket:8 ~dsts:[||])

let test_bitops () =
  Alcotest.(check int32) "rotl32" 0x00000001l (Lw_util.Bitops.rotl32 0x80000000l 1);
  Alcotest.(check int) "popcount" 3 (Lw_util.Bitops.popcount 0b1011);
  Alcotest.(check int) "log2_ceil 1" 0 (Lw_util.Bitops.log2_ceil 1);
  Alcotest.(check int) "log2_ceil 5" 3 (Lw_util.Bitops.log2_ceil 5);
  Alcotest.(check int) "log2_ceil 8" 3 (Lw_util.Bitops.log2_ceil 8);
  Alcotest.(check int) "log2_floor 5" 2 (Lw_util.Bitops.log2_floor 5);
  Alcotest.(check bool) "pow2 yes" true (Lw_util.Bitops.is_power_of_two 64);
  Alcotest.(check bool) "pow2 no" false (Lw_util.Bitops.is_power_of_two 48);
  Alcotest.(check bool) "pow2 zero" false (Lw_util.Bitops.is_power_of_two 0);
  Alcotest.(check int) "bit" 1 (Lw_util.Bitops.bit 0b100 2);
  Alcotest.(check int) "bit_msb top" 1 (Lw_util.Bitops.bit_msb 0b100 ~width:3 0);
  Alcotest.(check int) "bit_msb bottom" 0 (Lw_util.Bitops.bit_msb 0b100 ~width:3 2);
  Alcotest.(check int) "ceil_div" 3 (Lw_util.Bitops.ceil_div 9 4);
  Alcotest.(check int) "ceil_div exact" 2 (Lw_util.Bitops.ceil_div 8 4);
  Alcotest.(check int) "round_up" 12 (Lw_util.Bitops.round_up 9 ~multiple:4)

let test_det_rng_determinism () =
  let a = Lw_util.Det_rng.create 42L and b = Lw_util.Det_rng.create 42L in
  for _ = 1 to 20 do
    Alcotest.(check int64) "same" (Lw_util.Det_rng.next_int64 a) (Lw_util.Det_rng.next_int64 b)
  done

let test_det_rng_split_independence () =
  let a = Lw_util.Det_rng.create 42L in
  let c = Lw_util.Det_rng.split a in
  Alcotest.(check bool) "diverge" true
    (Lw_util.Det_rng.next_int64 a <> Lw_util.Det_rng.next_int64 c)

let test_det_rng_bounds () =
  let rng = Lw_util.Det_rng.of_string_seed "bounds" in
  for _ = 1 to 500 do
    let v = Lw_util.Det_rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 100 do
    let f = Lw_util.Det_rng.float rng 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0. && f < 2.5)
  done

let test_det_rng_bytes () =
  let rng = Lw_util.Det_rng.of_string_seed "bytes" in
  List.iter
    (fun n -> Alcotest.(check int) "len" n (String.length (Lw_util.Det_rng.bytes rng n)))
    [ 0; 1; 7; 8; 9; 100 ]

let test_det_rng_shuffle_permutes () =
  let rng = Lw_util.Det_rng.of_string_seed "shuffle" in
  let a = Array.init 100 (fun i -> i) in
  Lw_util.Det_rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

let test_stats_summary () =
  let s = Lw_util.Stats.summarize [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check int) "count" 5 s.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.max;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.p50;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) s.stddev

let test_stats_percentile_interpolation () =
  Alcotest.(check (float 1e-9)) "p25" 1.5 (Lw_util.Stats.percentile [| 1.; 2.; 3. |] 25.);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Lw_util.Stats.percentile [| 3.; 1.; 2. |] 0.);
  Alcotest.(check (float 1e-9)) "p100" 3.0 (Lw_util.Stats.percentile [| 3.; 1.; 2. |] 100.)

let test_stats_histogram () =
  let h = Lw_util.Stats.histogram ~buckets:4 ~lo:0. ~hi:4. in
  List.iter (Lw_util.Stats.hist_add h) [ 0.5; 1.5; 1.7; 3.9; -1.; 10. ];
  Alcotest.(check (array int)) "counts" [| 2; 2; 0; 2 |] (Lw_util.Stats.hist_counts h);
  Alcotest.(check int) "total" 6 (Lw_util.Stats.hist_total h)

let test_ascii_bar () =
  let out = Lw_util.Ascii_chart.bar ~width:10 [ ("aa", 10.); ("b", 5.); ("c", 0.) ] in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "three rows" 3 (List.length lines);
  (match lines with
  | [ a; b; c ] ->
      Alcotest.(check bool) "full bar" true
        (String.length a >= 14 && String.sub a 4 10 = String.make 10 '#');
      Alcotest.(check bool) "half bar" true
        (let hashes = List.length (String.split_on_char '#' b) - 1 in
         hashes = 5);
      Alcotest.(check bool) "empty bar" true (not (String.contains c '#'))
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check string) "no data" "(no data)\n" (Lw_util.Ascii_chart.bar [])

let test_ascii_line_and_cdf () =
  let out =
    Lw_util.Ascii_chart.line ~width:20 ~height:5 [ (0., 0.); (1., 1.); (2., 4.) ]
  in
  Alcotest.(check bool) "has stars" true (String.contains out '*');
  Alcotest.(check bool) "has axis" true (String.contains out '+');
  (* constant series doesn't divide by zero *)
  let flat = Lw_util.Ascii_chart.line ~width:10 ~height:3 [ (1., 2.); (2., 2.) ] in
  Alcotest.(check bool) "flat ok" true (String.contains flat '*');
  let cdf = Lw_util.Ascii_chart.cdf ~width:20 ~height:5 [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check bool) "cdf renders" true (String.contains cdf '*');
  Alcotest.(check string) "cdf empty" "(no data)\n" (Lw_util.Ascii_chart.cdf [||])

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"det_rng int covers all residues" ~count:20
    QCheck.(int_range 2 30)
    (fun bound ->
      let rng = Lw_util.Det_rng.of_string_seed (string_of_int bound) in
      let seen = Array.make bound false in
      for _ = 1 to bound * 50 do
        seen.(Lw_util.Det_rng.int rng bound) <- true
      done;
      Array.for_all (fun x -> x) seen)

let prop_xor_associative =
  QCheck.Test.make ~name:"xor associativity" ~count:100
    QCheck.(triple (string_of_size Gen.(1 -- 64)) small_string small_string)
    (fun (a, _, _) ->
      let n = String.length a in
      let rng = Lw_util.Det_rng.of_string_seed a in
      let b = Lw_util.Det_rng.bytes rng n and c = Lw_util.Det_rng.bytes rng n in
      String.equal
        (Lw_util.Xorbuf.xor (Lw_util.Xorbuf.xor a b) c)
        (Lw_util.Xorbuf.xor a (Lw_util.Xorbuf.xor b c)))

(* The byte-at-a-time boxed-Int32 CRC-32 that slicing-by-8 replaced,
   kept as the oracle for the fast path. *)
let crc32_bytewise crc s ~pos ~len =
  let table =
    Array.init 256 (fun i ->
        let c = ref (Int32.of_int i) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)
  in
  let crc = ref (Int32.lognot crc) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code s.[i]))) 0xffl)
    in
    crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8)
  done;
  Int32.lognot !crc

let test_crc32_vectors () =
  Alcotest.(check int32) "check value" 0xCBF43926l (Lw_util.Crc32.digest "123456789");
  Alcotest.(check int32) "empty" 0l (Lw_util.Crc32.digest "");
  Alcotest.check_raises "range" (Invalid_argument "Crc32.update") (fun () ->
      ignore (Lw_util.Crc32.update 0l "abc" ~pos:2 ~len:2))

let prop_crc32_matches_bytewise =
  QCheck.Test.make ~name:"crc32 slicing-by-8 = byte-at-a-time" ~count:300
    QCheck.(quad (string_of_size Gen.(0 -- 200)) small_nat small_nat int32)
    (fun (s, a, b, init) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      Int32.equal
        (Lw_util.Crc32.update init s ~pos ~len)
        (crc32_bytewise init s ~pos ~len)
      && Int32.equal (Lw_util.Crc32.digest s) (crc32_bytewise 0l s ~pos:0 ~len:n))

(* The three block kernels against the byte-wise reference: every
   [count mod 4] and [count mod 2] remainder, word tails, nonzero
   offsets, selection bytes whose other bits are random (only the low
   bit, or the lane's bit, may count) and packs of 1..8 live lanes whose
   padded lanes share a scratch accumulator that must stay zero. *)
type block_case = {
  count : int;
  bucket : int;
  bits_pos : int;
  src_pos : int;
  live : int;
  src : Bytes.t;
  sel0 : Bytes.t;
  sel1 : Bytes.t;
  dsts : Bytes.t array;
}

let arb_block_case =
  QCheck.(
    quad (int_range 0 37) (int_range 1 80)
      (pair (int_range 1 17) (int_range 1 17))
      (pair (int_range 1 8) small_nat))

let block_case (count, bucket, (bits_pos, src_pos), (live, seed)) =
  let rng =
    Lw_util.Det_rng.of_string_seed
      (Printf.sprintf "block %d %d %d %d %d %d" count bucket bits_pos src_pos live seed)
  in
  let bytes n = Bytes.of_string (Lw_util.Det_rng.bytes rng n) in
  {
    count;
    bucket;
    bits_pos;
    src_pos;
    live;
    src = bytes (src_pos + (count * bucket));
    sel0 = bytes (bits_pos + count);
    sel1 = bytes (bits_pos + count);
    dsts = Array.init 8 (fun _ -> bytes bucket);
  }

let sel_bit sel ~pos ~lane j = (Char.code (Bytes.get sel (pos + j)) lsr lane) land 1

let prop_masked_kernel =
  QCheck.Test.make ~name:"block kernel width 1 = reference" ~count:300 arb_block_case
    (fun c ->
      let c = block_case c in
      let dst = c.dsts.(0) in
      let want =
        naive_block ~bit:(sel_bit c.sel0 ~pos:c.bits_pos ~lane:0) ~count:c.count ~src:c.src
          ~src_pos:c.src_pos ~bucket:c.bucket ~dst
      in
      Lw_util.Xorbuf.xor_buckets_masked ~bits:c.sel0 ~bits_pos:c.bits_pos ~count:c.count
        ~src:c.src ~src_pos:c.src_pos ~bucket:c.bucket ~dst;
      Bytes.equal want dst)

let prop_masked2_kernel =
  QCheck.Test.make ~name:"block kernel width 2 = reference" ~count:300 arb_block_case
    (fun c ->
      let c = block_case c in
      (* lane 1's selection bytes start one byte later than lane 0's *)
      let dst0 = c.dsts.(0) and dst1 = c.dsts.(1) in
      let want sel pos dst =
        naive_block ~bit:(sel_bit sel ~pos ~lane:0) ~count:c.count ~src:c.src ~src_pos:c.src_pos
          ~bucket:c.bucket ~dst
      in
      let want0 = want c.sel0 c.bits_pos dst0 and want1 = want c.sel1 (c.bits_pos - 1) dst1 in
      Lw_util.Xorbuf.xor_buckets_masked2 ~bits0:c.sel0 ~bits0_pos:c.bits_pos ~bits1:c.sel1
        ~bits1_pos:(c.bits_pos - 1) ~count:c.count ~src:c.src ~src_pos:c.src_pos
        ~bucket:c.bucket ~dst0 ~dst1;
      Bytes.equal want0 dst0 && Bytes.equal want1 dst1)

let prop_packed_kernel =
  QCheck.Test.make ~name:"block kernel packed = reference" ~count:300 arb_block_case
    (fun c ->
      let c = block_case c in
      (* pack bytes carry random bits in the live lanes only, as
         [Server.packed] builds them *)
      let live_mask = (1 lsl c.live) - 1 in
      let packs = Bytes.map (fun b -> Char.chr (Char.code b land live_mask)) c.sel0 in
      let accs = Array.sub c.dsts 0 c.live in
      let want =
        Array.mapi
          (fun q dst ->
            naive_block ~bit:(sel_bit packs ~pos:c.bits_pos ~lane:q) ~count:c.count ~src:c.src
              ~src_pos:c.src_pos ~bucket:c.bucket ~dst)
          accs
      in
      let scratch = Bytes.make c.bucket '\x00' in
      Lw_util.Xorbuf.xor_buckets_packed ~packs ~packs_pos:c.bits_pos ~count:c.count ~src:c.src
        ~src_pos:c.src_pos ~bucket:c.bucket ~dsts:(padded_lanes ~live:c.live accs scratch);
      Array.for_all2 Bytes.equal want accs
      && Lw_util.Xorbuf.is_zero_range scratch ~pos:0 ~len:c.bucket)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_rng_int_uniformish;
      prop_xor_associative;
      prop_crc32_matches_bytewise;
      prop_masked_kernel;
      prop_masked2_kernel;
      prop_packed_kernel;
    ]

let () =
  Alcotest.run "lw_util"
    [
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "decode cases" `Quick test_hex_decode_cases;
        ] );
      ( "xorbuf",
        [
          Alcotest.test_case "basic" `Quick test_xor_basic;
          Alcotest.test_case "offsets" `Quick test_xor_into_offsets;
          Alcotest.test_case "bounds" `Quick test_xor_bounds;
          Alcotest.test_case "bounds overflow" `Quick test_xor_bounds_overflow;
          Alcotest.test_case "is_zero" `Quick test_is_zero;
          Alcotest.test_case "buckets masked" `Quick test_xor_buckets_masked;
          Alcotest.test_case "packed lanes" `Quick test_xor_buckets_packed;
        ] );
      ("bitops", [ Alcotest.test_case "all" `Quick test_bitops ]);
      ("crc32", [ Alcotest.test_case "vectors" `Quick test_crc32_vectors ]);
      ( "det_rng",
        [
          Alcotest.test_case "determinism" `Quick test_det_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_det_rng_split_independence;
          Alcotest.test_case "bounds" `Quick test_det_rng_bounds;
          Alcotest.test_case "bytes" `Quick test_det_rng_bytes;
          Alcotest.test_case "shuffle permutes" `Quick test_det_rng_shuffle_permutes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interpolation;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "ascii-chart",
        [
          Alcotest.test_case "bar" `Quick test_ascii_bar;
          Alcotest.test_case "line and cdf" `Quick test_ascii_line_and_cdf;
        ] );
      ("properties", props);
    ]

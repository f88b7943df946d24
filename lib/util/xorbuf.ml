(* Unchecked native-endian word access. Every exported function validates
   its ranges once with [check_bounds] before entering a word loop, so the
   per-word bounds checks the safe accessors would pay (three per XOR'd
   word) are hoisted out of the scan kernels entirely. *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let check_bounds name pos len total =
  (* [pos > total - len] rather than [pos + len > total]: the sum can wrap
     negative for huge [len] and slip past the check, and every unsafe
     word access below relies on this gate. *)
  if pos < 0 || len < 0 || pos > total - len then
    invalid_arg (Printf.sprintf "Xorbuf.%s: range out of bounds" name)

(* The 64-bit inner loop reads/writes unaligned native-endian words; the
   scalar tail handles the last [len mod 8] bytes. *)
let xor_into ~src ~src_pos ~dst ~dst_pos ~len =
  check_bounds "xor_into(src)" src_pos len (Bytes.length src);
  check_bounds "xor_into(dst)" dst_pos len (Bytes.length dst);
  let words = len / 8 in
  for i = 0 to words - 1 do
    let s = unsafe_get64 src (src_pos + (8 * i)) in
    let d = unsafe_get64 dst (dst_pos + (8 * i)) in
    unsafe_set64 dst (dst_pos + (8 * i)) (Int64.logxor s d)
  done;
  for i = 8 * words to len - 1 do
    let s = Char.code (Bytes.unsafe_get src (src_pos + i)) in
    let d = Char.code (Bytes.unsafe_get dst (dst_pos + i)) in
    Bytes.unsafe_set dst (dst_pos + i) (Char.unsafe_chr (s lxor d))
  done

(* Like [xor_into], but every source byte is ANDed with [mask] first.
   With mask 0xff this is a plain XOR; with mask 0x00 it degenerates to a
   read-modify-write of [dst] with itself — same memory traffic, no data
   change. That makes a selective XOR scan constant-trace: the caller
   derives the mask arithmetically from a selection bit and touches every
   bucket identically whether or not it is selected. *)
let xor_into_masked ~mask ~src ~src_pos ~dst ~dst_pos ~len =
  check_bounds "xor_into_masked(src)" src_pos len (Bytes.length src);
  check_bounds "xor_into_masked(dst)" dst_pos len (Bytes.length dst);
  let mask = mask land 0xff in
  let m64 = Int64.mul (Int64.of_int mask) 0x0101010101010101L in
  let words = len / 8 in
  for i = 0 to words - 1 do
    let s = Bytes.get_int64_ne src (src_pos + (8 * i)) in
    let d = Bytes.get_int64_ne dst (dst_pos + (8 * i)) in
    Bytes.set_int64_ne dst (dst_pos + (8 * i)) (Int64.logxor (Int64.logand s m64) d)
  done;
  for i = 8 * words to len - 1 do
    let s = Char.code (Bytes.unsafe_get src (src_pos + i)) in
    let d = Char.code (Bytes.unsafe_get dst (dst_pos + i)) in
    Bytes.unsafe_set dst (dst_pos + i) (Char.unsafe_chr ((s land mask) lxor d))
  done

(* The three scan kernels below share one shape. A selection byte's low
   bit (or a pack byte's lane bit) is splatted arithmetically to a word
   mask, 0x00..00 or 0xff..ff, never branched on. Buckets are taken a
   block at a time: the block's source words are masked and folded in
   registers, and each accumulator word is loaded and stored once per
   block instead of once per bucket. Every source word is loaded and
   every accumulator word rewritten whatever the bits, so a scan's memory
   trace is independent of the selection. *)

let[@inline] splat b = Int64.neg (Int64.of_int (b land 1))
let[@inline] sel bits i = Char.code (Bytes.unsafe_get bits i)

(* Word [o] of [dst] ^= [x]: an accumulator's one read-modify-write. *)
let[@inline] xor_word dst o x = unsafe_set64 dst o (Int64.logxor (unsafe_get64 dst o) x)

(* Buckets' words folded in registers under their masks:
   [s0&m0 ^ s1&m1] and [s0&m0 ^ s1&m1 ^ s2&m2 ^ s3&m3]. *)
let[@inline] fold2 s0 m0 s1 m1 = Int64.logxor (Int64.logand s0 m0) (Int64.logand s1 m1)
let[@inline] fold4 s0 m0 s1 m1 s2 m2 s3 m3 = Int64.logxor (fold2 s0 m0 s1 m1) (fold2 s2 m2 s3 m3)

(* The blocked word loops step 16 bytes (two words) per iteration, which
   halves their loop overhead; the last [bucket mod 16] bytes of each
   bucket go through [xor_tail] instead. *)
let xor_tail ~b ~src ~pos ~bucket ~dst =
  let m = (0 - (b land 1)) land 0xff in
  for i = bucket land lnot 15 to bucket - 1 do
    let s = Char.code (Bytes.unsafe_get src (pos + i)) in
    let d = Char.code (Bytes.unsafe_get dst i) in
    Bytes.unsafe_set dst i (Char.unsafe_chr ((s land m) lxor d))
  done

(* One whole bucket under selection bit [b]: the step for the buckets
   left over after a kernel's blocked passes. *)
let xor_bucket ~b ~src ~pos ~bucket ~dst =
  let m = splat b in
  for w = 0 to (2 * (bucket / 16)) - 1 do
    let o = 8 * w in
    xor_word dst o (Int64.logand (unsafe_get64 src (pos + o)) m)
  done;
  xor_tail ~b ~src ~pos ~bucket ~dst

let check_geometry name ~count ~src_pos ~bucket ~src =
  if bucket <= 0 || count < 0 || count > max_int / bucket then
    invalid_arg (Printf.sprintf "Xorbuf.%s: bad geometry" name);
  check_bounds (name ^ "(src)") src_pos (count * bucket) (Bytes.length src)

(* Width 1: four buckets per pass, [x = s0&m0 ^ s1&m1 ^ s2&m2 ^ s3&m3]
   folded in registers, then one read-modify-write of [dst]. The bucket
   offsets are hoisted out of the word loop. *)
let xor_buckets_masked ~bits ~bits_pos ~count ~src ~src_pos ~bucket ~dst =
  check_geometry "xor_buckets_masked" ~count ~src_pos ~bucket ~src;
  check_bounds "xor_buckets_masked(bits)" bits_pos count (Bytes.length bits);
  check_bounds "xor_buckets_masked(dst)" 0 bucket (Bytes.length dst);
  let quads = count / 4 in
  for q = 0 to quads - 1 do
    let j = bits_pos + (4 * q) in
    let b0 = sel bits j and b1 = sel bits (j + 1) in
    let b2 = sel bits (j + 2) and b3 = sel bits (j + 3) in
    let m0 = splat b0 and m1 = splat b1 and m2 = splat b2 and m3 = splat b3 in
    let p0 = src_pos + (4 * q * bucket) in
    let p1 = p0 + bucket in
    let p2 = p1 + bucket in
    let p3 = p2 + bucket in
    for w = 0 to (bucket / 16) - 1 do
      let o = 16 * w in
      let x01 =
        Int64.logxor
          (Int64.logand (unsafe_get64 src (p0 + o)) m0)
          (Int64.logand (unsafe_get64 src (p1 + o)) m1)
      in
      let x23 =
        Int64.logxor
          (Int64.logand (unsafe_get64 src (p2 + o)) m2)
          (Int64.logand (unsafe_get64 src (p3 + o)) m3)
      in
      xor_word dst o (Int64.logxor x01 x23);
      let x01 =
        Int64.logxor
          (Int64.logand (unsafe_get64 src (p0 + o + 8)) m0)
          (Int64.logand (unsafe_get64 src (p1 + o + 8)) m1)
      in
      let x23 =
        Int64.logxor
          (Int64.logand (unsafe_get64 src (p2 + o + 8)) m2)
          (Int64.logand (unsafe_get64 src (p3 + o + 8)) m3)
      in
      xor_word dst (o + 8) (Int64.logxor x01 x23)
    done;
    if bucket land 15 <> 0 then begin
      xor_tail ~b:b0 ~src ~pos:p0 ~bucket ~dst;
      xor_tail ~b:b1 ~src ~pos:p1 ~bucket ~dst;
      xor_tail ~b:b2 ~src ~pos:p2 ~bucket ~dst;
      xor_tail ~b:b3 ~src ~pos:p3 ~bucket ~dst
    end
  done;
  for j = 4 * quads to count - 1 do
    xor_bucket ~b:(sel bits (bits_pos + j)) ~src ~pos:(src_pos + (j * bucket)) ~bucket ~dst
  done

(* Width 2, the two-probe keyword shape: the same four-bucket passes,
   both lanes folding the same four source loads. *)
let xor_buckets_masked2 ~bits0 ~bits0_pos ~bits1 ~bits1_pos ~count ~src ~src_pos ~bucket ~dst0
    ~dst1 =
  check_geometry "xor_buckets_masked2" ~count ~src_pos ~bucket ~src;
  check_bounds "xor_buckets_masked2(bits0)" bits0_pos count (Bytes.length bits0);
  check_bounds "xor_buckets_masked2(bits1)" bits1_pos count (Bytes.length bits1);
  check_bounds "xor_buckets_masked2(dst0)" 0 bucket (Bytes.length dst0);
  check_bounds "xor_buckets_masked2(dst1)" 0 bucket (Bytes.length dst1);
  let quads = count / 4 in
  for q = 0 to quads - 1 do
    let j0 = bits0_pos + (4 * q) and j1 = bits1_pos + (4 * q) in
    let a0 = splat (sel bits0 j0) and a1 = splat (sel bits0 (j0 + 1)) in
    let a2 = splat (sel bits0 (j0 + 2)) and a3 = splat (sel bits0 (j0 + 3)) in
    let c0 = splat (sel bits1 j1) and c1 = splat (sel bits1 (j1 + 1)) in
    let c2 = splat (sel bits1 (j1 + 2)) and c3 = splat (sel bits1 (j1 + 3)) in
    let p0 = src_pos + (4 * q * bucket) in
    let p1 = p0 + bucket in
    let p2 = p1 + bucket in
    let p3 = p2 + bucket in
    for w = 0 to (bucket / 16) - 1 do
      let o = 16 * w in
      let s0 = unsafe_get64 src (p0 + o) and s1 = unsafe_get64 src (p1 + o) in
      let s2 = unsafe_get64 src (p2 + o) and s3 = unsafe_get64 src (p3 + o) in
      xor_word dst0 o (fold4 s0 a0 s1 a1 s2 a2 s3 a3);
      xor_word dst1 o (fold4 s0 c0 s1 c1 s2 c2 s3 c3);
      let o = o + 8 in
      let s0 = unsafe_get64 src (p0 + o) and s1 = unsafe_get64 src (p1 + o) in
      let s2 = unsafe_get64 src (p2 + o) and s3 = unsafe_get64 src (p3 + o) in
      xor_word dst0 o (fold4 s0 a0 s1 a1 s2 a2 s3 a3);
      xor_word dst1 o (fold4 s0 c0 s1 c1 s2 c2 s3 c3)
    done;
    if bucket land 15 <> 0 then
      for k = 0 to 3 do
        let pos = p0 + (k * bucket) in
        xor_tail ~b:(sel bits0 (j0 + k)) ~src ~pos ~bucket ~dst:dst0;
        xor_tail ~b:(sel bits1 (j1 + k)) ~src ~pos ~bucket ~dst:dst1
      done
  done;
  for j = 4 * quads to count - 1 do
    let pos = src_pos + (j * bucket) in
    xor_bucket ~b:(sel bits0 (bits0_pos + j)) ~src ~pos ~bucket ~dst:dst0;
    xor_bucket ~b:(sel bits1 (bits1_pos + j)) ~src ~pos ~bucket ~dst:dst1
  done

(* The batch kernel: exactly 8 lanes, two buckets per pass. Lane [q]
   folds [s0&a_q ^ s1&c_q] from the pass's two source loads into its
   accumulator, [a_q] and [c_q] splatted from bit [q] of the two buckets'
   pack bytes. A batch narrower than 8 pads its spare lanes with a
   scratch accumulator whose pack bits are zero, so every width runs this
   one straight-line loop. *)
let xor_buckets_packed ~packs ~packs_pos ~count ~src ~src_pos ~bucket ~dsts =
  check_geometry "xor_buckets_packed" ~count ~src_pos ~bucket ~src;
  check_bounds "xor_buckets_packed(packs)" packs_pos count (Bytes.length packs);
  if Array.length dsts <> 8 then invalid_arg "Xorbuf.xor_buckets_packed: need 8 lanes";
  Array.iter (fun d -> check_bounds "xor_buckets_packed(dst)" 0 bucket (Bytes.length d)) dsts;
  let d0 = Array.unsafe_get dsts 0 and d1 = Array.unsafe_get dsts 1 in
  let d2 = Array.unsafe_get dsts 2 and d3 = Array.unsafe_get dsts 3 in
  let d4 = Array.unsafe_get dsts 4 and d5 = Array.unsafe_get dsts 5 in
  let d6 = Array.unsafe_get dsts 6 and d7 = Array.unsafe_get dsts 7 in
  let pairs = count / 2 in
  for p = 0 to pairs - 1 do
    let j = packs_pos + (2 * p) in
    let k0 = sel packs j and k1 = sel packs (j + 1) in
    let a0 = splat k0 and a1 = splat (k0 lsr 1) and a2 = splat (k0 lsr 2) in
    let a3 = splat (k0 lsr 3) and a4 = splat (k0 lsr 4) and a5 = splat (k0 lsr 5) in
    let a6 = splat (k0 lsr 6) and a7 = splat (k0 lsr 7) in
    let c0 = splat k1 and c1 = splat (k1 lsr 1) and c2 = splat (k1 lsr 2) in
    let c3 = splat (k1 lsr 3) and c4 = splat (k1 lsr 4) and c5 = splat (k1 lsr 5) in
    let c6 = splat (k1 lsr 6) and c7 = splat (k1 lsr 7) in
    let p0 = src_pos + (2 * p * bucket) in
    let p1 = p0 + bucket in
    for w = 0 to (bucket / 16) - 1 do
      let o = 16 * w in
      let s0 = unsafe_get64 src (p0 + o) and s1 = unsafe_get64 src (p1 + o) in
      let t0 = unsafe_get64 src (p0 + o + 8) and t1 = unsafe_get64 src (p1 + o + 8) in
      xor_word d0 o (fold2 s0 a0 s1 c0);
      xor_word d0 (o + 8) (fold2 t0 a0 t1 c0);
      xor_word d1 o (fold2 s0 a1 s1 c1);
      xor_word d1 (o + 8) (fold2 t0 a1 t1 c1);
      xor_word d2 o (fold2 s0 a2 s1 c2);
      xor_word d2 (o + 8) (fold2 t0 a2 t1 c2);
      xor_word d3 o (fold2 s0 a3 s1 c3);
      xor_word d3 (o + 8) (fold2 t0 a3 t1 c3);
      xor_word d4 o (fold2 s0 a4 s1 c4);
      xor_word d4 (o + 8) (fold2 t0 a4 t1 c4);
      xor_word d5 o (fold2 s0 a5 s1 c5);
      xor_word d5 (o + 8) (fold2 t0 a5 t1 c5);
      xor_word d6 o (fold2 s0 a6 s1 c6);
      xor_word d6 (o + 8) (fold2 t0 a6 t1 c6);
      xor_word d7 o (fold2 s0 a7 s1 c7);
      xor_word d7 (o + 8) (fold2 t0 a7 t1 c7)
    done;
    if bucket land 15 <> 0 then
      for q = 0 to 7 do
        let dst = Array.unsafe_get dsts q in
        xor_tail ~b:(k0 lsr q) ~src ~pos:p0 ~bucket ~dst;
        xor_tail ~b:(k1 lsr q) ~src ~pos:p1 ~bucket ~dst
      done
  done;
  if count land 1 = 1 then begin
    let k = sel packs (packs_pos + count - 1) and pos = src_pos + ((count - 1) * bucket) in
    for q = 0 to 7 do
      xor_bucket ~b:(k lsr q) ~src ~pos ~bucket ~dst:(Array.unsafe_get dsts q)
    done
  end

let xor_string_into ~src ~src_pos ~dst ~dst_pos ~len =
  xor_into ~src:(Bytes.unsafe_of_string src) ~src_pos ~dst ~dst_pos ~len

let xor a b =
  let n = String.length a in
  if String.length b <> n then invalid_arg "Xorbuf.xor: length mismatch";
  let out = Bytes.of_string a in
  xor_string_into ~src:b ~src_pos:0 ~dst:out ~dst_pos:0 ~len:n;
  Bytes.unsafe_to_string out

(* Word-at-a-time OR-accumulate with a byte tail: this sits on the
   [Bucket_db.is_empty]/[occupied] path, where the seed's [String.iter]
   cost a closure call per byte. *)
let is_zero_range b ~pos ~len =
  check_bounds "is_zero_range" pos len (Bytes.length b);
  let words = len / 8 in
  let acc64 = ref 0L in
  for w = 0 to words - 1 do
    acc64 := Int64.logor !acc64 (unsafe_get64 b (pos + (8 * w)))
  done;
  let acc = ref 0 in
  for i = 8 * words to len - 1 do
    acc := !acc lor Char.code (Bytes.unsafe_get b (pos + i))
  done;
  Int64.equal !acc64 0L && !acc = 0

let is_zero s = is_zero_range (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

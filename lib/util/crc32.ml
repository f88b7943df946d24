(* Standard reflected CRC-32 (IEEE 802.3 polynomial 0xEDB88320), table
   driven. Not a cryptographic primitive: it guarantees detection of any
   single-bit error and all short burst errors, which is exactly the
   failure class an integrity trailer on a simulated lossy link must
   catch deterministically. *)

(* Slicing-by-8 over native ints: table [k] (entries [256k .. 256k+255])
   advances a byte's contribution past [k] further zero bytes, so the main
   loop folds 8 input bytes per iteration with 8 independent lookups and
   no boxed Int32 arithmetic. Table 0 is the classic byte-at-a-time one. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for i = 0 to 255 do
       let c = ref i in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(i) <- !c
     done;
     for k = 1 to 7 do
       for i = 0 to 255 do
         let prev = t.(((k - 1) * 256) + i) in
         t.((k * 256) + i) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.update";
  let t = Lazy.force tables in
  let tbl k i = Array.unsafe_get t ((k lsl 8) lor i) in
  let c = ref (lnot (Int32.to_int crc) land 0xffffffff) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let one = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xffffffff) in
    let two = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xffffffff in
    c :=
      tbl 7 (one land 0xff)
      lxor tbl 6 ((one lsr 8) land 0xff)
      lxor tbl 5 ((one lsr 16) land 0xff)
      lxor tbl 4 (one lsr 24)
      lxor tbl 3 (two land 0xff)
      lxor tbl 2 ((two lsr 8) land 0xff)
      lxor tbl 1 ((two lsr 16) land 0xff)
      lxor tbl 0 (two lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := tbl 0 ((!c lxor Char.code (String.unsafe_get s !i)) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (lnot !c land 0xffffffff)

let digest s = update 0l s ~pos:0 ~len:(String.length s)

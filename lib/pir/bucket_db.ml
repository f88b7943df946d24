type t = { domain_bits : int; bucket_size : int; data : Bytes.t }

let max_domain_bits = 26

let create ~domain_bits ~bucket_size =
  if domain_bits < 1 || domain_bits > max_domain_bits then
    invalid_arg "Bucket_db.create: domain_bits out of range";
  if bucket_size <= 0 then invalid_arg "Bucket_db.create: bucket_size must be positive";
  { domain_bits; bucket_size; data = Bytes.make ((1 lsl domain_bits) * bucket_size) '\x00' }

let domain_bits t = t.domain_bits
let size t = 1 lsl t.domain_bits
let bucket_size t = t.bucket_size
let total_bytes t = Bytes.length t.data

let check_index t i =
  if i < 0 || i >= size t then invalid_arg "Bucket_db: index out of range"

let set t i data =
  check_index t i;
  if String.length data > t.bucket_size then invalid_arg "Bucket_db.set: data exceeds bucket";
  let off = i * t.bucket_size in
  Bytes.fill t.data off t.bucket_size '\x00';
  Bytes.blit_string data 0 t.data off (String.length data)

let get t i =
  check_index t i;
  Bytes.sub_string t.data (i * t.bucket_size) t.bucket_size

let is_empty t i =
  check_index t i;
  Lw_util.Xorbuf.is_zero_range t.data ~pos:(i * t.bucket_size) ~len:t.bucket_size

let clear t i =
  check_index t i;
  Bytes.fill t.data (i * t.bucket_size) t.bucket_size '\x00'

let fill_random t rng =
  let n = Bytes.length t.data in
  let chunk = 65536 in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    Bytes.blit_string (Lw_util.Det_rng.bytes rng len) 0 t.data !pos len;
    pos := !pos + len
  done

let occupied t =
  let n = ref 0 in
  for i = 0 to size t - 1 do
    if not (is_empty t i) then incr n
  done;
  !n

(* Empty buckets are skipped: a CoW block with no occupied bucket stays
   the initial epoch's zero block instead of being copied. *)
let to_store ?block_bytes t =
  let st =
    Lw_store.create ?block_bytes ~keep:1 ~domain_bits:t.domain_bits ~bucket_size:t.bucket_size ()
  in
  let w = Lw_store.writer st in
  for i = 0 to size t - 1 do
    if not (is_empty t i) then Lw_store.Writer.set w i (get t i)
  done;
  ignore (Lw_store.Writer.seal w);
  st

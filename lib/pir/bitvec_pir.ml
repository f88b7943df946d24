type query = { q0 : Bytes.t; q1 : Bytes.t }

let upload_bytes ~domain_bits = ((1 lsl domain_bits) + 7) / 8

let query ~domain_bits ~index rng =
  if domain_bits < 1 || domain_bits > 26 then invalid_arg "Bitvec_pir.query: bad domain";
  if index < 0 || index >= 1 lsl domain_bits then invalid_arg "Bitvec_pir.query: index out of domain";
  let n_bytes = upload_bytes ~domain_bits in
  let q0 = Bytes.of_string (Lw_crypto.Drbg.generate rng n_bytes) in
  let q1 = Bytes.copy q0 in
  let byte = index / 8 and bit = index mod 8 in
  Bytes.set q1 byte (Char.chr (Char.code (Bytes.get q1 byte) lxor (1 lsl bit)));
  { q0; q1 }

(* Unpack to one selection byte per bucket and run the reference masked
   scan: the same constant-trace walk the DPF scheme's two-pass path
   makes, so E11 compares upload sizes over identical server work. *)
let answer server packed =
  let n = Server.size server in
  if Bytes.length packed < (n + 7) / 8 then invalid_arg "Bitvec_pir.answer: vector too short";
  Server.scan server
    (Bytes.init n (fun i ->
         Char.unsafe_chr ((Char.code (Bytes.unsafe_get packed (i lsr 3)) lsr (i land 7)) land 1)))

let combine ~resp0 ~resp1 = Lw_util.Xorbuf.xor resp0 resp1

let fetch server ~index rng =
  let q = query ~domain_bits:(Server.domain_bits server) ~index rng in
  combine ~resp0:(answer server q.q0) ~resp1:(answer server q.q1)

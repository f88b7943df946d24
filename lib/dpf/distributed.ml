let split k ~shard_bits =
  let d = Dpf.domain_bits k in
  if shard_bits <= 0 || shard_bits >= d then invalid_arg "Distributed.split: bad shard_bits";
  (* eval_prefixes visits every prefix, so every placeholder is replaced *)
  let shards = Array.make (1 lsl shard_bits) k in
  Dpf.eval_prefixes k ~levels:shard_bits (fun prefix t seed_buf pos ->
      shards.(prefix) <-
        Dpf.make_subkey ~prefix k ~root_seed:seed_buf ~root_pos:pos ~root_t:t
          ~levels:shard_bits);
  shards

let global_index ~rem_bits ~shard j = (shard lsl rem_bits) lor j

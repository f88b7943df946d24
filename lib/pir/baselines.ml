let trivial_fetch db i =
  let target = Bucket_db.get db i in
  (* the client receives every bucket; model the transfer by copying each
     one out *)
  for j = 0 to Bucket_db.size db - 1 do
    ignore (Sys.opaque_identity (Bucket_db.get db j))
  done;
  target

let direct_fetch db i = Bucket_db.get db i

module Cost = struct
  type scheme = Two_server_pir | Trivial_pir | Direct

  type t = {
    scheme : scheme;
    upload_bytes : int;
    download_bytes : int;
    server_buckets_touched : int;
    leaks_index : bool;
  }

  let scheme_name = function
    | Two_server_pir -> "two-server PIR"
    | Trivial_pir -> "trivial PIR (download all)"
    | Direct -> "direct GET (no privacy)"

  let of_scheme scheme ~domain_bits ~bucket_size =
    let n = 1 lsl domain_bits in
    match scheme with
    | Two_server_pir ->
        {
          scheme;
          upload_bytes = 2 * Lw_dpf.Dpf.serialized_size ~domain_bits ~value_len:0;
          download_bytes = 2 * bucket_size;
          server_buckets_touched = 2 * n;
          leaks_index = false;
        }
    | Trivial_pir ->
        {
          scheme;
          upload_bytes = 0;
          download_bytes = n * bucket_size;
          server_buckets_touched = n;
          leaks_index = false;
        }
    | Direct ->
        {
          scheme;
          upload_bytes = 8;
          download_bytes = bucket_size;
          server_buckets_touched = 1;
          leaks_index = true;
        }
end

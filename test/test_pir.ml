open Lw_pir

let rng () = Lw_crypto.Drbg.create ~seed:"pir-tests"
let det = Lw_util.Det_rng.of_string_seed

(* Seal [db] as a one-epoch store whose CoW blocks hold [block] buckets
   (default: as many as fit the default block budget) and serve it. *)
let server_of ?block db =
  let block_bytes = Option.map (fun b -> b * Bucket_db.bucket_size db) block in
  Server.of_snapshot (Lw_store.current (Bucket_db.to_store ?block_bytes db))

(* ---------------- Bucket_db ---------------- *)

let test_db_basic () =
  let db = Bucket_db.create ~domain_bits:4 ~bucket_size:32 in
  Alcotest.(check int) "size" 16 (Bucket_db.size db);
  Alcotest.(check int) "total" 512 (Bucket_db.total_bytes db);
  Alcotest.(check bool) "fresh empty" true (Bucket_db.is_empty db 3);
  Bucket_db.set db 3 "hello";
  Alcotest.(check bool) "now occupied" false (Bucket_db.is_empty db 3);
  Alcotest.(check string) "padded" ("hello" ^ String.make 27 '\x00') (Bucket_db.get db 3);
  Alcotest.(check int) "occupied" 1 (Bucket_db.occupied db);
  Bucket_db.clear db 3;
  Alcotest.(check bool) "cleared" true (Bucket_db.is_empty db 3)

let test_db_validation () =
  let db = Bucket_db.create ~domain_bits:3 ~bucket_size:8 in
  Alcotest.check_raises "oob" (Invalid_argument "Bucket_db: index out of range") (fun () ->
      ignore (Bucket_db.get db 8));
  Alcotest.check_raises "neg" (Invalid_argument "Bucket_db: index out of range") (fun () ->
      ignore (Bucket_db.get db (-1)));
  Alcotest.check_raises "too big" (Invalid_argument "Bucket_db.set: data exceeds bucket")
    (fun () -> Bucket_db.set db 0 (String.make 9 'x'));
  Alcotest.check_raises "bad domain" (Invalid_argument "Bucket_db.create: domain_bits out of range")
    (fun () -> ignore (Bucket_db.create ~domain_bits:0 ~bucket_size:8))

(* The XOR a scan computes over sealed buckets: selecting buckets 1 and
   2 of a two-bit table through the reference masked scan. *)
let test_db_xor_into () =
  let db = Bucket_db.create ~domain_bits:2 ~bucket_size:4 in
  Bucket_db.set db 1 "\x0f\x0f\x0f\x0f";
  Bucket_db.set db 2 "\xf0\x00\x00\x00";
  let server = server_of db in
  let bits = Bytes.of_string "\000\001\001\000" in
  Alcotest.(check string) "xor" "\xff\x0f\x0f\x0f" (Server.scan server bits)

let test_db_to_store () =
  let db = Bucket_db.create ~domain_bits:5 ~bucket_size:16 in
  Bucket_db.set db 3 "three";
  Bucket_db.set db 30 "thirty";
  let st = Bucket_db.to_store ~block_bytes:(4 * 16) db in
  Bucket_db.set db 4 "after";
  let snap = Lw_store.current st in
  Alcotest.(check (list int)) "one live epoch" [ 1 ] (Lw_store.live_epochs st);
  Alcotest.(check int) "eight blocks" 8 (Lw_store.n_blocks st);
  Alcotest.(check int) "occupied" 2 (Lw_store.Snapshot.occupied snap);
  Alcotest.(check string) "bucket 30" (Bucket_db.get db 30) (Lw_store.Snapshot.get snap 30);
  Alcotest.(check bool) "later writes unseen" true (Lw_store.Snapshot.is_empty snap 4)

(* ---------------- Record ---------------- *)

let test_record_roundtrip () =
  let bucket = Record.encode ~bucket_size:64 ~key:"nytimes.com/a" ~value:"{\"x\":1}" in
  Alcotest.(check int) "size" 64 (String.length bucket);
  (match Record.decode bucket with
  | Some (k, v) ->
      Alcotest.(check string) "key" "nytimes.com/a" k;
      Alcotest.(check string) "value" "{\"x\":1}" v
  | None -> Alcotest.fail "decode failed");
  Alcotest.(check (option string)) "for key" (Some "{\"x\":1}")
    (Record.decode_for_key ~key:"nytimes.com/a" bucket);
  Alcotest.(check (option string)) "wrong key" None
    (Record.decode_for_key ~key:"cnn.com/a" bucket)

let test_record_edges () =
  Alcotest.(check (option (pair string string))) "empty bucket" None
    (Record.decode (String.make 32 '\x00'));
  (* exact fit *)
  let key = "k" and bucket_size = 32 in
  let v = String.make (Record.max_value_len ~bucket_size ~key) 'v' in
  let b = Record.encode ~bucket_size ~key ~value:v in
  Alcotest.(check (option string)) "exact fit" (Some v) (Record.decode_for_key ~key b);
  Alcotest.check_raises "overflow" (Invalid_argument "Record.encode: record exceeds bucket")
    (fun () -> ignore (Record.encode ~bucket_size ~key ~value:(v ^ "x")));
  Alcotest.check_raises "empty key" (Invalid_argument "Record.encode: empty key") (fun () ->
      ignore (Record.encode ~bucket_size:32 ~key:"" ~value:"v"));
  (* empty value is fine *)
  let b = Record.encode ~bucket_size:16 ~key:"k" ~value:"" in
  Alcotest.(check (option string)) "empty value" (Some "") (Record.decode_for_key ~key:"k" b)

let test_record_corrupt () =
  let b = Record.encode ~bucket_size:32 ~key:"kk" ~value:"vv" in
  (* corrupt the length field to exceed the bucket *)
  let bad = Bytes.of_string b in
  Bytes.set_int32_be bad 3 1000l;
  Alcotest.(check (option (pair string string))) "oversized vlen" None
    (Record.decode (Bytes.to_string bad))

(* ---------------- Keymap ---------------- *)

let test_keymap_deterministic () =
  let km = Keymap.create ~hash_key:(String.make 16 'k') ~domain_bits:16 in
  let i = Keymap.index_of_key km "example.com/page" in
  Alcotest.(check int) "stable" i (Keymap.index_of_key km "example.com/page");
  Alcotest.(check bool) "in domain" true (i >= 0 && i < 65536);
  let km2 = Keymap.derive km ~salt:1 in
  Alcotest.(check bool) "derived differs" true
    (Keymap.index_of_key km2 "example.com/page" <> i
    || Keymap.index_of_key km2 "other" <> Keymap.index_of_key km "other")

let test_keymap_collision_formulas () =
  (* the paper's parameters: 2^20 keys in a 2^22 domain -> 1/4 *)
  Alcotest.(check (float 1e-9)) "paper point" 0.25
    (Keymap.new_key_collision_probability ~n_keys:(1 lsl 20) ~domain_bits:22);
  Alcotest.(check (float 1e-9)) "empty" 0.
    (Keymap.new_key_collision_probability ~n_keys:0 ~domain_bits:22);
  let e = Keymap.expected_collisions ~n_keys:1000 ~domain_bits:20 in
  Alcotest.(check (float 1e-6)) "expected pairs" (1000. *. 999. /. 2097152.) e;
  let p = Keymap.any_collision_probability ~n_keys:1000 ~domain_bits:20 in
  Alcotest.(check bool) "birthday in (0,1)" true (p > 0. && p < 1.)

let test_keymap_monte_carlo_matches_analytic () =
  let km = Keymap.create ~hash_key:(String.make 16 'm') ~domain_bits:12 in
  (* fill to 1/4 capacity like the paper's shard *)
  let n = 1024 in
  let measured = Keymap.monte_carlo_new_key_collision km ~n_keys:n ~trials:4000 (det "mc") in
  (* slightly below n/2^d because random inserts collide among themselves *)
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f near 0.25" measured)
    true
    (measured > 0.15 && measured < 0.30)

(* ---------------- Store ---------------- *)

let test_store_insert_find () =
  let s = Store.create ~domain_bits:12 ~bucket_size:128 () in
  Alcotest.(check bool) "insert" true (Store.insert s ~key:"a.com/1" ~value:"v1" = Ok ());
  Alcotest.(check bool) "insert2" true (Store.insert s ~key:"a.com/2" ~value:"v2" = Ok ());
  Alcotest.(check (option string)) "find" (Some "v1") (Store.find s "a.com/1");
  Alcotest.(check (option string)) "missing" None (Store.find s "a.com/404");
  Alcotest.(check int) "count" 2 (Store.count s);
  (* overwrite in place *)
  Alcotest.(check bool) "overwrite" true (Store.insert s ~key:"a.com/1" ~value:"v1b" = Ok ());
  Alcotest.(check (option string)) "updated" (Some "v1b") (Store.find s "a.com/1");
  Alcotest.(check int) "count stable" 2 (Store.count s);
  Alcotest.(check bool) "remove" true (Store.remove s "a.com/1");
  Alcotest.(check bool) "remove again" false (Store.remove s "a.com/1");
  Alcotest.(check int) "count after remove" 1 (Store.count s)

let test_store_too_large () =
  let s = Store.create ~domain_bits:4 ~bucket_size:16 () in
  Alcotest.(check bool) "too large" true
    (Store.insert s ~key:"k" ~value:(String.make 64 'v') = Error Store.Too_large)

let test_store_collision_detected () =
  (* tiny domain forces collisions quickly *)
  let s = Store.create ~domain_bits:2 ~bucket_size:128 () in
  let outcomes =
    List.map
      (fun i -> Store.insert s ~key:(Printf.sprintf "key-%d" i) ~value:"v")
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let collisions =
    List.filter (function Error (Store.Collision _) -> true | _ -> false) outcomes
  in
  Alcotest.(check bool) "some collisions in 8 inserts over 4 slots" true
    (List.length collisions > 0);
  (* colliding keys were not stored *)
  Alcotest.(check bool) "count consistent" true (Store.count s <= 4)

(* ---------------- Cuckoo ---------------- *)

let test_cuckoo_insert_find () =
  let c = Cuckoo.create ~domain_bits:8 ~bucket_size:128 () in
  let n = 150 in
  (* ~59% load: displacement will be exercised *)
  for i = 0 to n - 1 do
    match Cuckoo.insert c ~key:(Printf.sprintf "site-%d.com/p" i) ~value:(Printf.sprintf "v%d" i) with
    | Ok () -> ()
    | Error `Too_large -> Alcotest.fail "unexpected too-large"
  done;
  Alcotest.(check int) "count" n (Cuckoo.count c);
  for i = 0 to n - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "find %d" i)
      (Some (Printf.sprintf "v%d" i))
      (Cuckoo.find c (Printf.sprintf "site-%d.com/p" i))
  done;
  Alcotest.(check bool) "stash small" true (Cuckoo.stash_size c <= 2)

let test_cuckoo_overwrite_remove () =
  let c = Cuckoo.create ~domain_bits:6 ~bucket_size:64 () in
  ignore (Cuckoo.insert c ~key:"k" ~value:"v1");
  ignore (Cuckoo.insert c ~key:"k" ~value:"v2");
  Alcotest.(check (option string)) "overwrite" (Some "v2") (Cuckoo.find c "k");
  Alcotest.(check int) "count 1" 1 (Cuckoo.count c);
  Alcotest.(check bool) "remove" true (Cuckoo.remove c "k");
  Alcotest.(check (option string)) "gone" None (Cuckoo.find c "k");
  Alcotest.(check int) "count 0" 0 (Cuckoo.count c)

let test_cuckoo_beats_single_hash_at_load () =
  (* at ~60% load, single-hash placement rejects many keys; cuckoo stores
     them all (modulo a tiny stash) *)
  let domain_bits = 8 and n = 150 in
  let s = Store.create ~domain_bits ~bucket_size:64 () in
  let rejected = ref 0 in
  for i = 0 to n - 1 do
    match Store.insert s ~key:(Printf.sprintf "k%d" i) ~value:"v" with
    | Ok () -> ()
    | Error _ -> incr rejected
  done;
  let c = Cuckoo.create ~domain_bits ~bucket_size:64 () in
  for i = 0 to n - 1 do
    ignore (Cuckoo.insert c ~key:(Printf.sprintf "k%d" i) ~value:"v")
  done;
  Alcotest.(check bool) "single-hash rejects some" true (!rejected > 0);
  Alcotest.(check int) "cuckoo keeps all" n (Cuckoo.count c)

let test_cuckoo_no_loss_under_pressure () =
  (* overfill vs capacity: every insert must remain findable via stash *)
  let c = Cuckoo.create ~max_kicks:16 ~domain_bits:4 ~bucket_size:64 () in
  for i = 0 to 13 do
    ignore (Cuckoo.insert c ~key:(Printf.sprintf "k%d" i) ~value:(string_of_int i))
  done;
  for i = 0 to 13 do
    Alcotest.(check (option string))
      (Printf.sprintf "k%d survives" i)
      (Some (string_of_int i))
      (Cuckoo.find c (Printf.sprintf "k%d" i))
  done

(* ---------------- end-to-end PIR ---------------- *)

let populated_store ?(domain_bits = 8) ?(bucket_size = 256) n =
  let s = Store.create ~domain_bits ~bucket_size () in
  let stored = ref [] in
  let i = ref 0 in
  while List.length !stored < n do
    let key = Printf.sprintf "pub-%d.example/%d" (!i mod 7) !i in
    (match Store.insert s ~key ~value:(Printf.sprintf "{\"page\":%d}" !i) with
    | Ok () -> stored := key :: !stored
    | Error _ -> ());
    incr i
  done;
  (s, !stored)

let test_pir_end_to_end () =
  let s, keys = populated_store 40 in
  let server0 = Server.of_snapshot (Store.snapshot s) and server1 = Server.of_snapshot (Store.snapshot s) in
  List.iter
    (fun key ->
      let q = Client.query_key ~keymap:(Store.keymap s) ~key (rng ()) in
      let resp0 = Server.answer server0 q.Client.key0 in
      let resp1 = Server.answer server1 q.Client.key1 in
      match Client.fetch q ~resp0 ~resp1 ~key with
      | Some v -> Alcotest.(check (option string)) key (Some v) (Store.find s key)
      | None -> Alcotest.fail (Printf.sprintf "PIR lookup failed for %s" key))
    keys

let test_pir_absent_key () =
  let s, _ = populated_store 10 in
  let server = Server.of_snapshot (Store.snapshot s) in
  let key = "missing.example/xyz" in
  match Store.find s key with
  | Some _ -> () (* extremely unlikely collision; nothing to assert *)
  | None ->
      let q = Client.query_key ~keymap:(Store.keymap s) ~key (rng ()) in
      let resp0 = Server.answer server q.Client.key0 in
      let resp1 = Server.answer server q.Client.key1 in
      Alcotest.(check (option string)) "absent" None (Client.fetch q ~resp0 ~resp1 ~key)

let test_pir_batch_matches_single () =
  let s, keys = populated_store 20 in
  let server = Server.of_snapshot (Store.snapshot s) in
  let queries =
    Array.of_list
      (List.map (fun key -> Client.query_key ~keymap:(Store.keymap s) ~key (rng ())) keys)
  in
  let batch = Server.answer_batch server (Array.map (fun q -> q.Client.key0) queries) in
  Array.iteri
    (fun i q ->
      Alcotest.(check string)
        (Printf.sprintf "batch[%d]" i)
        (Server.answer server q.Client.key0)
        batch.(i))
    queries

let test_pir_server_response_uniform_size () =
  let s, keys = populated_store 15 in
  let server = Server.of_snapshot (Store.snapshot s) in
  let sizes =
    List.map
      (fun key ->
        let q = Client.query_key ~keymap:(Store.keymap s) ~key (rng ()) in
        String.length (Server.answer server q.Client.key0))
      keys
  in
  List.iter (fun n -> Alcotest.(check int) "uniform" 256 n) sizes

let test_pir_serialized_entry_point () =
  let s, keys = populated_store 5 in
  let server = Server.of_snapshot (Store.snapshot s) in
  let key = List.hd keys in
  let q = Client.query_key ~keymap:(Store.keymap s) ~key (rng ()) in
  (match Server.answer_serialized server (Lw_dpf.Dpf.serialize q.Client.key0) with
  | Ok r -> Alcotest.(check string) "same as direct" (Server.answer server q.Client.key0) r
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "rejects garbage" true
    (Server.answer_serialized server "garbage" |> Result.is_error);
  (* a key over the wrong domain is rejected *)
  let wrong = Client.query_index ~domain_bits:5 ~index:0 (rng ()) in
  Alcotest.(check bool) "rejects wrong domain" true
    (Server.answer_serialized server (Lw_dpf.Dpf.serialize wrong.Client.key0) |> Result.is_error)

let test_pir_cuckoo_end_to_end () =
  (* probing both candidate locations retrieves the record wherever
     displacement put it *)
  let c = Cuckoo.create ~domain_bits:8 ~bucket_size:128 () in
  let n = 140 in
  for i = 0 to n - 1 do
    ignore (Cuckoo.insert c ~key:(Printf.sprintf "k%d" i) ~value:(Printf.sprintf "v%d" i))
  done;
  let server = server_of (Cuckoo.db c) in
  let ok = ref 0 in
  for i = 0 to n - 1 do
    let key = Printf.sprintf "k%d" i in
    let i0, i1 = Cuckoo.candidates c key in
    let probe idx =
      let q = Client.query_index ~domain_bits:8 ~index:idx (rng ()) in
      let resp0 = Server.answer server q.Client.key0 in
      let resp1 = Server.answer server q.Client.key1 in
      Client.fetch q ~resp0 ~resp1 ~key
    in
    match (probe i0, probe i1) with
    | Some v, _ | _, Some v ->
        Alcotest.(check string) key (Printf.sprintf "v%d" i) v;
        incr ok
    | None, None -> if Cuckoo.find c key <> None && Cuckoo.stash_size c = 0 then
        Alcotest.fail (Printf.sprintf "lost %s" key)
  done;
  Alcotest.(check bool) "vast majority retrievable via 2 probes" true (!ok >= n - Cuckoo.stash_size c)

(* A slice answers its rebased sub-keys over its own range only: the
   parties' quarter shares XOR to the target bucket in the quarter that
   holds it and to zero elsewhere, and slicing composes. *)
let test_server_slice () =
  let db = Bucket_db.create ~domain_bits:6 ~bucket_size:16 in
  Bucket_db.fill_random db (det "slice");
  let server = server_of ~block:4 db in
  let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits:6 ~alpha:37 (rng ()) in
  let s0 = Lw_dpf.Distributed.split k0 ~shard_bits:2 in
  let s1 = Lw_dpf.Distributed.split k1 ~shard_bits:2 in
  for q = 0 to 3 do
    let quarter = Server.slice server ~levels:2 ~prefix:q in
    Alcotest.(check int) "quarter domain" 4 (Server.domain_bits quarter);
    let got = Lw_util.Xorbuf.xor (Server.answer quarter s0.(q)) (Server.answer quarter s1.(q)) in
    let want = if q = 2 then Bucket_db.get db 37 else String.make 16 '\000' in
    Alcotest.(check string) (Printf.sprintf "quarter %d" q) want got
  done;
  let nested = Server.slice (Server.slice server ~levels:1 ~prefix:1) ~levels:1 ~prefix:0 in
  Alcotest.(check string) "slices compose"
    (Server.answer (Server.slice server ~levels:2 ~prefix:2) s0.(2))
    (Server.answer nested s0.(2));
  Alcotest.check_raises "levels" (Invalid_argument "Server.slice: levels out of range")
    (fun () -> ignore (Server.slice server ~levels:6 ~prefix:0));
  Alcotest.check_raises "prefix" (Invalid_argument "Server.slice: prefix out of range")
    (fun () -> ignore (Server.slice server ~levels:2 ~prefix:4))

(* ---------------- privacy ---------------- *)

let test_pir_single_server_view_independent () =
  (* one server's response share must not reveal the index: responses to
     two different queried keys are both uniform-looking; here we check the
     stronger structural fact that the response depends only on the DPF
     share, which is generated independently of alpha given one share.
     We verify shares for different alphas have indistinguishable weight. *)
  let s, _ = populated_store ~domain_bits:10 5 in
  let server = Server.of_snapshot (Store.snapshot s) in
  ignore server;
  let weight alpha =
    let q = Client.query_index ~domain_bits:10 ~index:alpha (rng ()) in
    List.length (Lw_dpf.Dpf.selected_indices q.Client.key0)
  in
  let w1 = weight 0 and w2 = weight 1023 in
  Alcotest.(check bool) "balanced shares" true (abs (w1 - 512) < 150 && abs (w2 - 512) < 150)

let test_baselines () =
  let db = Bucket_db.create ~domain_bits:6 ~bucket_size:32 in
  Bucket_db.set db 17 "payload";
  Alcotest.(check string) "trivial" (Bucket_db.get db 17) (Baselines.trivial_fetch db 17);
  Alcotest.(check string) "direct" (Bucket_db.get db 17) (Baselines.direct_fetch db 17);
  let open Baselines.Cost in
  let pir = of_scheme Two_server_pir ~domain_bits:22 ~bucket_size:4096 in
  let triv = of_scheme Trivial_pir ~domain_bits:22 ~bucket_size:4096 in
  let direct = of_scheme Direct ~domain_bits:22 ~bucket_size:4096 in
  Alcotest.(check bool) "pir download tiny vs trivial" true
    (pir.download_bytes < triv.download_bytes / 1000);
  Alcotest.(check bool) "pir hides index" false pir.leaks_index;
  Alcotest.(check bool) "direct leaks" true direct.leaks_index;
  Alcotest.(check int) "pir download = 2 buckets" 8192 pir.download_bytes

(* ---------------- properties ---------------- *)

let prop_pir_roundtrip =
  QCheck.Test.make ~name:"pir retrieves any stored record" ~count:30
    QCheck.(pair (string_of_size Gen.(1 -- 30)) (string_of_size Gen.(0 -- 100)))
    (fun (key, value) ->
      let s = Store.create ~domain_bits:8 ~bucket_size:256 () in
      match Store.insert s ~key ~value with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
          let server = Server.of_snapshot (Store.snapshot s) in
          let q = Client.query_key ~keymap:(Store.keymap s) ~key (rng ()) in
          let resp0 = Server.answer server q.Client.key0 in
          let resp1 = Server.answer server q.Client.key1 in
          Client.fetch q ~resp0 ~resp1 ~key = Some value)

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record encode/decode roundtrip" ~count:100
    QCheck.(pair (string_of_size Gen.(1 -- 40)) (string_of_size Gen.(0 -- 120)))
    (fun (key, value) ->
      let bucket_size = Record.overhead + String.length key + String.length value + 13 in
      Record.decode (Record.encode ~bucket_size ~key ~value) = Some (key, value))

let prop_cuckoo_find_after_inserts =
  QCheck.Test.make ~name:"cuckoo: all inserted keys findable" ~count:20
    QCheck.(list_of_size Gen.(1 -- 60) (string_of_size Gen.(1 -- 12)))
    (fun keys ->
      let keys = List.sort_uniq compare (List.filter (fun k -> k <> "") keys) in
      let c = Cuckoo.create ~domain_bits:8 ~bucket_size:64 () in
      List.iter (fun k -> ignore (Cuckoo.insert c ~key:k ~value:(String.uppercase_ascii k))) keys;
      List.for_all (fun k -> Cuckoo.find c k = Some (String.uppercase_ascii k)) keys)

(* Kernel-equivalence properties: the fused single-pass kernel behind
   [Server.answer] and the bit-packed batch kernel behind
   [Server.answer_batch] must agree byte-for-byte with the two-pass
   reference ([eval_bits] + [scan]) on arbitrary geometry — domain sizes
   that don't divide the scan block, bucket sizes that aren't word
   multiples, batch widths across the 8-lane pack boundary — over stores
   cut into 8-bucket CoW blocks, so scan blocks cross block edges. *)

let scan_geometry =
  QCheck.make
    ~print:(fun (d, b, alphas) ->
      Printf.sprintf "domain_bits=%d bucket=%d alphas=[%s]" d b
        (String.concat ";" (List.map string_of_int alphas)))
    QCheck.Gen.(
      int_range 1 9 >>= fun d ->
      int_range 1 80 >>= fun b ->
      list_size (int_range 1 17) (int_range 0 ((1 lsl d) - 1)) >>= fun alphas ->
      return (d, b, alphas))

let reference_answer server k = Server.scan server (Server.eval_bits server k)

let prop_fused_matches_reference =
  QCheck.Test.make ~name:"fused answer = two-pass reference" ~count:60 scan_geometry
    (fun (domain_bits, bucket_size, alphas) ->
      let db = Bucket_db.create ~domain_bits ~bucket_size in
      Bucket_db.fill_random db (det "fused-prop");
      let server = server_of ~block:8 db in
      let drbg = rng () in
      List.for_all
        (fun alpha ->
          let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha drbg in
          List.for_all
            (fun k -> String.equal (Server.answer server k) (reference_answer server k))
            [ k0; k1 ])
        alphas)

let prop_batch_matches_naive =
  QCheck.Test.make ~name:"batched answers = naive per-query loop" ~count:40 scan_geometry
    (fun (domain_bits, bucket_size, alphas) ->
      let db = Bucket_db.create ~domain_bits ~bucket_size in
      Bucket_db.fill_random db (det "batch-prop");
      let server = server_of ~block:8 db in
      let drbg = rng () in
      let keys =
        Array.of_list
          (List.mapi
             (fun i alpha ->
               let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha drbg in
               if i land 1 = 0 then k0 else k1)
             alphas)
      in
      let batched = Server.answer_batch server keys in
      Array.length batched = Array.length keys
      && Array.for_all2
           (fun share k -> String.equal share (reference_answer server k))
           batched keys)

(* The domain-parallel paths must be bit-identical to the serial kernels
   whatever the worker count: counts below, at and above the machine's
   core count, worker counts exceeding the partition count, and
   geometries the cutoff would normally veto ([~cutoff_bytes:0] forces
   the parallel path even on tiny databases). [answer_partitioned] is
   the deterministic serial twin over the same slices, so it rides the
   same property. Domain >= 2 bits: below that there is nothing to
   partition and [answer_batch] stays serial. *)

let parallel_geometry =
  QCheck.make
    ~print:(fun (d, b, nd, alphas) ->
      Printf.sprintf "domain_bits=%d bucket=%d domains=%d alphas=[%s]" d b nd
        (String.concat ";" (List.map string_of_int alphas)))
    QCheck.Gen.(
      int_range 2 9 >>= fun d ->
      int_range 1 80 >>= fun b ->
      oneofl [ 1; 2; 4; 8 ] >>= fun nd ->
      list_size (int_range 1 17) (int_range 0 ((1 lsl d) - 1)) >>= fun alphas ->
      return (d, b, nd, alphas))

let prop_domains_matches_serial =
  QCheck.Test.make ~name:"answer_domains/partitioned = serial answer" ~count:40
    parallel_geometry
    (fun (domain_bits, bucket_size, nd, alphas) ->
      let db = Bucket_db.create ~domain_bits ~bucket_size in
      Bucket_db.fill_random db (det "domains-prop");
      let server = server_of ~block:8 db in
      let drbg = rng () in
      List.for_all
        (fun alpha ->
          let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha drbg in
          List.for_all
            (fun k ->
              let serial = Server.answer server k in
              String.equal serial
                (Server.answer_batch ~cutoff_bytes:0 ~domains:nd server [| k |]).(0)
              && String.equal serial (Server.answer_partitioned ~partitions:nd server k))
            [ k0; k1 ])
        alphas)

let prop_batch_domains_matches_batch =
  QCheck.Test.make ~name:"answer_batch_domains = answer_batch" ~count:30
    parallel_geometry
    (fun (domain_bits, bucket_size, nd, alphas) ->
      let db = Bucket_db.create ~domain_bits ~bucket_size in
      Bucket_db.fill_random db (det "batch-domains-prop");
      let server = server_of ~block:8 db in
      let drbg = rng () in
      let keys =
        Array.of_list
          (List.mapi
             (fun i alpha ->
               let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha drbg in
               if i land 1 = 0 then k0 else k1)
             alphas)
      in
      let serial = Server.answer_batch server keys in
      let parallel = Server.answer_batch ~cutoff_bytes:0 ~domains:nd server keys in
      Array.length parallel = Array.length serial
      && Array.for_all2 String.equal parallel serial)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pir_roundtrip;
      prop_record_roundtrip;
      prop_cuckoo_find_after_inserts;
      prop_fused_matches_reference;
      prop_batch_matches_naive;
      prop_domains_matches_serial;
      prop_batch_domains_matches_batch;
    ]

let () =
  Alcotest.run "lw_pir"
    [
      ( "bucket_db",
        [
          Alcotest.test_case "basic" `Quick test_db_basic;
          Alcotest.test_case "validation" `Quick test_db_validation;
          Alcotest.test_case "xor into" `Quick test_db_xor_into;
          Alcotest.test_case "to_store" `Quick test_db_to_store;
        ] );
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "edges" `Quick test_record_edges;
          Alcotest.test_case "corrupt" `Quick test_record_corrupt;
        ] );
      ( "keymap",
        [
          Alcotest.test_case "deterministic" `Quick test_keymap_deterministic;
          Alcotest.test_case "collision formulas" `Quick test_keymap_collision_formulas;
          Alcotest.test_case "monte carlo" `Quick test_keymap_monte_carlo_matches_analytic;
        ] );
      ( "store",
        [
          Alcotest.test_case "insert/find" `Quick test_store_insert_find;
          Alcotest.test_case "too large" `Quick test_store_too_large;
          Alcotest.test_case "collision detected" `Quick test_store_collision_detected;
        ] );
      ( "cuckoo",
        [
          Alcotest.test_case "insert/find" `Quick test_cuckoo_insert_find;
          Alcotest.test_case "overwrite/remove" `Quick test_cuckoo_overwrite_remove;
          Alcotest.test_case "beats single hash" `Quick test_cuckoo_beats_single_hash_at_load;
          Alcotest.test_case "no loss under pressure" `Quick test_cuckoo_no_loss_under_pressure;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "store round trip" `Quick test_pir_end_to_end;
          Alcotest.test_case "absent key" `Quick test_pir_absent_key;
          Alcotest.test_case "batch matches single" `Quick test_pir_batch_matches_single;
          Alcotest.test_case "uniform response size" `Quick test_pir_server_response_uniform_size;
          Alcotest.test_case "serialized entry point" `Quick test_pir_serialized_entry_point;
          Alcotest.test_case "cuckoo end-to-end" `Quick test_pir_cuckoo_end_to_end;
          Alcotest.test_case "server slices" `Quick test_server_slice;
        ] );
      ( "privacy-baselines",
        [
          Alcotest.test_case "share balance" `Quick test_pir_single_server_view_independent;
          Alcotest.test_case "baselines" `Quick test_baselines;
        ] );
      ("properties", props);
    ]

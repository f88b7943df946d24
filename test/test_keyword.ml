(* Keyword-search suite: the wire-v4 two-probe verb and the cuckoo table
   it stands on.

   - model property: Cuckoo vs a plain Hashtbl reference over arbitrary
     insert/remove interleavings (1000 cases) — find/count/stash always
     agree with the model, nothing is ever lost or resurrected.
   - regressions for the three cuckoo fixes: a victim whose two
     candidates coincide is never ping-ponged (zero bucket writes, the
     pending record stashes), the stash drains back to 0 when removals
     free capacity, and insert probes each candidate bucket once.
   - wire v4: Keyword_query/Keyword_answer roundtrips and CRC rejection.
   - kernels: Server.answer_pair and the batch-of-two dispatch agree
     byte-for-byte with two scalar answers, and two-server shares
     reconstruct the bucket.
   - end to end: every published path resolves byte-identical via
     keyword GET and path GET, across epoch reseals, updates and
     removals; batch keyword GETs match singles.
   - chaos: canned and randomized fault schedules over the keyword verb
     can slow it down, never make it lie. *)

open Lw_pir
module Wire = Lightweb.Zltp_wire
module Faulty = Lw_net.Faulty
module Clock = Lw_obs.Clock

(* ---------------- cuckoo vs Hashtbl model (QCheck) ---------------- *)

type op = Insert of int * int | Remove of int

let pool = Array.init 24 (Printf.sprintf "site.example/page-%02d")
let pool_key i = pool.(i mod Array.length pool)

let pp_op = function
  | Insert (k, v) -> Printf.sprintf "ins(%d,v%d)" (k mod Array.length pool) v
  | Remove k -> Printf.sprintf "rem(%d)" (k mod Array.length pool)

let gen_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(
      list_size (0 -- 80)
        (frequency
           [ (3, map2 (fun k v -> Insert (k, v)) (0 -- 23) (0 -- 9)); (1, map (fun k -> Remove k) (0 -- 23)) ]))

let prop_cuckoo_matches_model =
  (* 16 buckets under a 24-key pool: removals of absent keys, overwrites,
     displacement chains and stash pressure all occur naturally. *)
  QCheck.Test.make ~name:"cuckoo = Hashtbl model (find/count/stash)" ~count:1000 gen_ops
    (fun ops ->
      let c = Cuckoo.create ~domain_bits:4 ~bucket_size:64 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | Insert (k, v) ->
              let key = pool_key k and value = Printf.sprintf "v%d" v in
              (match Cuckoo.insert c ~key ~value with
              | Ok () -> Hashtbl.replace model key value
              | Error `Too_large -> QCheck.Test.fail_report "tiny record rejected")
          | Remove k ->
              let key = pool_key k in
              let removed = Cuckoo.remove c key in
              if removed <> Hashtbl.mem model key then
                QCheck.Test.fail_report "remove result disagrees with model";
              Hashtbl.remove model key)
        ops;
      Array.for_all (fun key -> Cuckoo.find c key = Hashtbl.find_opt model key) pool
      && Cuckoo.count c = Hashtbl.length model
      && Cuckoo.stash_size c <= Cuckoo.count c
      && Bucket_db.occupied (Cuckoo.db c) = Cuckoo.count c - Cuckoo.stash_size c
      && Cuckoo.load_factor c
         = float_of_int (Cuckoo.count c) /. float_of_int (Bucket_db.size (Cuckoo.db c)))

(* ---------------- coincident-candidate regression ---------------- *)

(* Scan a key pool for the shapes the regression needs; the hash key is
   fixed, so the found keys are deterministic. *)
let scan_keys ~limit pred =
  let rec go i = if i >= limit then None else
      let k = Printf.sprintf "probe-%04d" i in
      if pred k then Some k else go (i + 1)
  in
  match go 0 with Some k -> k | None -> Alcotest.fail "key scan exhausted"

let test_coincident_victim_not_ping_ponged () =
  let writes = ref 0 in
  let c = Cuckoo.create ~on_change:(fun _ -> incr writes) ~domain_bits:3 ~bucket_size:64 () in
  (* V: both candidates coincide at bucket j — the immovable victim. *)
  let v = scan_keys ~limit:4096 (fun k -> let i0, i1 = Cuckoo.candidates c k in i0 = i1) in
  let j, _ = Cuckoo.candidates c v in
  (* P: second candidate is j, first is some other bucket a. *)
  let p =
    scan_keys ~limit:4096 (fun k ->
        let i0, i1 = Cuckoo.candidates c k in i1 = j && i0 <> j)
  in
  let a, _ = Cuckoo.candidates c p in
  (* F: occupies a directly (its first candidate is a, inserted while a
     is empty), so P's displacement has to start at j. *)
  let f =
    scan_keys ~limit:4096 (fun k ->
        let i0, _ = Cuckoo.candidates c k in i0 = a && k <> p && k <> v)
  in
  Alcotest.(check (result unit reject)) "insert V" (Ok ()) (Cuckoo.insert c ~key:v ~value:"vv");
  Alcotest.(check (result unit reject)) "insert F" (Ok ()) (Cuckoo.insert c ~key:f ~value:"vf");
  Alcotest.(check int) "stash empty before the collision" 0 (Cuckoo.stash_size c);
  writes := 0;
  (* Both of P's candidates are occupied and the victim at j cannot move:
     the fix sends P straight to the stash with ZERO bucket writes. The
     old code swapped the slot with itself until max_kicks — hundreds of
     writes (every one a dirtied epoch bucket) before stashing anyway. *)
  Alcotest.(check (result unit reject)) "insert P" (Ok ()) (Cuckoo.insert c ~key:p ~value:"vp");
  Alcotest.(check int) "no bucket writes for an immovable victim" 0 !writes;
  Alcotest.(check int) "pending record stashed" 1 (Cuckoo.stash_size c);
  Alcotest.(check (option string)) "victim untouched" (Some "vv") (Cuckoo.find c v);
  Alcotest.(check (option string)) "filler untouched" (Some "vf") (Cuckoo.find c f);
  Alcotest.(check (option string)) "pending findable via stash" (Some "vp") (Cuckoo.find c p);
  Alcotest.(check int) "all three counted" 3 (Cuckoo.count c)

let test_stash_drains_to_zero () =
  let c = Cuckoo.create ~domain_bits:3 ~bucket_size:64 () in
  let keys = List.init 12 (Printf.sprintf "drain-key-%02d") in
  List.iter
    (fun k ->
      match Cuckoo.insert c ~key:k ~value:(String.uppercase_ascii k) with
      | Ok () -> ()
      | Error `Too_large -> Alcotest.fail "tiny record rejected")
    keys;
  (* 12 records in 8 buckets: at least 4 must be stash-resident. *)
  Alcotest.(check bool) "stash under pressure" true (Cuckoo.stash_size c >= 4);
  Alcotest.(check int) "nothing lost" 12 (Cuckoo.count c);
  (* Remove in insertion order until the stash drains; it must reach 0
     while records remain (the old stash ratcheted up for the table's
     lifetime), and every survivor must stay findable throughout. *)
  let rec drain = function
    | [] -> Alcotest.fail "stash never drained"
    | k :: rest ->
        Alcotest.(check bool) "remove" true (Cuckoo.remove c k);
        List.iter
          (fun k' ->
            Alcotest.(check (option string))
              ("survivor " ^ k')
              (Some (String.uppercase_ascii k'))
              (Cuckoo.find c k'))
          rest;
        if Cuckoo.stash_size c > 0 then drain rest
  in
  drain keys;
  Alcotest.(check bool) "drained before empty" true (Cuckoo.count c > 0);
  Alcotest.(check int) "stash at zero" 0 (Cuckoo.stash_size c)

let test_insert_overwrites_in_place () =
  let writes = ref 0 in
  let c = Cuckoo.create ~on_change:(fun _ -> incr writes) ~domain_bits:4 ~bucket_size:64 () in
  Alcotest.(check (result unit reject)) "first" (Ok ()) (Cuckoo.insert c ~key:"k" ~value:"v1");
  Alcotest.(check int) "one write to place" 1 !writes;
  writes := 0;
  Alcotest.(check (result unit reject)) "overwrite" (Ok ()) (Cuckoo.insert c ~key:"k" ~value:"v2");
  Alcotest.(check int) "one write to overwrite" 1 !writes;
  Alcotest.(check int) "still one record" 1 (Cuckoo.count c);
  Alcotest.(check (option string)) "new value" (Some "v2") (Cuckoo.find c "k")

(* ---------------- wire v4 ---------------- *)

let test_wire_v4_roundtrip () =
  Alcotest.(check int) "protocol version" 5 Wire.protocol_version;
  let q = Wire.Keyword_query { qid = 42; epoch = 7; dpf_key0 = "KEY-ZERO\x00\xff"; dpf_key1 = "key-one" } in
  (match Wire.decode_client (Wire.encode_client q) with
  | Ok (Wire.Keyword_query { qid; epoch; dpf_key0; dpf_key1 }) ->
      Alcotest.(check int) "qid" 42 qid;
      Alcotest.(check int) "epoch" 7 epoch;
      Alcotest.(check string) "key0" "KEY-ZERO\x00\xff" dpf_key0;
      Alcotest.(check string) "key1" "key-one" dpf_key1
  | Ok _ -> Alcotest.fail "decoded as a different message"
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option int)) "request qid" (Some 42) (Wire.request_qid q);
  let a = Wire.Keyword_answer { qid = 42; epoch = 7; share0 = String.make 32 '\x5a'; share1 = "" } in
  (match Wire.decode_server (Wire.encode_server a) with
  | Ok (Wire.Keyword_answer { qid; epoch; share0; share1 }) ->
      Alcotest.(check int) "qid" 42 qid;
      Alcotest.(check int) "epoch" 7 epoch;
      Alcotest.(check string) "share0" (String.make 32 '\x5a') share0;
      Alcotest.(check string) "empty share1 survives" "" share1
  | Ok _ -> Alcotest.fail "decoded as a different message"
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option int)) "reply qid" (Some 42) (Wire.reply_qid a)

let test_wire_v4_crc_rejects_corruption () =
  let enc = Wire.encode_client (Wire.Keyword_query { qid = 1; epoch = 2; dpf_key0 = "abc"; dpf_key1 = "def" }) in
  let flipped = Bytes.of_string enc in
  let off = String.length enc / 2 in
  Bytes.set flipped off (Char.chr (Char.code (Bytes.get flipped off) lxor 0x10));
  (match Wire.decode_client (Bytes.to_string flipped) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit flip decoded cleanly");
  (* truncation below the CRC trailer is also a structured error *)
  match Wire.decode_client (String.sub enc 0 (Wire.trailer_size - 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated message decoded cleanly"

(* ---------------- answer_pair kernel ---------------- *)

let test_answer_pair_matches_scalar () =
  (* 33-byte buckets: the width-2 kernel's word loop leaves a byte tail *)
  let db = Bucket_db.create ~domain_bits:5 ~bucket_size:33 in
  Bucket_db.fill_random db (Lw_util.Det_rng.of_string_seed "pair-kernel");
  let s = Server.of_snapshot (Lw_store.current (Bucket_db.to_store db)) in
  let drbg = Lw_crypto.Drbg.create ~seed:"pair-keys" in
  let k0a, k1a = Lw_dpf.Dpf.gen ~domain_bits:5 ~alpha:3 drbg in
  let k0b, k1b = Lw_dpf.Dpf.gen ~domain_bits:5 ~alpha:17 drbg in
  let pa, pb = Server.answer_pair s k0a k0b in
  Alcotest.(check string) "lane0 = scalar" (Server.answer s k0a) pa;
  Alcotest.(check string) "lane1 = scalar" (Server.answer s k0b) pb;
  (match Server.answer_batch s [| k0a; k0b |] with
  | [| ba; bb |] ->
      Alcotest.(check string) "batch-2 lane0" pa ba;
      Alcotest.(check string) "batch-2 lane1" pb bb
  | _ -> Alcotest.fail "batch of two returned wrong arity");
  (* two-server reconstruction: this server's shares XOR the other key
     half's shares back to the exact bucket bytes *)
  let qa, qb = Server.answer_pair s k1a k1b in
  let xor x y = String.init (String.length x) (fun i -> Char.chr (Char.code x.[i] lxor Char.code y.[i])) in
  Alcotest.(check string) "reconstruct alpha=3" (Bucket_db.get db 3) (xor pa qa);
  Alcotest.(check string) "reconstruct alpha=17" (Bucket_db.get db 17) (xor pb qb);
  (* coincident probes (the same alpha twice) are a legal pair *)
  let ca, cb = Server.answer_pair s k0a k0a in
  Alcotest.(check string) "coincident pair lanes agree" ca cb

(* ---------------- end to end across epochs ---------------- *)

let small_geometry =
  { Lightweb.Universe.default_geometry with
    Lightweb.Universe.data_blob_size = 256;
    (* 2^8 buckets: small enough to stay fast, big enough that ten test
       paths don't hash-collide in the data store's single keymap *)
    data_domain_bits = 8;
  }

let body p gen = Lw_json.Json.String (Printf.sprintf "content of %s, generation %d" p gen)

(* Publish [n] pages, skipping candidate names that hash-collide in the
   data store's single keymap (the collision-renaming story of §5.1 —
   real publishers pick another name, and so do we). Returns the universe
   and the paths that made it in, plus a [push] helper that finds a fresh
   non-colliding name for epoch-2 additions. *)
let make_universe ?(n = 10) name =
  let u = Lightweb.Universe.create ~name small_geometry in
  (match Lightweb.Universe.claim_domain u ~publisher:"pub" ~domain:"kw.example" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let published = ref [] and count = ref 0 and i = ref 0 in
  while !count < n && !i < 1000 do
    let p = Printf.sprintf "kw.example/page-%03d" !i in
    incr i;
    match Lightweb.Universe.push_data u ~publisher:"pub" ~path:p ~value:(body p 1) with
    | Ok () ->
        published := p :: !published;
        incr count
    | Error _ -> () (* collision: pick another name *)
  done;
  if !count < n then Alcotest.fail "could not publish enough pages";
  ignore (Lightweb.Universe.publish_updates u);
  (u, Array.of_list (List.rev !published))

let push_fresh u ~value_gen =
  let rec go i =
    if i >= 2000 then Alcotest.fail "no fresh non-colliding name"
    else
      let p = Printf.sprintf "kw.example/fresh-%03d" i in
      match Lightweb.Universe.push_data u ~publisher:"pub" ~path:p ~value:(body p value_gen) with
      | Ok () -> p
      | Error _ -> go (i + 1)
  in
  go 0

let connect_pair (s0, s1) =
  match
    Lightweb.Zltp_client.connect
      [ Lightweb.Zltp_server.endpoint s0; Lightweb.Zltp_server.endpoint s1 ]
  with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let check_oracle ~what data_client kw_client p =
  let via label r =
    match r with
    | Ok v -> v
    | Error e -> Alcotest.fail (Printf.sprintf "%s %s GET %s: %s" what label p e)
  in
  let by_path = via "path" (Lightweb.Zltp_client.get data_client p) in
  let by_keyword = via "keyword" (Lightweb.Zltp_client.keyword_get kw_client p) in
  Alcotest.(check (option string)) (Printf.sprintf "%s: %s" what p) by_path by_keyword;
  by_keyword

let test_keyword_oracle_across_epochs () =
  let u, paths = make_universe "kw-e2e" in
  let epoch1_clients = (connect_pair (Lightweb.Universe.data_servers u),
                        connect_pair (Lightweb.Universe.keyword_servers u)) in
  let data_client, kw_client = epoch1_clients in
  Fun.protect ~finally:(fun () ->
      Lightweb.Zltp_client.close data_client;
      Lightweb.Zltp_client.close kw_client)
  @@ fun () ->
  (* epoch 1: every published path byte-identical through both verbs *)
  Array.iter
    (fun p ->
      match check_oracle ~what:"epoch1" data_client kw_client p with
      | Some v -> Alcotest.(check string) "value" (Lw_json.Json.to_string (body p 1)) v
      | None -> Alcotest.fail (p ^ " unpublished"))
    paths;
  (* unpublished key: both verbs agree on None *)
  ignore (check_oracle ~what:"epoch1" data_client kw_client "kw.example/never-published");
  (* epoch 2: overwrite one page, add one, remove one, reseal *)
  (match Lightweb.Universe.push_data u ~publisher:"pub" ~path:paths.(3) ~value:(body paths.(3) 2) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let fresh = push_fresh u ~value_gen:2 in
  (match Lightweb.Universe.remove_data u ~publisher:"pub" ~path:paths.(5) with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "remove found nothing"
  | Error e -> Alcotest.fail e);
  ignore (Lightweb.Universe.publish_updates u);
  Alcotest.(check int) "keyword store resealed" 2 (Lightweb.Universe.keyword_epoch u);
  (* the epoch-1 clients keep reading epoch 1 — stale but CONSISTENT is
     the contract while the old epoch is retained, and both verbs must
     agree on the stale view too *)
  (match check_oracle ~what:"stale" data_client kw_client paths.(3) with
  | Some v -> Alcotest.(check string) "stale value" (Lw_json.Json.to_string (body paths.(3) 1)) v
  | None -> Alcotest.fail "stale page lost");
  (* fresh sessions learn epoch 2 at the handshake and see every change,
     byte-identical on every key through both verbs *)
  let data2 = connect_pair (Lightweb.Universe.data_servers u) in
  let kw2 = connect_pair (Lightweb.Universe.keyword_servers u) in
  Fun.protect ~finally:(fun () ->
      Lightweb.Zltp_client.close data2;
      Lightweb.Zltp_client.close kw2)
  @@ fun () ->
  (match check_oracle ~what:"epoch2" data2 kw2 paths.(3) with
  | Some v -> Alcotest.(check string) "updated value" (Lw_json.Json.to_string (body paths.(3) 2)) v
  | None -> Alcotest.fail "updated page lost");
  (match check_oracle ~what:"epoch2" data2 kw2 fresh with
  | Some _ -> ()
  | None -> Alcotest.fail "new page lost");
  Alcotest.(check (option string)) "removed page gone" None
    (match Lightweb.Zltp_client.keyword_get kw2 paths.(5) with
    | Ok v -> v
    | Error e -> Alcotest.fail e);
  Array.iteri
    (fun i p -> if i <> 5 then ignore (check_oracle ~what:"epoch2" data2 kw2 p))
    paths

let test_keyword_batch_matches_singles () =
  let u, paths = make_universe "kw-batch" in
  let kw_client = connect_pair (Lightweb.Universe.keyword_servers u) in
  Fun.protect ~finally:(fun () -> Lightweb.Zltp_client.close kw_client)
  @@ fun () ->
  let keys = [ paths.(1); paths.(4); "kw.example/never-published"; paths.(4); paths.(9) ] in
  let singles =
    List.map
      (fun k ->
        match Lightweb.Zltp_client.keyword_get kw_client k with
        | Ok v -> v
        | Error e -> Alcotest.fail e)
      keys
  in
  match Lightweb.Zltp_client.keyword_get_batch kw_client keys with
  | Ok batched -> Alcotest.(check (list (option string))) "batch = singles" singles batched
  | Error e -> Alcotest.fail e

(* ---------------- chaos over the keyword verb ---------------- *)

(* Loopback ordinals (per direction, 0-based): send 0 = Health probe,
   1 = Hello, 2.. = queries; recv 0 = Health_reply, 1 = Welcome,
   2.. = answers. *)

let quick_policy =
  { Lightweb.Zltp_client.attempts = 4; base_backoff_s = 0.01; max_backoff_s = 0.1; deadline_s = 60.0 }

let chaos_universe = lazy (make_universe "kw-chaos")

let connect_faulty ~sched =
  let u, _ = Lazy.force chaos_universe in
  let clock = Clock.virtual_ () in
  let counters = Faulty.fresh_counters () in
  let s0, s1 = Lightweb.Universe.keyword_servers u in
  let dials = Array.make 2 0 in
  let mk_replica role =
    Lightweb.Zltp_client.replica
      ~name:(Printf.sprintf "kw-r%d" role)
      (fun () ->
        let d = dials.(role) in
        dials.(role) <- d + 1;
        let ep = Lightweb.Zltp_server.endpoint (if role = 0 then s0 else s1) in
        let f, _ = Faulty.wrap ~clock ~counters (sched ~role ~dial:d) ep in
        Ok f)
  in
  Lightweb.Zltp_client.connect_replicated ~policy:quick_policy ~clock
    ~rng:(Lw_crypto.Drbg.create ~seed:"kw-chaos-client")
    [ [ mk_replica 0 ]; [ mk_replica 1 ] ]

let chaos_ops client =
  (* each op must come back with the exact published bytes: a fault may
     cost retries, never correctness (Ok None on a published key would be
     a silent lie, so it fails too) *)
  let _, paths = Lazy.force chaos_universe in
  List.iter
    (fun i ->
      let p = paths.(i) in
      match Lightweb.Zltp_client.keyword_get client p with
      | Ok (Some v) -> Alcotest.(check string) p (Lw_json.Json.to_string (body p 1)) v
      | Ok None -> Alcotest.failf "%s: keyword GET silently lost the record" p
      | Error e -> Alcotest.failf "%s: %s" p e)
    [ 0; 3; 7; 9 ]

let canned_chaos : (string * (role:int -> dial:int -> Faulty.schedule)) list =
  let at r d plan = fun ~role ~dial -> if role = r && dial = d then plan else Faulty.none in
  [
    ("clean", fun ~role:_ ~dial:_ -> Faulty.none);
    ("drop first keyword answer", at 0 0 (Faulty.of_plan ~recv:[ (2, Faulty.Drop) ] ()));
    ("drop a keyword query", at 1 0 (Faulty.of_plan ~send:[ (3, Faulty.Drop) ] ()));
    ("corrupt a keyword answer", at 0 0 (Faulty.of_plan ~recv:[ (3, Faulty.Corrupt 9) ] ()));
    ("duplicate a keyword answer", at 1 0 (Faulty.of_plan ~recv:[ (2, Faulty.Duplicate) ] ()));
    ("truncate a keyword answer", at 0 0 (Faulty.of_plan ~recv:[ (2, Faulty.Truncate 7) ] ()));
    ( "connection dies mid-session",
      at 0 0 (Faulty.of_plan ~recv:[ (3, Faulty.Close_now) ] ()) );
  ]

let test_keyword_chaos_canned () =
  List.iter
    (fun (name, sched) ->
      match connect_faulty ~sched with
      | Error e -> Alcotest.failf "scenario %S: connect failed: %s" name e
      | Ok client ->
          Fun.protect ~finally:(fun () -> Lightweb.Zltp_client.close client) @@ fun () ->
          chaos_ops client)
    canned_chaos

let prop_keyword_chaos_randomized =
  QCheck.Test.make ~name:"randomized keyword chaos: correct bytes or clean error" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let sched ~role ~dial =
        Faulty.bernoulli ~seed:(Printf.sprintf "kw-chaos-%d-%d-%d" seed role dial) ~rate:0.06
      in
      let _, paths = Lazy.force chaos_universe in
      match connect_faulty ~sched with
      | Error _ -> true (* a clean structured connect failure is acceptable *)
      | Ok client ->
          Fun.protect ~finally:(fun () -> Lightweb.Zltp_client.close client) @@ fun () ->
          List.for_all
            (fun i ->
              let p = paths.(i) in
              match Lightweb.Zltp_client.keyword_get client p with
              | Ok (Some v) -> String.equal v (Lw_json.Json.to_string (body p 1))
              | Ok None -> false (* published key: a None is wrong, not degraded *)
              | Error _ -> true (* clean structured failure is acceptable under chaos *))
            [ 0; 2; 4; 6; 8 ])

(* ---------------- runner ---------------- *)

let () =
  Alcotest.run "keyword"
    [
      ( "cuckoo",
        [
          QCheck_alcotest.to_alcotest prop_cuckoo_matches_model;
          Alcotest.test_case "coincident victim not ping-ponged" `Quick
            test_coincident_victim_not_ping_ponged;
          Alcotest.test_case "stash drains to zero" `Quick test_stash_drains_to_zero;
          Alcotest.test_case "overwrite writes once" `Quick test_insert_overwrites_in_place;
        ] );
      ( "wire-v4",
        [
          Alcotest.test_case "keyword roundtrips" `Quick test_wire_v4_roundtrip;
          Alcotest.test_case "crc rejects corruption" `Quick test_wire_v4_crc_rejects_corruption;
        ] );
      ( "kernel",
        [ Alcotest.test_case "answer_pair = scalar answers" `Quick test_answer_pair_matches_scalar ] );
      ( "end-to-end",
        [
          Alcotest.test_case "oracle across epochs" `Quick test_keyword_oracle_across_epochs;
          Alcotest.test_case "batch = singles" `Quick test_keyword_batch_matches_singles;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "canned schedules" `Quick test_keyword_chaos_canned;
          QCheck_alcotest.to_alcotest prop_keyword_chaos_randomized;
        ] );
    ]

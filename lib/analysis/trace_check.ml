(* The dynamic half of the analysis pass: drive the two ZLTP backends
   with pairs of distinct secret keys and assert that the observable
   access traces have identical shape. This turns the obliviousness
   spot-checks scattered through test_oram.ml into a reusable checker
   any test (or future PR) can call with its own keys.

   "Shape" means what an adversary watching memory can count: trace
   length and, for the enclave, that every entry is a valid leaf of the
   same tree. The concrete leaves/buckets are expected to differ — they
   are (pseudo)random — so equality of the values themselves is exactly
   what we must NOT require.

   [check_retry] extends the same discipline to the network: a retried
   private-GET must look like a brand-new query on the wire (fresh DPF
   keys, fresh correlation id, identical frame shape). *)

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ------------------------------------------------------------------ *)
(* Enclave ORAM                                                        *)
(* ------------------------------------------------------------------ *)

(* One enclave per probe key, identically populated, so each trace is
   the trace of a fresh deployment serving only that key's workload. *)
let enclave_trace ~capacity ~value_size ~fill ~gets key =
  let e = Lw_oram.Enclave.create ~seed:"trace-check" ~capacity ~value_size () in
  for i = 0 to fill - 1 do
    match Lw_oram.Enclave.put e ~key:(Printf.sprintf "page-%d" i) ~value:"v" with
    | Ok () -> ()
    | Error _ -> invalid_arg "Trace_check: fill exceeds enclave capacity"
  done;
  Lw_oram.Enclave.clear_trace e;
  for _ = 1 to gets do
    ignore (Lw_oram.Enclave.get e key)
  done;
  (Lw_oram.Enclave.observed_trace e, Lw_oram.Enclave.accesses_per_get e)

let check_enclave ?(capacity = 32) ?(value_size = 64) ?(fill = 10) ?(gets = 6)
    ?(keys = [ "page-1"; "page-7"; "no-such-key.example" ]) () =
  if List.length keys < 2 then err "check_enclave: need at least 2 distinct keys"
  else begin
    let traces = List.map (enclave_trace ~capacity ~value_size ~fill ~gets) keys in
    let lengths = List.map (fun (t, _) -> List.length t) traces in
    match lengths with
    | [] -> err "check_enclave: no traces"
    | first :: rest ->
        if List.exists (fun l -> l <> first) rest then
          err "enclave trace lengths differ across keys: [%s]"
            (String.concat "; " (List.map string_of_int lengths))
        else if first <> gets then
          err "enclave trace has %d accesses for %d gets: op count leaks" first gets
        else begin
          (* every logged entry must be a leaf of the same tree: a trace
             that wandered outside the leaf range would be distinguishable *)
          let leaf_bound =
            match traces with (_, per_get) :: _ -> 1 lsl (per_get - 1) | [] -> 0
          in
          let bad =
            List.concat_map
              (fun ((t, _), key) ->
                List.filter_map
                  (fun leaf ->
                    if leaf < 0 || leaf >= leaf_bound then Some (key, leaf) else None)
                  t)
              (List.combine traces keys)
          in
          match bad with
          | [] -> Ok ()
          | (key, leaf) :: _ -> err "enclave trace for %S left the leaf range: %d" key leaf
        end
  end

(* ------------------------------------------------------------------ *)
(* Snapshot linear scan (PIR mode)                                     *)
(* ------------------------------------------------------------------ *)

(* A seeded random database sealed as a one-epoch store, and a server
   over its snapshot. Every probe below traces the store behind it. *)
let random_store ~domain_bits ~bucket_size =
  let db = Lw_pir.Bucket_db.create ~domain_bits ~bucket_size in
  Lw_pir.Bucket_db.fill_random db (Lw_util.Det_rng.of_string_seed "trace-check-db");
  let st = Lw_pir.Bucket_db.to_store db in
  (st, Lw_pir.Server.of_snapshot (Lw_store.current st))

(* [f ()] with the store's access trace on; returns its result and the
   trace. *)
let traced st f =
  Lw_store.set_tracing st true;
  let r = f () in
  let t = Lw_store.access_trace st in
  Lw_store.set_tracing st false;
  (r, t)

(* For each secret index, generate the DPF share pair and run both
   servers' scans with tracing on. The masked scan must touch buckets
   [0..size) in order for every key and both parties. *)
let scan_traces ~domain_bits ~bucket_size alpha =
  let st, server = random_store ~domain_bits ~bucket_size in
  let rng = Lw_crypto.Drbg.create ~seed:"trace-check-dpf" in
  let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha rng in
  List.map (fun k -> snd (traced st (fun () -> Lw_pir.Server.answer server k))) [ k0; k1 ]

let check_bucket_scan ?(domain_bits = 6) ?(bucket_size = 32) ?(alphas = [ 3; 47 ]) () =
  if List.length alphas < 2 then err "check_bucket_scan: need at least 2 distinct keys"
  else begin
    let expected = List.init (1 lsl domain_bits) Fun.id in
    let failures =
      List.concat_map
        (fun alpha ->
          List.concat_map
            (* the checker's whole job is to branch on whether the
               key-derived trace matches the public full walk; this runs
               in tests, never on an answer path *)
            (* lw-lint: allow taint lines=2 *)
            (fun trace -> if trace = expected then [] else [ alpha ])
            (scan_traces ~domain_bits ~bucket_size alpha))
        alphas
    in
    (* lw-lint: allow taint *)
    match failures with
    | [] -> Ok ()
    | alpha :: _ ->
        err "bucket scan trace for alpha=%d is not the full in-order walk" alpha
  end

(* ------------------------------------------------------------------ *)
(* Bit-packed batch scan (PIR mode)                                    *)
(* ------------------------------------------------------------------ *)

(* The batched kernel streams the database in blocks, revisiting each
   block once per 8-query pack; the observable per-bucket trace is the
   same deterministic block walk whatever the secret indices are. Drive
   [answer_batch] with several distinct batches of secrets (both key
   shares of each) and assert (1) the traces are identical across
   batches and parties, and (2) every bucket appears exactly once per
   pack — i.e. coverage is full and no bucket's visit count correlates
   with any query's target. *)
let batch_scan_traces ~domain_bits ~bucket_size alphas =
  let st, server = random_store ~domain_bits ~bucket_size in
  let rng = Lw_crypto.Drbg.create ~seed:"trace-check-dpf" in
  let pairs = List.map (fun alpha -> Lw_dpf.Dpf.gen ~domain_bits ~alpha rng) alphas in
  List.map
    (fun party ->
      let keys =
        Array.of_list (List.map (fun (k0, k1) -> if party = 0 then k0 else k1) pairs)
      in
      snd (traced st (fun () -> Lw_pir.Server.answer_batch server keys)))
    [ 0; 1 ]

let check_batch_scan ?(domain_bits = 5) ?(bucket_size = 24)
    ?(batches = [ [ 3; 9; 17; 28; 5 ]; [ 1; 2; 30; 31; 16 ] ]) () =
  let widths = List.sort_uniq compare (List.map List.length batches) in
  match widths with
  | [] -> err "check_batch_scan: need at least one batch"
  | _ :: _ :: _ ->
      (* trace shape legitimately depends on the (public) batch width, so
         probing obliviousness requires same-width batches *)
      err "check_batch_scan: batches must share one width"
  | [ width ] when width < 2 || List.length batches < 2 ->
      err "check_batch_scan: need >= 2 batches of >= 2 queries"
  | [ width ] -> (
      let n_packs = (width + 7) / 8 in
      let size = 1 lsl domain_bits in
      let traces =
        List.concat_map (batch_scan_traces ~domain_bits ~bucket_size) batches
      in
      match traces with
      | [] -> err "check_batch_scan: no traces"
      | first :: rest ->
          if List.exists (fun t -> t <> first) rest then
            err "batch scan trace depends on the secret indices"
          else begin
            let counts = Array.make size 0 in
            let oob = ref None in
            List.iter
              (fun i ->
                if i < 0 || i >= size then oob := Some i else counts.(i) <- counts.(i) + 1)
              first;
            match !oob with
            | Some i -> err "batch scan trace left the bucket range: %d" i
            | None ->
                let bad = ref None in
                Array.iteri (fun i c -> if c <> n_packs && !bad = None then bad := Some (i, c)) counts;
                (match !bad with
                | Some (i, c) ->
                    err
                      "batch scan visited bucket %d %d times (expected once per pack, %d)"
                      i c n_packs
                | None -> Ok ())
          end)

(* ------------------------------------------------------------------ *)
(* Domain-partitioned scan (PIR mode)                                  *)
(* ------------------------------------------------------------------ *)

(* The parallel scan splits the bucket range into 2^levels aligned
   partitions and rebases the key per partition. Each partition's kernel
   still walks its sub-range front to back, so on the deterministic
   serial schedule ([answer_partitioned], ascending partition order) the
   observable trace must be exactly the full in-order walk — the same
   shape the single-threaded scan leaves. Anything else (a skipped
   bucket, a partition whose walk depends on the secret index) would
   hand a memory adversary a distinguisher; the real multi-domain path
   runs the identical per-partition kernels, only interleaved by the
   scheduler, so per-worker traces inherit this shape. The answer must
   also stay bit-identical to the serial scan. *)
let partitioned_scan_traces ~domain_bits ~bucket_size ~partitions alpha =
  let st, server = random_store ~domain_bits ~bucket_size in
  let rng = Lw_crypto.Drbg.create ~seed:"trace-check-dpf" in
  let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha rng in
  List.map
    (fun k ->
      let serial = Lw_pir.Server.answer server k in
      let share, t =
        traced st (fun () -> Lw_pir.Server.answer_partitioned ~partitions server k)
      in
      (t, String.equal share serial))
    [ k0; k1 ]

let check_partitioned_scan ?(domain_bits = 6) ?(bucket_size = 32)
    ?(partition_counts = [ 2; 4; 8 ]) ?(alphas = [ 3; 47 ]) () =
  if List.length alphas < 2 then err "check_partitioned_scan: need >= 2 distinct keys"
  else begin
    let expected = List.init (1 lsl domain_bits) Fun.id in
    let rec check = function
      | [] -> Ok ()
      | (partitions, alpha) :: rest ->
          let probes =
            partitioned_scan_traces ~domain_bits ~bucket_size ~partitions alpha
          in
          (* same taint-lint situation as [check_bucket_scan]: comparing a
             key-derived trace against the public walk is this checker's
             entire purpose *)
          (* lw-lint: allow taint lines=10 *)
          let bad_trace = List.exists (fun (t, _) -> t <> expected) probes in
          let bad_share = List.exists (fun (_, ok) -> not ok) probes in
          if bad_trace then
            err
              "partitioned scan trace (partitions=%d, alpha=%d) is not the full \
               in-order walk"
              partitions alpha
          else if bad_share then
            err "partitioned answer (partitions=%d, alpha=%d) differs from serial"
              partitions alpha
          else check rest
    in
    check
      (List.concat_map (fun p -> List.map (fun a -> (p, a)) alphas) partition_counts)
  end

(* ------------------------------------------------------------------ *)
(* CoW snapshot scan vs. a one-block snapshot                          *)
(* ------------------------------------------------------------------ *)

(* The epoch engine must be invisible to a trace adversary: a scan over
   a snapshot assembled from several copy-on-write epochs (some blocks
   freshly copied, some shared with older epochs) has to touch exactly
   the same buckets in exactly the same order as a scan over a snapshot
   holding the same bytes in one block — and return the same share.
   Build both representations of one logical database, mutating across
   two sealed epochs so the CoW snapshot genuinely mixes shared and
   copied blocks, and compare traces and answers for both DPF parties. *)
let check_snapshot_scan ?(domain_bits = 6) ?(bucket_size = 32) ?(alphas = [ 5; 42 ]) () =
  let size = 1 lsl domain_bits in
  let bucket i gen = Printf.sprintf "bucket-%d-gen%d" i gen in
  (* reference contents, sealed below as a one-block snapshot *)
  let db = Lw_pir.Bucket_db.create ~domain_bits ~bucket_size in
  for i = 0 to size - 1 do
    Lw_pir.Bucket_db.set db i (bucket i 0)
  done;
  (* epoch 1: same full fill; small blocks so the domain spans many CoW
     blocks and the second epoch leaves most of them shared *)
  let st =
    Lw_store.create ~block_bytes:(8 * bucket_size) ~domain_bits ~bucket_size ()
  in
  let w1 = Lw_store.writer st in
  for i = 0 to size - 1 do
    Lw_store.Writer.set w1 i (bucket i 0)
  done;
  ignore (Lw_store.Writer.seal w1);
  (* epoch 2: sparse churn, mirrored into the reference *)
  let w2 = Lw_store.writer st in
  let rec churn i =
    if i < size then begin
      Lw_pir.Bucket_db.set db i (bucket i 1);
      Lw_store.Writer.set w2 i (bucket i 1);
      churn (i + 9)
    end
  in
  churn 3;
  let snap = Lw_store.Writer.seal w2 in
  let one_block = Lw_pir.Bucket_db.to_store ~block_bytes:(size * bucket_size) db in
  let one_block_server = Lw_pir.Server.of_snapshot (Lw_store.current one_block) in
  let snap_server = Lw_pir.Server.of_snapshot snap in
  let rng = Lw_crypto.Drbg.create ~seed:"trace-check-snapshot" in
  let expected_trace = List.init size Fun.id in
  let rec check_alphas = function
    | [] -> Ok ()
    | alpha :: rest ->
        let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha rng in
        let rec check_keys = function
          | [] -> check_alphas rest
          | k :: more ->
              let one_share, one_trace =
                traced one_block (fun () -> Lw_pir.Server.answer one_block_server k)
              in
              let snap_share, snap_trace =
                traced st (fun () -> Lw_pir.Server.answer snap_server k)
              in
              if not (String.equal one_share snap_share) then
                err "snapshot share differs from one-block share for alpha=%d" alpha
              else if one_trace <> expected_trace then
                err "one-block scan trace for alpha=%d is not the full in-order walk" alpha
              else if snap_trace <> expected_trace then
                err
                  "CoW snapshot scan trace for alpha=%d differs from the one-block walk: \
                   the epoch engine leaks"
                  alpha
              else check_keys more
        in
        check_keys [ k0; k1 ]
  in
  check_alphas alphas

(* ------------------------------------------------------------------ *)
(* Sharded frontend over a shared snapshot (PIR mode)                  *)
(* ------------------------------------------------------------------ *)

(* Frontend shards are slices of one pinned snapshot, so the shards of
   one answer read shared bytes and trace into the same store. Walking
   the shards in order must therefore leave exactly the full in-order
   walk, for 2, 4 and 8 shards, two secret indices and both parties —
   and the combined share must equal the unsharded answer, so the
   checker cannot pass on a frontend that skips its scan. *)
let check_sharded_scan () =
  let domain_bits = 6 in
  let st, server = random_store ~domain_bits ~bucket_size:32 in
  let rng = Lw_crypto.Drbg.create ~seed:"trace-check-sharded" in
  let expected = List.init (1 lsl domain_bits) Fun.id in
  let rec check = function
    | [] -> Ok ()
    | (shard_bits, alpha) :: rest ->
        let fe = Lightweb.Zltp_frontend.of_store st ~shard_bits in
        let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha rng in
        let probes =
          List.map
            (fun k ->
              let share, t = traced st (fun () -> Lightweb.Zltp_frontend.answer fe k) in
              (t, String.equal share (Lw_pir.Server.answer server k)))
            [ k0; k1 ]
        in
        (* comparing a key-derived trace against the public walk is this
           checker's entire purpose, as in [check_partitioned_scan] *)
        (* lw-lint: allow taint lines=8 *)
        if List.exists (fun (t, _) -> t <> expected) probes then
          err "sharded scan trace (%d shards, alpha=%d) is not the full in-order walk"
            (1 lsl shard_bits) alpha
        else if List.exists (fun (_, ok) -> not ok) probes then
          err "sharded answer (%d shards, alpha=%d) differs from the unsharded answer"
            (1 lsl shard_bits) alpha
        else check rest
  in
  check (List.concat_map (fun sb -> [ (sb, 3); (sb, 47) ]) [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Single-server PIR scan (Single mode)                                *)
(* ------------------------------------------------------------------ *)

(* The LWE answer path promises the same observable shape as the
   two-server XOR scan: one pass over every bucket in index order,
   whatever column the masked query selects. Build a two-epoch CoW
   store (so the snapshot mixes shared and copied blocks, like
   [check_snapshot_scan]), issue queries for several distinct secret
   indices, and assert that every scan trace is exactly the public
   full walk — and that each query still recovers its bucket's bytes,
   so the checker can't pass vacuously on a broken scan. *)
let check_spir_scan ?(domain_bits = 6) ?(bucket_size = 32) ?(indices = [ 5; 42 ]) () =
  let size = 1 lsl domain_bits in
  let bucket i gen = Printf.sprintf "bucket-%d-gen%d" i gen in
  let st =
    Lw_store.create ~hash_key:"trace-check-spir" ~block_bytes:(8 * bucket_size)
      ~domain_bits ~bucket_size ()
  in
  let w1 = Lw_store.writer st in
  for i = 0 to size - 1 do
    Lw_store.Writer.set w1 i (bucket i 0)
  done;
  ignore (Lw_store.Writer.seal w1);
  let w2 = Lw_store.writer st in
  let rec churn i =
    if i < size then begin
      Lw_store.Writer.set w2 i (bucket i 1);
      churn (i + 9)
    end
  in
  churn 3;
  let snap = Lw_store.Writer.seal w2 in
  match Lw_pir.Spir.decode_hint (Lw_pir.Spir.hint_of_snapshot Lw_pir.Spir.default_params snap) with
  | Error e -> err "spir hint round trip failed: %s" e
  | Ok hint ->
      let rng = Lw_crypto.Drbg.create ~seed:"trace-check-spir-query" in
      let expected_trace = List.init size Fun.id in
      let rec check_indices = function
        | [] -> Ok ()
        | index :: rest -> (
            let expected_page = Lw_store.Snapshot.get snap index in
            let secret, query = Lw_pir.Spir.Client.query hint ~domain_bits ~index rng in
            Lw_store.Snapshot.set_tracing snap true;
            (* feeding a secret-derived query into the server path (and
               branching on what comes back) is this checker's entire
               purpose, like every probe above *)
            (* lw-lint: allow taint lines=14 *)
            let answered = Lw_pir.Spir.answer snap query in
            let trace = Lw_store.Snapshot.access_trace snap in
            Lw_store.Snapshot.set_tracing snap false;
            match answered with
            | Error e -> err "spir answer failed for index=%d: %s" index e
            | Ok answer ->
                if trace <> expected_trace then
                  err
                    "SPIR scan trace for index=%d is not the full in-order walk: \
                     the masked query leaks"
                    index
                else (
                  match Lw_pir.Spir.Client.recover hint secret answer with
                  | Error e -> err "spir recovery failed for index=%d: %s" index e
                  | Ok page ->
                      if not (String.equal page expected_page) then
                        err "spir recovered wrong bytes for index=%d" index
                      else check_indices rest))
      in
      check_indices indices

(* ------------------------------------------------------------------ *)
(* Privacy-preserving retry (ZLTP client)                              *)
(* ------------------------------------------------------------------ *)

(* The self-healing client promises that a retried private-GET is
   indistinguishable on the wire from a brand-new query: fresh DPF keys,
   fresh correlation id, identical frame shape. Check it dynamically:
   run the same GET against a replica set where the preferred replica of
   one role swallows its first answer (forcing a timeout, failover and
   retry), record every frame the client sends, and compare against a
   fault-free control run. *)

let tap log (ep : Lw_net.Endpoint.t) =
  {
    Lw_net.Endpoint.send =
      (fun m ->
        log := `Send m :: !log;
        ep.Lw_net.Endpoint.send m);
    recv =
      (fun () ->
        let m = ep.Lw_net.Endpoint.recv () in
        log := `Recv m :: !log;
        m);
    close = ep.Lw_net.Endpoint.close;
  }

let sent_pir_queries log =
  List.rev !log
  |> List.filter_map (function
       | `Recv _ -> None
       | `Send frame -> (
           match Lightweb.Zltp_wire.decode_client frame with
           | Ok (Lightweb.Zltp_wire.Pir_query { qid; epoch = _; dpf_key }) ->
               Some (qid, dpf_key, String.length frame)
           | _ -> None))

let check_retry ?(domain_bits = 6) ?(bucket_size = 32) ?(alpha = 13) () =
  let open Lightweb in
  let seed_db = "trace-check-retry-db" in
  let make_db () =
    let db = Lw_pir.Bucket_db.create ~domain_bits ~bucket_size in
    Lw_pir.Bucket_db.fill_random db (Lw_util.Det_rng.of_string_seed seed_db);
    db
  in
  let expected = Lw_pir.Bucket_db.get (make_db ()) alpha in
  let run ~faulted =
    let log0 = ref [] and log1 = ref [] in
    let clock = Lw_obs.Clock.virtual_ () in
    let replica_of ~log ~schedule name =
      Zltp_client.replica ~name (fun () ->
          let srv =
            Zltp_server.create ~server_id:name ~blob_size:bucket_size
              (Zltp_backend.versioned (Lw_pir.Bucket_db.to_store (make_db ())))
          in
          let ep, _ = Lw_net.Faulty.wrap ~clock schedule (Zltp_server.endpoint srv) in
          Ok (tap log ep))
    in
    (* on the faulted run, replica a0 swallows its first Answer (recv
       ordinal 2: after Health_reply and Welcome), so the client times
       out, fails over to a1 and retries *)
    let a0_schedule =
      if faulted then Lw_net.Faulty.of_plan ~recv:[ (2, Lw_net.Faulty.Drop) ] ()
      else Lw_net.Faulty.none
    in
    let roles =
      [
        [
          replica_of ~log:log0 ~schedule:a0_schedule "a0";
          replica_of ~log:log0 ~schedule:Lw_net.Faulty.none "a1";
        ];
        [ replica_of ~log:log1 ~schedule:Lw_net.Faulty.none "b0" ];
      ]
    in
    let rng =
      Lw_crypto.Drbg.create ~seed:(if faulted then "retry-faulted" else "retry-control")
    in
    match Zltp_client.connect_replicated ~rng ~clock roles with
    | Error e -> Error (Printf.sprintf "connect failed: %s" e)
    | Ok client ->
        let result = Zltp_client.get_raw_index client alpha in
        let stats = (Zltp_client.retries client, Zltp_client.failovers client) in
        Zltp_client.close client;
        Ok (result, sent_pir_queries log0, sent_pir_queries log1, stats)
  in
  match (run ~faulted:false, run ~faulted:true) with
  | Error e, _ -> err "control run: %s" e
  | _, Error e -> err "faulted run: %s" e
  | Ok (res_c, q0_c, q1_c, (retries_c, _)), Ok (res_f, q0_f, q1_f, (retries_f, failovers_f))
    -> (
      let check_value label = function
        | Error e -> err "%s run failed: %s" label e
        | Ok v when not (String.equal v expected) -> err "%s run returned wrong bytes" label
        | Ok _ -> Ok ()
      in
      match (check_value "control" res_c, check_value "faulted" res_f) with
      | (Error _ as e), _ | _, (Error _ as e) -> e
      | Ok (), Ok () ->
          if retries_c <> 0 then err "control run retried %d times" retries_c
          else if retries_f <> 1 then err "faulted run retried %d times, wanted 1" retries_f
          else if failovers_f <> 1 then
            err "faulted run failed over %d times, wanted 1" failovers_f
          else if List.length q0_c <> 1 || List.length q1_c <> 1 then
            err "control run sent %d+%d queries, wanted 1+1" (List.length q0_c)
              (List.length q1_c)
          else if List.length q0_f <> 2 || List.length q1_f <> 2 then
            err "faulted run sent %d+%d queries, wanted 2+2 (retry on both roles)"
              (List.length q0_f) (List.length q1_f)
          else begin
            let all = q0_c @ q1_c @ q0_f @ q1_f in
            let sizes = List.sort_uniq compare (List.map (fun (_, _, n) -> n) all) in
            let keys = List.map (fun (_, k, _) -> k) all in
            let distinct_keys = List.sort_uniq compare keys in
            let qids run = List.sort_uniq compare (List.map (fun (q, _, _) -> q) run) in
            if List.length sizes <> 1 then
              err "retried query frames differ in size: a retry is distinguishable"
            else if List.length distinct_keys <> List.length keys then
              err "a DPF key was reused across attempts: retries must use fresh keys"
            else if List.length (qids q0_f) <> 2 then
              err "faulted run reused a correlation id across attempts"
            else Ok ()
          end)

let check_all () =
  List.fold_left
    (fun acc check -> Result.bind acc check)
    (Ok ())
    [
      (fun () -> check_enclave ());
      (fun () -> check_bucket_scan ());
      (fun () -> check_batch_scan ());
      (fun () -> check_partitioned_scan ());
      (fun () -> check_snapshot_scan ());
      (fun () -> check_sharded_scan ());
      (fun () -> check_spir_scan ());
      (fun () -> check_retry ());
    ]

(* Epoch-versioned storage engine suite (`dune build @store`):
   Lw_store unit tests, the writer/seal-vs-naive-reference QCheck
   property, the layers that ride on the engine (Lw_pir.Store pending
   batches, Universe_store round-trips, the sharded front-end's
   epoch-mismatch refusal) and the client-side page-visit pinning. *)

open Lightweb
module Store = Lw_store
module Snapshot = Lw_store.Snapshot
module Writer = Lw_store.Writer

let pad size s =
  if String.length s >= size then String.sub s 0 size
  else s ^ String.make (size - String.length s) '\000'

let zeros size = String.make size '\000'

(* ---------------- engine basics ---------------- *)

let test_engine_empty () =
  let st = Store.create ~domain_bits:4 ~bucket_size:32 () in
  Alcotest.(check int) "epoch 0" 0 (Store.current_epoch st);
  Alcotest.(check int) "size" 16 (Store.size st);
  Alcotest.(check int) "total bytes" (16 * 32) (Store.total_bytes st);
  let snap = Store.current st in
  Alcotest.(check string) "all-zero" (zeros 32) (Snapshot.get snap 7);
  Alcotest.(check bool) "empty" true (Snapshot.is_empty snap 7);
  Alcotest.(check int) "occupied" 0 (Snapshot.occupied snap)

let test_engine_seal_and_read () =
  let st = Store.create ~domain_bits:4 ~bucket_size:32 () in
  let w = Store.writer st in
  Writer.set w 3 "hello";
  Writer.set w 9 "world";
  Alcotest.(check string) "read-your-writes" (pad 32 "hello") (Writer.get w 3);
  Alcotest.(check int) "buffered" 2 (Writer.mutations w);
  (* nothing visible until seal *)
  Alcotest.(check string) "current still empty" (zeros 32)
    (Snapshot.get (Store.current st) 3);
  let snap = Writer.seal w in
  Alcotest.(check int) "epoch 1" 1 (Snapshot.epoch snap);
  Alcotest.(check int) "current epoch" 1 (Store.current_epoch st);
  Alcotest.(check string) "sealed value" (pad 32 "hello") (Snapshot.get snap 3);
  Alcotest.(check string) "other value" (pad 32 "world") (Snapshot.get snap 9);
  Alcotest.(check int) "occupied" 2 (Snapshot.occupied snap);
  (* clear in the next epoch *)
  let w2 = Store.writer st in
  Writer.clear w2 3;
  let snap2 = Writer.seal w2 in
  Alcotest.(check string) "cleared" (zeros 32) (Snapshot.get snap2 3);
  Alcotest.(check string) "untouched survives" (pad 32 "world") (Snapshot.get snap2 9);
  (* the earlier snapshot is immutable *)
  Alcotest.(check string) "old epoch unchanged" (pad 32 "hello") (Snapshot.get snap 3)

let test_engine_cow_blocks () =
  (* 64 buckets x 32 B with 128 B blocks = 16 blocks of 4 buckets *)
  let st = Store.create ~block_bytes:128 ~domain_bits:6 ~bucket_size:32 () in
  Alcotest.(check int) "buckets per block" 4 (Store.block_buckets st);
  Alcotest.(check int) "block count" 16 (Store.n_blocks st);
  let w = Store.writer st in
  for i = 0 to 63 do
    Writer.set w i (Printf.sprintf "gen0-%d" i)
  done;
  let s1 = Writer.seal w in
  (* second epoch touches two blocks: buckets 5,6 (block 1) and 60 (block 15) *)
  let w2 = Store.writer st in
  Writer.set w2 5 "gen1-5";
  Alcotest.(check int) "first touch copies its block" 1 (Writer.dirty_blocks w2);
  Alcotest.(check int) "one block's bytes" 128 (Writer.cow_bytes w2);
  Writer.set w2 6 "gen1-6";
  Alcotest.(check int) "same block free" 1 (Writer.dirty_blocks w2);
  Writer.set w2 60 "gen1-60";
  Alcotest.(check int) "second block" 2 (Writer.dirty_blocks w2);
  Alcotest.(check int) "two blocks' bytes" 256 (Writer.cow_bytes w2);
  let s2 = Writer.seal w2 in
  (* physical diff exposes exactly the copied block ranges *)
  Alcotest.(check (list (pair int int)))
    "diff ranges" [ (4, 4); (60, 4) ] (Snapshot.diff_ranges s1 s2);
  Alcotest.(check string) "new value" (pad 32 "gen1-5") (Snapshot.get s2 5);
  Alcotest.(check string) "shared value" (pad 32 "gen0-40") (Snapshot.get s2 40);
  Alcotest.(check string) "old epoch keeps old value" (pad 32 "gen0-5") (Snapshot.get s1 5)

let test_engine_pin_retire () =
  let st = Store.create ~keep:1 ~domain_bits:4 ~bucket_size:32 () in
  let seal_one tag =
    let w = Store.writer st in
    Writer.set w 0 tag;
    Writer.seal w
  in
  ignore (seal_one "e1");
  (* keep=1: sealing epoch 2 retires unpinned epoch 1 *)
  ignore (seal_one "e2");
  Alcotest.(check (list int)) "only current live" [ 2 ] (Store.live_epochs st);
  (match Store.pin st ~epoch:1 with
  | Error Store.Retired -> ()
  | Error Store.Ahead -> Alcotest.fail "epoch 1 reported ahead"
  | Ok _ -> Alcotest.fail "retired epoch pinned");
  (match Store.pin st ~epoch:9 with
  | Error Store.Ahead -> ()
  | Error Store.Retired -> Alcotest.fail "future epoch reported retired"
  | Ok _ -> Alcotest.fail "future epoch pinned");
  (* a pin holds an epoch across later seals *)
  let pinned =
    match Store.pin st ~epoch:2 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "current epoch must pin"
  in
  ignore (seal_one "e3");
  Alcotest.(check (list int)) "pinned epoch survives" [ 2; 3 ] (Store.live_epochs st);
  Alcotest.(check string) "pinned bytes stable" (pad 32 "e2") (Snapshot.get pinned 0);
  Store.unpin st pinned;
  Alcotest.(check (list int)) "unpin retires it" [ 3 ] (Store.live_epochs st);
  Alcotest.(check int) "oldest" 3 (Store.oldest_epoch st)

let test_engine_stale_writer () =
  let st = Store.create ~domain_bits:4 ~bucket_size:32 () in
  let w1 = Store.writer st in
  let w2 = Store.writer st in
  Writer.set w1 0 "first";
  Writer.set w2 1 "second";
  ignore (Writer.seal w1);
  (match Writer.seal w2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stale writer sealed");
  (* a sealed writer refuses further writes too *)
  match Writer.set w1 2 "late" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "sealed writer accepted a write"

(* ---------------- QCheck: engine vs naive full-copy reference --------- *)

(* Any interleaving of writer mutations and seals must yield snapshots
   indistinguishable from the naive implementation that copies the whole
   database at every seal. 16 buckets x 16 B with 32 B blocks keeps the
   CoW machinery (2 buckets/block) fully exercised. *)

type op = Set of int * int | Clear of int | Seal

let gen_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (5, map2 (fun i v -> Set (i, v)) (int_bound 15) (int_bound 99));
        (2, map (fun i -> Clear i) (int_bound 15));
        (2, return Seal);
      ]
  in
  list_size (0 -- 40) op

let pp_op = function
  | Set (i, v) -> Printf.sprintf "Set(%d,%d)" i v
  | Clear i -> Printf.sprintf "Clear %d" i
  | Seal -> "Seal"

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"snapshots equal naive full-copy reference" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_op ops)) gen_ops)
    (fun ops ->
      let bucket_size = 16 in
      let st = Store.create ~block_bytes:32 ~domain_bits:4 ~bucket_size () in
      let reference = Array.make 16 (zeros bucket_size) in
      let sealed = ref [] in
      let w = ref (Store.writer st) in
      List.iter
        (fun op ->
          match op with
          | Set (i, v) ->
              let value = Printf.sprintf "v%d-%d" i v in
              Writer.set !w i value;
              reference.(i) <- pad bucket_size value
          | Clear i ->
              Writer.clear !w i;
              reference.(i) <- zeros bucket_size
          | Seal ->
              let snap = Writer.seal !w in
              (* re-pin so later retirement cannot reclaim it *)
              (match Store.pin st ~epoch:(Snapshot.epoch snap) with
              | Ok s -> sealed := (s, Array.copy reference) :: !sealed
              | Error _ -> failwith "freshly sealed epoch must pin");
              w := Store.writer st)
        ops;
      let ok =
        List.for_all
          (fun (snap, copy) ->
            let all = ref true in
            Array.iteri
              (fun i expected ->
                if not (String.equal (Snapshot.get snap i) expected) then all := false)
              copy;
            !all)
          !sealed
      in
      List.iter (fun (snap, _) -> Store.unpin st snap) !sealed;
      ok)

(* ---------------- Lw_pir.Store on the engine ---------------- *)

let test_pir_store_pending () =
  let open Lw_pir in
  let s = Store.create ~domain_bits:8 ~bucket_size:64 () in
  Alcotest.(check int) "epoch 0 before publish" 0
    (Lw_store.current_epoch (Store.engine s));
  (match Store.insert s ~key:"alpha" ~value:"1" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "insert failed");
  Alcotest.(check bool) "buffered" true (Store.pending_mutations s > 0);
  (* read-your-writes before any epoch exists *)
  Alcotest.(check (option string)) "find sees pending" (Some "1") (Store.find s "alpha");
  Alcotest.(check int) "still epoch 0" 0 (Lw_store.current_epoch (Store.engine s));
  let snap = Store.publish s in
  Alcotest.(check int) "publish seals epoch 1" 1 (Lw_store.Snapshot.epoch snap);
  Alcotest.(check int) "no pending left" 0 (Store.pending_mutations s);
  (* re-inserting the same key overwrites without growing the count
     (the Option.is_none regression this PR fixed) *)
  (match Store.insert s ~key:"alpha" ~value:"2" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "overwrite failed");
  Alcotest.(check int) "count stays 1" 1 (Store.count s);
  Alcotest.(check (option string)) "overwrite wins" (Some "2") (Store.find s "alpha");
  (* publish is a no-op when nothing is pending *)
  ignore (Store.publish s);
  let e_after = Lw_store.current_epoch (Store.engine s) in
  ignore (Store.publish s);
  Alcotest.(check int) "idle publish mints nothing" e_after
    (Lw_store.current_epoch (Store.engine s))

(* ---------------- Universe_store round-trip ---------------- *)

let site_code domain =
  Printf.sprintf
    {|
  fn plan(path, state) {
    if (path == "" || path == "/") { return [%S + "/front.json"]; }
    return [%S + path + ".json"];
  }
  fn render(path, state, data) {
    if (data[0] == null) { return "404"; }
    return get(data[0], "body", "(empty)");
  }
|}
    domain domain

let make_universe () =
  let u = Universe.create ~name:"store-suite" Universe.default_geometry in
  let site =
    {
      Publisher.domain = "news.example";
      code = site_code "news.example";
      pages =
        [
          ("/front.json", Lw_json.Json.Obj [ ("body", Lw_json.Json.String "Front") ]);
          ("/a.json", Lw_json.Json.Obj [ ("body", Lw_json.Json.String "Story A") ]);
        ];
    }
  in
  match Publisher.push u ~publisher:"pub" site with
  | Ok report -> (u, report)
  | Error e -> Alcotest.fail e

let test_publish_epochs () =
  let u, report = make_universe () in
  Alcotest.(check bool) "code epoch minted" true (report.Publisher.code_epoch >= 1);
  Alcotest.(check bool) "data epoch minted" true (report.Publisher.data_epoch >= 1);
  (* nothing pending after a push: publish_updates is a stable no-op *)
  let e = Universe.publish_updates u in
  Alcotest.(check (pair int int))
    "idle publish stable" e (Universe.publish_updates u);
  (* a second push seals strictly newer epochs *)
  let site2 =
    {
      Publisher.domain = "wiki.example";
      code = site_code "wiki.example";
      pages = [ ("/front.json", Lw_json.Json.Obj [ ("body", Lw_json.Json.String "W") ]) ];
    }
  in
  match Publisher.push u ~publisher:"pub2" site2 with
  | Error e -> Alcotest.fail e
  | Ok r2 ->
      Alcotest.(check bool) "epochs advance" true
        (r2.Publisher.code_epoch > report.Publisher.code_epoch
        && r2.Publisher.data_epoch > report.Publisher.data_epoch)

let test_universe_roundtrip () =
  let u, _ = make_universe () in
  match Universe_store.import (Universe_store.export u) with
  | Error e -> Alcotest.failf "import failed: %s" e
  | Ok u2 ->
      Alcotest.(check (list (pair string string)))
        "owners" (Universe.domains u) (Universe.domains u2);
      Alcotest.(check (list string)) "paths" (Universe.data_paths u) (Universe.data_paths u2);
      List.iter
        (fun path ->
          Alcotest.(check (option string))
            ("data " ^ path)
            (Universe.data_value u path) (Universe.data_value u2 path))
        (Universe.data_paths u);
      Alcotest.(check (option string))
        "code" (Universe.code_source u "news.example")
        (Universe.code_source u2 "news.example");
      (* exporting again is byte-stable *)
      Alcotest.(check string) "export fixpoint"
        (Lw_json.Json.to_string (Universe_store.export u))
        (Lw_json.Json.to_string (Universe_store.export u2));
      (* the imported universe's PIR servers serve the imported epoch *)
      let d0, d1 = Universe.data_servers u2 in
      (match
         Zltp_client.connect
           ~rng:(Lw_crypto.Drbg.create ~seed:"store-roundtrip")
           [ Zltp_server.endpoint d0; Zltp_server.endpoint d1 ]
       with
      | Error e -> Alcotest.failf "connect failed: %s" e
      | Ok client ->
          (match Zltp_client.get client "news.example/front.json" with
          | Ok (Some v) ->
              Alcotest.(check (option string))
                "served = stored"
                (Universe.data_value u2 "news.example/front.json")
                (Some v)
          | Ok None -> Alcotest.fail "imported page missing over PIR"
          | Error e -> Alcotest.fail e);
          Zltp_client.close client)

let test_universe_malformed () =
  (* malformed documents are Errors, never exceptions *)
  (match Universe_store.import (Lw_json.Json.String "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "string document imported");
  (match Universe_store.import (Lw_json.Json.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty document imported");
  (match
     Universe_store.import
       (Lw_json.Json.Obj [ ("format", Lw_json.Json.Number 999.) ])
   with
  | Error e ->
      Alcotest.(check bool) "names the version" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "future format imported");
  (* a file that is not JSON at all *)
  let path = Filename.temp_file "lw-store-test" ".json" in
  let oc = open_out path in
  output_string oc "this is { not json";
  close_out oc;
  (match Universe_store.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage file loaded");
  Sys.remove path;
  (* and save/load of a real universe round-trips through disk *)
  let u, _ = make_universe () in
  let path2 = Filename.temp_file "lw-store-test" ".json" in
  (match Universe_store.save u ~path:path2 with
  | Error e -> Alcotest.fail e
  | Ok () -> (
      match Universe_store.load ~path:path2 with
      | Error e -> Alcotest.fail e
      | Ok u2 ->
          Alcotest.(check (list string))
            "disk round-trip" (Universe.data_paths u) (Universe.data_paths u2)));
  Sys.remove path2

(* ---------------- sharded front-end epoch refusal ---------------- *)

let test_frontend_epoch_refusal () =
  let domain_bits = 6 and bucket_size = 32 in
  let st = Store.create ~block_bytes:128 ~domain_bits ~bucket_size () in
  let w = Store.writer st in
  for i = 0 to 63 do
    Writer.set w i (Printf.sprintf "fe0-%d" i)
  done;
  ignore (Writer.seal w);
  let fe = Zltp_frontend.of_store st ~shard_bits:2 in
  Alcotest.(check (option int)) "agreed at epoch 1" (Some 1) (Zltp_frontend.epoch_agreed fe);
  let rng = Lw_crypto.Drbg.create ~seed:"fe-epoch" in
  let k0, k1 = Lw_dpf.Dpf.gen ~domain_bits ~alpha:11 rng in
  let answer_of snap key =
    Lw_pir.Server.answer (Lw_pir.Server.of_snapshot snap) key
  in
  (match Zltp_frontend.answer_result fe k0 with
  | Ok share ->
      Alcotest.(check string) "epoch-1 share" (answer_of (Store.current st) k0) share
  | Error e -> Alcotest.fail e);
  (* publisher seals epoch 2; a partial refresh leaves mixed shards *)
  let w2 = Store.writer st in
  Writer.set w2 11 "fe1-11";
  Writer.set w2 49 "fe1-49";
  ignore (Writer.seal w2);
  let updated = Zltp_frontend.refresh ~abort_after:1 fe in
  Alcotest.(check int) "aborted after one shard" 1 updated;
  Alcotest.(check (option int)) "no agreed epoch" None (Zltp_frontend.epoch_agreed fe);
  (match Zltp_frontend.answer_result fe k0 with
  | Error e ->
      Alcotest.(check bool) ("mentions epochs: " ^ e) true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "mixed-epoch front-end answered");
  (match Zltp_frontend.answer_batch_result fe [| k0; k1 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mixed-epoch front-end answered a batch");
  (* the next refresh catches the stragglers up and answers epoch 2 *)
  let updated2 = Zltp_frontend.refresh fe in
  Alcotest.(check int) "stragglers updated" 3 updated2;
  Alcotest.(check (option int)) "agreed at epoch 2" (Some 2) (Zltp_frontend.epoch_agreed fe);
  match Zltp_frontend.answer_result fe k0 with
  | Ok share ->
      Alcotest.(check string) "epoch-2 share" (answer_of (Store.current st) k0) share
  | Error e -> Alcotest.fail e

(* Each shard pins the epoch it serves. A straggler left behind by an
   aborted refresh keeps its epoch live after the epoch ages out of the
   keep window (the shard still reads its bytes); the next refresh moves
   the shard on, releases the pin, and the epoch retires. *)
let test_frontend_pin_lifetime () =
  let domain_bits = 6 and bucket_size = 32 in
  let st = Store.create ~keep:2 ~block_bytes:128 ~domain_bits ~bucket_size () in
  let seal tag =
    let w = Store.writer st in
    Writer.set w 11 tag;
    Writer.set w 49 tag;
    ignore (Writer.seal w)
  in
  seal "e1";
  let fe = Zltp_frontend.of_store st ~shard_bits:2 in
  seal "e2";
  Alcotest.(check int) "aborted after one shard" 1 (Zltp_frontend.refresh ~abort_after:1 fe);
  seal "e3";
  Alcotest.(check (list int)) "straggler pins epoch 1 past keep" [ 1; 2; 3 ]
    (Store.live_epochs st);
  (* bucket 49 sits in shard 3, still at epoch 1 *)
  Alcotest.(check string) "straggler reads epoch 1" "e1"
    (String.sub (Zltp_frontend.get_bucket fe 49) 0 2);
  Alcotest.(check int) "all shards moved" 4 (Zltp_frontend.refresh fe);
  Alcotest.(check (list int)) "epoch 1 retired" [ 2; 3 ] (Store.live_epochs st);
  Alcotest.(check (option int)) "agreed at epoch 3" (Some 3) (Zltp_frontend.epoch_agreed fe);
  seal "e4";
  seal "e5";
  Alcotest.(check (list int)) "frontend pins epoch 3" [ 3; 4; 5 ] (Store.live_epochs st);
  ignore (Zltp_frontend.refresh fe);
  Alcotest.(check (list int)) "released on refresh" [ 4; 5 ] (Store.live_epochs st)

(* ---------------- client page-visit pinning ---------------- *)

let visit_domain_bits = 6
let visit_bucket_size = 32

let fill_epoch st g =
  let w = Store.writer st in
  for i = 0 to (1 lsl visit_domain_bits) - 1 do
    Writer.set w i (Printf.sprintf "visit-%d-gen-%d" i g)
  done;
  ignore (Writer.seal w)

let visit_expected g i = pad visit_bucket_size (Printf.sprintf "visit-%d-gen-%d" i g)

let connect_versioned st seed =
  (* both logical servers wrap the same engine, like Universe does *)
  let s0 =
    Zltp_server.create ~server_id:"a" ~blob_size:visit_bucket_size
      (Zltp_backend.versioned st)
  in
  let s1 =
    Zltp_server.create ~server_id:"b" ~blob_size:visit_bucket_size
      (Zltp_backend.versioned st)
  in
  Zltp_client.connect
    ~rng:(Lw_crypto.Drbg.create ~seed)
    [ Zltp_server.endpoint s0; Zltp_server.endpoint s1 ]

let test_client_visit_pins_epoch () =
  let st = Store.create ~domain_bits:visit_domain_bits ~bucket_size:visit_bucket_size () in
  fill_epoch st 0;
  match connect_versioned st "visit-pin" with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok client ->
      Zltp_client.begin_visit client;
      (match Zltp_client.get_raw_index client 3 with
      | Ok b -> Alcotest.(check string) "first fetch" (visit_expected 0 3) b
      | Error e -> Alcotest.fail e);
      Alcotest.(check (option int)) "visit pinned epoch 1" (Some 1)
        (Zltp_client.current_epoch client);
      (* the publisher seals epoch 2 mid-visit; the keep window still
         holds epoch 1, so the rest of the visit stays on it *)
      fill_epoch st 1;
      (match Zltp_client.get_raw_index client 9 with
      | Ok b -> Alcotest.(check string) "mid-visit fetch stays gen 0"
                  (visit_expected 0 9) b
      | Error e -> Alcotest.fail e);
      Alcotest.(check (option int)) "still epoch 1" (Some 1)
        (Zltp_client.current_epoch client);
      Alcotest.(check int) "no resyncs" 0 (Zltp_client.epoch_resyncs client);
      Zltp_client.end_visit client;
      Zltp_client.close client

let test_client_resync_after_retirement () =
  (* keep=1: the moment epoch 2 seals, epoch 1 is gone; the next op hits
     err_epoch_retired, re-syncs transparently and answers epoch 2 *)
  let st =
    Store.create ~keep:1 ~domain_bits:visit_domain_bits ~bucket_size:visit_bucket_size ()
  in
  fill_epoch st 0;
  match connect_versioned st "visit-resync" with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok client ->
      (match Zltp_client.get_raw_index client 5 with
      | Ok b -> Alcotest.(check string) "gen 0 before" (visit_expected 0 5) b
      | Error e -> Alcotest.fail e);
      fill_epoch st 1;
      (match Zltp_client.get_raw_index client 5 with
      | Ok b -> Alcotest.(check string) "gen 1 after resync" (visit_expected 1 5) b
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "re-synced" true (Zltp_client.epoch_resyncs client >= 1);
      Zltp_client.close client

let () =
  Alcotest.run "store"
    [
      ( "engine",
        [
          Alcotest.test_case "empty at epoch 0" `Quick test_engine_empty;
          Alcotest.test_case "seal and read" `Quick test_engine_seal_and_read;
          Alcotest.test_case "CoW blocks" `Quick test_engine_cow_blocks;
          Alcotest.test_case "pin and retire" `Quick test_engine_pin_retire;
          Alcotest.test_case "stale writer" `Quick test_engine_stale_writer;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_engine_matches_reference ]);
      ("pir store", [ Alcotest.test_case "pending batches" `Quick test_pir_store_pending ]);
      ( "universe",
        [
          Alcotest.test_case "push seals epochs" `Quick test_publish_epochs;
          Alcotest.test_case "export/import round-trip" `Quick test_universe_roundtrip;
          Alcotest.test_case "malformed documents" `Quick test_universe_malformed;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "epoch-mismatch refusal" `Quick test_frontend_epoch_refusal;
          Alcotest.test_case "shard pin lifetime" `Quick test_frontend_pin_lifetime;
        ] );
      ( "client",
        [
          Alcotest.test_case "visit pins an epoch" `Quick test_client_visit_pins_epoch;
          Alcotest.test_case "resync after retirement" `Quick
            test_client_resync_after_retirement;
        ] );
    ]

(* The repository benchmark: three closed-loop workloads (one client
   thread) driving the real stack over TCP loopback, with the Pir2
   servers hosted in this process.

     lwbench --workload page-view|bulk-get|search-churn --seed N
             --seconds S --trace 0|1 [--smoke]

   A run does a fixed number of ops (S times the workload's nominal rate,
   never a timer), checks every op's output against the publisher's
   values, and prints one JSON line last: end-to-end metrics untraced
   (--trace 0), per-layer metrics from a traced run (--trace 1). *)

module U = Lightweb.Universe
module C = Lightweb.Zltp_client
module S = Lightweb.Zltp_server
module Json = Lw_json.Json
open World

type scale = { smoke : bool }

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("lwbench: " ^ s); exit 2) fmt

(* ---- hosted deployment: servers on loopback, counted client links ---- *)

type deployment = {
  servers : S.t list;
  tcps : Lw_net.Tcp.server list;
  links : Meter.link list;
  clients : C.t list;
}

let deploy pairs =
  let servers = List.concat_map (fun (a, b) -> [ a; b ]) pairs in
  let tcps = List.map Meter.serve_tcp servers in
  { servers; tcps; links = []; clients = [] }

(* A Pir2 client over the [i]-th server pair, every byte counted. *)
let connect d ~i ~rng =
  let ep0, link0 = Meter.dial (List.nth d.tcps (2 * i))
  and ep1, link1 = Meter.dial (List.nth d.tcps ((2 * i) + 1)) in
  let c = ok_or_die "connect" (C.connect ~rng [ ep0; ep1 ]) in
  ({ d with links = link0 :: link1 :: d.links; clients = c :: d.clients }, c)

let teardown d =
  List.iter C.close d.clients;
  List.iter Lw_net.Tcp.shutdown d.tcps

let drbg seed label = Lw_crypto.Drbg.create ~seed:(Printf.sprintf "lwbench/%d/%s" seed label)

(* ---- workload instances ---- *)

(* search-churn's publisher: before op i, when i > 0 and i mod [every] = 0,
   it applies the next drawn batch and seals *)
type publisher = { every : int; churn : churn; draw : unit -> batch }

type instance = {
  dep : deployment;
  op : int -> bool; (* one op; true iff its output checked correct *)
  publisher : publisher option;
  browser : Lightweb.Browser.t option;
  kw : Lw_pir.Kw_store.t; (* its live snapshot has the data store's geometry *)
  domain_bits : int;
}

let smoke_geometry =
  {
    U.code_blob_size = 2048;
    data_blob_size = 512;
    fetches_per_page = 5;
    code_domain_bits = 6;
    data_domain_bits = 8;
  }

let page_view sc ~seed =
  let geometry = if sc.smoke then smoke_geometry else U.default_geometry in
  let domains, pages, text = if sc.smoke then (4, 12, (40, 120)) else (16, 110, (200, 400)) in
  let w = build_pageview ~geometry ~domains ~pages ~text ~seed in
  let d = deploy [ U.code_servers w.pv_u; U.data_servers w.pv_u ] in
  let d, code = connect d ~i:0 ~rng:(drbg seed "code") in
  let d, data = connect d ~i:1 ~rng:(drbg seed "data") in
  let b =
    Lightweb.Browser.create ~fetches_per_page:geometry.U.fetches_per_page ~rng:(drbg seed "browser")
      ~code ~data ()
  in
  let rng = Lw_util.Det_rng.of_string_seed (Printf.sprintf "lwbench/%d/pages" seed) in
  let pick_domain = Lw_sim.Zipf.create ~exponent:1.0 ~n:domains ()
  and pick_page = Lw_sim.Zipf.create ~exponent:0.8 ~n:pages () in
  let view (path, expected) =
    match Lightweb.Browser.browse b path with
    | Ok p -> String.equal p.Lightweb.Browser.text expected
    | Error _ -> false
  in
  (* warm the code cache: one view per domain *)
  Array.iter (fun site -> if not (view site.(0)) then failwith "page-view warm-up") w.sites;
  {
    dep = d;
    op =
      (fun _ ->
        let site = w.sites.(Lw_sim.Zipf.sample pick_domain rng) in
        view site.(Lw_sim.Zipf.sample pick_page rng mod Array.length site));
    publisher = None;
    browser = Some b;
    kw = U.keyword_store w.pv_u;
    domain_bits = geometry.U.data_domain_bits;
  }

let bulk_get sc ~seed =
  let geometry =
    if sc.smoke then
      { smoke_geometry with U.data_blob_size = 2048; data_domain_bits = 6; code_domain_bits = 4 }
    else
      {
        U.code_blob_size = 1024;
        data_blob_size = 16 * 1024;
        fetches_per_page = 1;
        code_domain_bits = 4;
        data_domain_bits = 10;
      }
  in
  let w = build_bulk ~geometry ~blobs:(if sc.smoke then 16 else 300) ~seed in
  let d = deploy [ U.sharded_data_servers w.bk_u ~shard_bits:2 ] in
  let d, c = connect d ~i:0 ~rng:(drbg seed "bulk") in
  let rs = Random.State.make [| seed; 23 |] in
  {
    dep = d;
    op =
      (fun _ ->
        let path, expected = w.blobs.(Random.State.int rs (Array.length w.blobs)) in
        match C.get c path with
        | Ok (Some v) -> String.equal v expected
        | Ok None | Error _ -> false);
    publisher = None;
    browser = None;
    kw = U.keyword_store w.bk_u;
    domain_bits = geometry.U.data_domain_bits;
  }

let result_paths text =
  match Json.of_string_opt text with
  | Some (Json.Obj [ ("r", Json.List l) ]) ->
      Some (List.filter_map (function Json.String s -> Some s | _ -> None) l)
  | _ -> None

let search_churn sc ~seed =
  let geometry = if sc.smoke then smoke_geometry else U.default_geometry in
  let results, queries, text = if sc.smoke then (48, 8, (40, 120)) else (1024, 64, (200, 400)) in
  let w = build_search ~geometry ~results ~queries ~text ~k:(if sc.smoke then 2 else 4) ~seed in
  let kw0, kw1 = U.keyword_servers w.sc_u and d0, d1 = U.data_servers w.sc_u in
  let d = deploy [ (kw0, kw1); (d0, d1) ] in
  let d, kc = connect d ~i:0 ~rng:(drbg seed "keyword") in
  let d, dc = connect d ~i:1 ~rng:(drbg seed "data") in
  let rng = Lw_util.Det_rng.of_string_seed (Printf.sprintf "lwbench/%d/queries" seed) in
  let pick_query = Lw_sim.Zipf.create ~exponent:0.8 ~n:queries () in
  let o = w.sc_churn.oracle in
  let op _ =
    let q = w.queries.(Lw_sim.Zipf.sample pick_query rng) in
    match C.keyword_get kc q with
    | Ok (Some text)
      when holds_at_live_epoch o.kw_epochs kw0 (fun m -> SMap.find_opt q m = Some text) -> (
        match result_paths text with
        | None -> false
        | Some paths -> (
            C.begin_visit dc;
            let got = C.get_batch dc paths in
            C.end_visit dc;
            match got with
            | Ok vals ->
                (* the whole pinned batch must come from ONE sealed epoch *)
                holds_at_live_epoch o.data_epochs d0 (fun m ->
                    List.for_all2 (fun p v -> SMap.find_opt p m = v) paths vals)
            | Error _ -> false))
    | Ok _ | Error _ -> false
  in
  {
    dep = d;
    op;
    publisher = Some { every = (if sc.smoke then 4 else 10); churn = w.sc_churn; draw = (fun () -> search_batch w) };
    browser = None;
    kw = U.keyword_store w.sc_u;
    domain_bits = geometry.U.data_domain_bits;
  }

(* Nominal rates are the ops per second one client reached on a 2-core
   x86 VM, so a run's op loop lasts about --seconds there. *)
let workloads = [ ("page-view", (page_view, 22.)); ("bulk-get", (bulk_get, 90.)); ("search-churn", (search_churn, 15.)) ]

(* Set-up as a user pays it: universe build and publish, servers up,
   clients connected, then warm-up ops (checked like any other). *)
let setup sc make ~seed =
  let t0 = Meter.now () in
  let inst = make sc ~seed in
  for i = 1 to if sc.smoke then 2 else 16 do
    if not (inst.op (-i)) then failwith "warm-up op failed"
  done;
  (inst, Meter.now () -. t0)

(* ---- counters (exact by construction: single client thread, op-count
   publish schedule, seeded DRBGs) ---- *)

type counts = {
  up : int;
  down : int;
  msgs : int;
  answers : int;
  scan_bytes : int;
  retries : int;
  resyncs : int;
  data_fetches : int;
  code_fetches : int;
}

let m_scan_bytes = Lw_obs.Metrics.counter "pir.server.scan_bytes"
let m_cow_bytes = Lw_obs.Metrics.counter "store.cow_bytes"

let counts inst =
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let ev e =
    match inst.browser with
    | None -> 0
    | Some b -> List.length (List.filter (( = ) e) (Lightweb.Browser.events b))
  in
  let d = inst.dep in
  {
    up = sum (fun l -> l.Meter.count.sent_bytes) d.links;
    down = sum (fun l -> l.Meter.count.recv_bytes) d.links;
    msgs = sum (fun l -> l.Meter.count.messages) d.links;
    answers = sum S.queries_served d.servers;
    scan_bytes = Lw_obs.Metrics.counter_value m_scan_bytes;
    retries = sum C.retries d.clients;
    resyncs = sum C.epoch_resyncs d.clients;
    data_fetches = ev Lightweb.Browser.Data_fetch;
    code_fetches = ev Lightweb.Browser.Code_fetch;
  }

let per_op ops a b = float_of_int (b - a) /. float_of_int ops

(* ---- the op loop ---- *)

type loop_result = {
  ops : int;
  failed : int;
  lat_ms : float array;
  publish_ms : float array;
  cow_bytes : int; (* store.cow_bytes added by the publishes *)
  c0 : counts;
  c1 : counts;
  cpu_s : float;
}

(* Only applying the batch (push, remove, seal) is the publisher's work
   and timed; drawing it is the benchmark's. *)
let timed_publish p pubs cow =
  let b = p.draw () in
  let cow0 = Lw_obs.Metrics.counter_value m_cow_bytes in
  let t0 = Meter.now () in
  let epochs = apply_batch p.churn b in
  pubs := ((Meter.now () -. t0) *. 1000.) :: !pubs;
  cow := !cow + (Lw_obs.Metrics.counter_value m_cow_bytes - cow0);
  commit_batch p.churn b epochs

(* [each i f] runs op [i] through [f] (which times it); publishes follow
   the op count. *)
let run_loop inst ~ops ~each =
  let pubs = ref [] and cow = ref 0 and failed = ref 0 in
  let lat = Array.make ops 0. in
  let c0 = counts inst and cpu0 = Meter.cpu_s () in
  for i = 0 to ops - 1 do
    (match inst.publisher with
    | Some p when i > 0 && i mod p.every = 0 -> timed_publish p pubs cow
    | _ -> ());
    let ok, ms = each i (fun () -> inst.op i) in
    lat.(i) <- ms;
    if not ok then incr failed
  done;
  let cpu_s = Meter.cpu_s () -. cpu0 and c1 = counts inst in
  {
    ops;
    failed = !failed;
    lat_ms = lat;
    publish_ms = Array.of_list (List.rev !pubs);
    cow_bytes = !cow;
    c0;
    c1;
    cpu_s;
  }

let plain _ f =
  let t0 = Meter.now () in
  let ok = f () in
  (ok, (Meter.now () -. t0) *. 1000.)

(* ---- replays of single layers (traced run only) ----

   One round times each kernel once. Rounds are spread through the op
   loop, so every replay median samples the same stretch of host time as
   the ops beside it, not one moment after them. *)

type replays = {
  lightscript : float;
  crc : float;
  dpf_eval : float;
  dpf_gen : float;
  answer : float;
  answer_pair : float;
  answer_batch8 : float;
}

let replayer inst ~seed =
  let rng = drbg seed "replay" in
  let db = inst.domain_bits in
  let key () = fst (Lw_dpf.Dpf.gen ~domain_bits:db ~alpha:(Lw_crypto.Drbg.uniform_int rng (1 lsl db)) rng) in
  let k = key () and k2 = key () and keys8 = Array.init 8 (fun _ -> key ()) in
  let program =
    match Lightweb.Lightscript.parse (page_code ~domain:"d00.example" ~nav:"d00.example/nav0.json" ~foot:"d00.example/foot0.json") with
    | Ok p -> p
    | Error _ -> failwith "replay program does not parse"
  in
  let page t = Json.Obj [ ("t", Json.String (String.make 300 t)) ] in
  let data = Json.List [ page 'a'; page 'b'; page 'c' ] and state = Json.Obj [] in
  let mib =
    let rs = Random.State.make [| 7 |] in
    String.init (1 lsl 20) (fun _ -> Char.chr (Random.State.int rs 256))
  in
  let engine = Lw_pir.Kw_store.engine inst.kw in
  let samples = Array.make 7 [] in
  let time ?(per_call = 1) j f =
    let t0 = Meter.now () in
    for _ = 1 to per_call do
      f ()
    done;
    samples.(j) <- ((Meter.now () -. t0) *. 1000. /. float_of_int per_call) :: samples.(j)
  in
  let scanned = ref 0 in
  let round () =
    let scan0 = Lw_obs.Metrics.counter_value m_scan_bytes in
    time ~per_call:20 0 (fun () ->
        ignore (Lightweb.Lightscript.run program ~fn:"plan" ~args:[ Json.String "/p/17"; state ]);
        ignore (Lightweb.Lightscript.run program ~fn:"render" ~args:[ Json.String "/p/17"; state; data ]));
    time 1 (fun () -> ignore (Lw_util.Crc32.digest mib));
    time 2 (fun () -> Lw_dpf.Dpf.eval_bits_blocked k ~block_bits:(min db 10) (fun _ _ _ -> ()));
    time ~per_call:20 3 (fun () -> ignore (key ()));
    (* the live snapshot: whatever epoch is current at this round *)
    let snap = Lw_store.pin_latest engine in
    Fun.protect
      ~finally:(fun () -> Lw_store.unpin engine snap)
      (fun () ->
        let srv = Lw_pir.Server.of_snapshot snap in
        time 4 (fun () -> ignore (Lw_pir.Server.answer srv k));
        time 5 (fun () -> ignore (Lw_pir.Server.answer_pair srv k k2));
        time 6 (fun () -> ignore (Lw_pir.Server.answer_batch srv keys8)));
    (* replay scans are not the ops' work *)
    scanned := !scanned + (Lw_obs.Metrics.counter_value m_scan_bytes - scan0)
  in
  let result () =
    let m j = Meter.median (Array.of_list samples.(j)) in
    {
      lightscript = m 0;
      crc = m 1;
      dpf_eval = m 2;
      dpf_gen = m 3;
      answer = m 4;
      answer_pair = m 5;
      answer_batch8 = m 6;
    }
  in
  (round, result, fun () -> !scanned)

(* ---- output ---- *)

let metric buf (name, value, unit) =
  if not (Float.is_finite value) then failwith (Printf.sprintf "metric %s is not finite" name);
  if Buffer.length buf > 0 then Buffer.add_string buf ", ";
  Buffer.add_string buf (Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)

let report ~attempted ~failed ~correct metrics =
  let buf = Buffer.create 1024 in
  List.iter (metric buf) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (Buffer.contents buf)

let heap_peak_mib () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.

(* Block medians of a per-op series, for the stderr diagnostic. *)
let block_medians ?(blocks = 10) a =
  let n = Array.length a in
  let b = max 1 (n / blocks) in
  List.init (n / b) (fun k -> Meter.median (Array.sub a (k * b) b))
  |> List.map (Printf.sprintf "%.2f")
  |> String.concat " "

(* The traffic shape a workload promises, checked on every run: it must
   not depend on the page chosen. *)
let shape_ok name r =
  let po f = per_op r.ops (f r.c0) (f r.c1) in
  match name with
  | "page-view" -> po (fun c -> c.data_fetches) = 5. && po (fun c -> c.code_fetches) = 0.
  | _ -> true

(* ---- end-to-end run (untraced) ---- *)

let e2e sc name make ~seed ~ops =
  (* the measured instance is the process's first universe, so the heap
     peak covers one set-up plus the run; the further set-ups that
     [setup_s] takes its median over come after it *)
  let inst, first_setup = setup sc make ~seed in
  let calib0 = Meter.calib_ms () in
  let r = run_loop inst ~ops ~each:plain in
  let calib1 = Meter.calib_ms () in
  let heap_mib = heap_peak_mib () in
  teardown inst.dep;
  let more =
    List.init (if sc.smoke then 0 else 6) (fun _ ->
        (* each further set-up starts, like the first, from a compacted heap *)
        Gc.compact ();
        let i, t = setup sc make ~seed in
        teardown i.dep;
        t)
  in
  let setups = Array.of_list (first_setup :: more) in
  Printf.printf "host.calib_ms start=%.4f end=%.4f\n" calib0 calib1;
  (* host drift within the run, for the reader of a noisy result *)
  Printf.eprintf "op_ms block p50s: %s\n" (block_medians r.lat_ms);
  let po f = per_op r.ops (f r.c0) (f r.c1) in
  report ~attempted:r.ops ~failed:r.failed
    ~correct:(r.failed = 0 && shape_ok name r)
    [
      ("setup_s", Meter.median setups, "s");
      ("op_p50_ms", Meter.quantile r.lat_ms 0.5, "ms");
      ("cpu_ms_per_op", r.cpu_s *. 1000. /. float_of_int r.ops, "ms");
      ("up_bytes_per_op", po (fun c -> c.up), "B");
      ("down_bytes_per_op", po (fun c -> c.down), "B");
      ("heap_peak_mib", heap_mib, "MiB");
    ]

(* ---- per-layer run (traced) ---- *)

(* One traced op, in ms: its span; the client's send and recv time net of
   the server work that ran inside them; the servers' decode, handle and
   encode spans; and the DPF key pairs the servers decoded. *)
type sample = {
  span : float;
  send : float;
  wait : float;
  dec : float;
  hdl : float;
  enc : float;
  key_pairs : float;
}

(* Ops alternate in blocks of eight between untraced and traced, so the
   tracing overhead is a same-process, same-moment ratio. Layer times
   come from traced ops only; counts from every op. *)

let traced sc name make ~seed ~ops =
  let inst, _ = setup sc make ~seed in
  let calib0 = Meter.calib_ms () in
  let block = 8 in
  let tr = ref [] in
  let plain_lat = ref [] in
  let link_s () =
    List.fold_left (fun (s, r) l -> (s +. l.Meter.send_s, r +. l.Meter.recv_s)) (0., 0.) inst.dep.links
  in
  let replay_round, replays, replay_scanned = replayer inst ~seed in
  let replay_every = max 1 (ops / 40) in
  let each i f =
    if i mod replay_every = 0 then replay_round ();
    if i / block mod 2 = 0 then begin
      let ((_, ms) as res) = plain i f in
      plain_lat := ms :: !plain_lat;
      res
    end
    else begin
      Meter.tracing := true;
      let s0, r0 = link_s () and v0 = Meter.read_spans () in
      let t0 = Meter.now () in
      let ok = f () in
      let op = Meter.now () -. t0 in
      Meter.tracing := false;
      let s1, r1 = link_s () and v1 = Meter.read_spans () in
      let ms x = x *. 1000. in
      tr :=
        {
          span = ms op;
          send = ms (s1 -. s0);
          wait = ms (r1 -. r0);
          dec = ms (v1.decode_s -. v0.decode_s);
          hdl = ms (v1.handle_s -. v0.handle_s);
          enc = ms (v1.encode_s -. v0.encode_s);
          key_pairs = float_of_int (v1.keys - v0.keys) /. 2.;
        }
        :: !tr;
      (ok, ms op)
    end
  in
  let r = run_loop inst ~ops ~each in
  let rp = replays () in
  let calib1 = Meter.calib_ms () in
  teardown inst.dep;
  Printf.printf "host.calib_ms start=%.4f end=%.4f\n" calib0 calib1;
  let tr = Array.of_list !tr in
  let col f = Meter.median (Array.map f tr) in
  (* client self: the op span less its transport calls and the server
     work that ran inside them *)
  let self a = Float.max 0. (a.span -. a.send -. a.wait -. a.dec -. a.hdl -. a.enc) in
  (* Closure: measured spans plus the client's replayed kernels (one DPF
     keygen per key pair the servers decoded; a Lightscript plan + render
     per page view) over the op span. Below 1 is op time that no layer
     accounts for (client bookkeeping, combine, parse, scheduling); above
     1 is server work that overlapped client work. *)
  let renders = if name = "page-view" then 1. else 0. in
  let closure a =
    (a.send +. a.wait +. a.dec +. a.hdl +. a.enc +. (a.key_pairs *. rp.dpf_gen) +. (renders *. rp.lightscript))
    /. a.span
  in
  let op_ms = col (fun a -> a.span) and send = col (fun a -> a.send) and wait = col (fun a -> a.wait) in
  let dec = col (fun a -> a.dec) and hdl = col (fun a -> a.hdl) and enc = col (fun a -> a.enc) in
  let po f = per_op r.ops (f r.c0) (f r.c1) in
  let answers = po (fun c -> c.answers) in
  (* what the replayed kernels predict the servers spent per op *)
  let replay_handle =
    match name with
    | "search-churn" -> 2. *. (rp.answer_pair +. rp.answer_batch8)
    | _ -> answers *. rp.answer
  in
  let kw = inst.kw in
  let publishes = Array.length r.publish_ms in
  report ~attempted:r.ops ~failed:r.failed
    ~correct:(r.failed = 0 && shape_ok name r)
    [
      ("op_p90_ms", Meter.quantile (Array.of_list !plain_lat) 0.9, "ms");
      ("client.self_ms_per_op", col self, "ms");
      ("lightscript.run_ms", rp.lightscript, "ms");
      ("browser.data_fetches_per_op", po (fun c -> c.data_fetches), "count");
      ("browser.code_fetches_per_op", po (fun c -> c.code_fetches), "count");
      ("tcp.msgs_per_op", po (fun c -> c.msgs), "count");
      ("tcp.send_ms_per_op", send, "ms");
      ("tcp.wait_ms_per_op", wait, "ms");
      ("wire.decode_ms_per_op", dec, "ms");
      ("wire.encode_ms_per_op", enc, "ms");
      ("crc.ms_per_mib", rp.crc, "ms");
      ("server.handle_ms_per_op", hdl, "ms");
      ("server.answers_per_op", answers, "count");
      ("pir.scan_bytes_per_op", per_op r.ops r.c0.scan_bytes (r.c1.scan_bytes - replay_scanned ()), "B");
      ("dpf.eval_ms", rp.dpf_eval, "ms");
      ("dpf.gen_ms", rp.dpf_gen, "ms");
      ("pir.answer_ms", rp.answer, "ms");
      ("pir.answer_pair_ms", rp.answer_pair, "ms");
      ("pir.answer_batch8_ms", rp.answer_batch8, "ms");
      ("client.retries_per_op", po (fun c -> c.retries), "count");
      ("client.resyncs_per_op", po (fun c -> c.resyncs), "count");
      (* no publishes (page-view, bulk-get): 0 *)
      ("publish_p50_ms", (if publishes = 0 then 0. else Meter.median r.publish_ms), "ms");
      ("store.cow_bytes_per_publish", float_of_int r.cow_bytes /. float_of_int (max 1 publishes), "B");
      ("kw.load_factor", Lw_pir.Kw_store.load_factor kw, "ratio");
      ("kw.stash_size", float_of_int (Lw_pir.Kw_store.stash_size kw), "count");
      ("trace.overhead_ratio", op_ms /. Meter.median (Array.of_list !plain_lat), "ratio");
      ("trace.closure_ratio", col closure, "ratio");
      ("trace.answer_closure_ratio", replay_handle /. hdl, "ratio");
      ("host.calib_ms", Meter.median [| calib0; calib1 |], "ms");
    ]

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " page-view | bulk-get | search-churn");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " run length at the workload's nominal rate");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--smoke", Arg.Set smoke, " tiny geometry and op count (self-test)");
    ]
    (fun a -> die "unexpected argument %s" a)
    "lwbench --workload W --seed N --seconds S --trace 0|1 [--smoke]";
  let make, rate =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !seconds < 1 then die "--seconds must be >= 1";
  let sc = { smoke = !smoke } in
  (* the collector's settings are part of the workload: pin them (OCaml's
     defaults) so an OCAMLRUNPARAM in the environment cannot change them *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  let ops = if sc.smoke then 24 else int_of_float (rate *. float_of_int !seconds) in
  match !trace with
  | 0 -> e2e sc !workload make ~seed:!seed ~ops
  | 1 -> traced sc !workload make ~seed:!seed ~ops
  | _ -> die "--trace must be 0 or 1"

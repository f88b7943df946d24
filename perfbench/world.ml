(* The benchmark is the publisher: it builds each workload's universe from
   the seed, remembers every value it published per sealed epoch, and is
   therefore the oracle every op's output is checked against. *)

module Json = Lw_json.Json
module U = Lightweb.Universe
module SMap = Map.Make (String)

let publisher = "lwbench"

let ok_or_die what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let hex rs n = String.init n (fun _ -> "0123456789abcdef".[Random.State.int rs 16])

(* ---- per-epoch oracle ---- *)

type oracle = {
  mutable values : string SMap.t; (* path -> published text; absent = removed *)
  data_epochs : (int, string SMap.t) Hashtbl.t;
  kw_epochs : (int, string SMap.t) Hashtbl.t; (* the keyword index's own epochs *)
}

let new_oracle () = { values = SMap.empty; data_epochs = Hashtbl.create 8; kw_epochs = Hashtbl.create 8 }

let record table epoch values =
  Hashtbl.replace table epoch values;
  Hashtbl.filter_map_inplace (fun e m -> if e < epoch - 8 then None else Some m) table

(* Some epoch the publisher sealed in [table], still live on [server],
   under which [check] holds. Epochs the benchmark never sealed (the
   empty epoch 0) never count: a client must not be answered from them. *)
let holds_at_live_epoch table server check =
  let lo = Lightweb.Zltp_server.oldest_epoch server
  and hi = Lightweb.Zltp_server.current_epoch server in
  let rec go e =
    e <= hi
    && ((match Hashtbl.find_opt table e with Some m -> check m | None -> false) || go (e + 1))
  in
  go lo

(* ---- churn: the publisher's update batch (search-churn) ----

   One batch re-adds the pages the previous batch removed, rewrites [k]
   present pages and removes [k] others, then seals. Everything is drawn
   from the churn's own seeded stream, so the batch sequence depends only
   on the seed and on how many batches came before. Drawing a batch
   (choosing pages, generating values) is the benchmark's work; applying
   it (push, remove, seal) is the publisher's, and only that is timed. *)

type churn = {
  u : U.t;
  paths : string array;
  present : bool array;
  mutable removed : int list;
  rs : Random.State.t;
  fresh : Random.State.t -> Json.t;
  k : int;
  oracle : oracle;
}

(* new values as (path, value, its JSON text), then paths to remove *)
type batch = { pushes : (string * Json.t * string) list; removes : string list }

let rec pick_present c taken =
  let i = Random.State.int c.rs (Array.length c.paths) in
  if c.present.(i) && not (List.mem i taken) then i else pick_present c taken

let rec pick c n taken =
  if n = 0 then []
  else
    let i = pick_present c taken in
    i :: pick c (n - 1) (i :: taken)

let valued path v = (path, v, Json.to_string v)

let draw_batch ?(extra = []) c =
  let readded = c.removed in
  let updated = pick c c.k readded in
  let removed = pick c c.k (readded @ updated) in
  List.iter (fun i -> c.present.(i) <- true) readded;
  List.iter (fun i -> c.present.(i) <- false) removed;
  c.removed <- removed;
  {
    pushes = List.map (fun i -> valued c.paths.(i) (c.fresh c.rs)) (readded @ updated) @ extra;
    removes = List.map (fun i -> c.paths.(i)) removed;
  }

(* Seal pending mutations; the now-current (data, keyword) epochs. *)
let seal_epochs c =
  let _, data_epoch = U.publish_updates c.u in
  (data_epoch, U.keyword_epoch c.u)

let apply_batch c b =
  List.iter (fun (path, value, _) -> ok_or_die "push" (U.push_data c.u ~publisher ~path ~value)) b.pushes;
  List.iter (fun path -> ignore (ok_or_die "remove" (U.remove_data c.u ~publisher ~path))) b.removes;
  seal_epochs c

(* Remember what the sealed epochs hold. *)
let commit c (data_epoch, kw_epoch) =
  record c.oracle.data_epochs data_epoch c.oracle.values;
  record c.oracle.kw_epochs kw_epoch c.oracle.values

let commit_batch c b epochs =
  List.iter (fun (p, _, text) -> c.oracle.values <- SMap.add p text c.oracle.values) b.pushes;
  List.iter (fun p -> c.oracle.values <- SMap.remove p c.oracle.values) b.removes;
  commit c epochs

let seal c = commit c (seal_epochs c)

(* Push a page under the first free name [name 0], [name 1], ... (a name
   that hash-collides with an earlier page is skipped, as a publisher
   renames). *)
let push_fresh u name value =
  let rec go i =
    if i > 64 then failwith "push_fresh: no free slot"
    else
      match U.push_data u ~publisher ~path:(name i) ~value with
      | Ok () -> name i
      | Error _ -> go (i + 1)
  in
  go 0

let text_value rs ~lo ~span = Json.Obj [ ("t", Json.String (hex rs (lo + Random.State.int rs span))) ]

let make_churn u ~rs ~k ~fresh oracle paths =
  {
    u;
    paths;
    present = Array.make (Array.length paths) true;
    removed = [];
    rs;
    fresh;
    k;
    oracle;
  }

(* ---- page-view: domains with Lightscript plans of three real fetches ---- *)

let page_code ~domain ~nav ~foot =
  Printf.sprintf
    {|fn plan(path, state) {
  return ["%s" + path + ".json", "%s", "%s"];
}
fn render(path, state, data) {
  return get(data[0], "t", "?") + "|" + get(data[1], "t", "?") + "|" + get(data[2], "t", "?");
}
|}
    domain nav foot

type pageview = {
  pv_u : U.t;
  sites : (string * string) array array; (* per domain: (browse path, expected text) *)
}

let t_of text =
  match Json.of_string_opt text with
  | Some (Json.Obj [ ("t", Json.String s) ]) -> s
  | _ -> failwith "t_of: not a page value"

let build_pageview ~geometry ~domains ~pages ~text ~seed =
  let u = U.create ~seed:(Printf.sprintf "lwbench-%d" seed) ~name:"page-view" geometry in
  let rs = Random.State.make [| seed; 11 |] in
  let lo, span = text in
  let fresh rs = text_value rs ~lo ~span in
  let values = ref SMap.empty in
  let remember path v = values := SMap.add path (Json.to_string v) !values in
  let sites =
    Array.init domains (fun d ->
        (* a domain whose code slot collides takes the next name *)
        let rec claim j =
          let domain = Printf.sprintf "d%02d%s.example" d (if j = 0 then "" else string_of_int j) in
          ok_or_die "claim" (U.claim_domain u ~publisher ~domain);
          match
            U.push_code u ~publisher ~domain ~source:(page_code ~domain ~nav:"" ~foot:"")
          with
          | Ok () -> domain
          | Error _ -> claim (j + 1)
        in
        let domain = claim 0 in
        let shared label =
          let v = fresh rs in
          let path = push_fresh u (fun i -> Printf.sprintf "%s/%s%d.json" domain label i) v in
          remember path v;
          path
        in
        let nav = shared "nav" and foot = shared "foot" in
        ok_or_die "code" (U.push_code u ~publisher ~domain ~source:(page_code ~domain ~nav ~foot));
        let rec add id acc n =
          if n = 0 then Array.of_list (List.rev acc)
          else
            let path = Printf.sprintf "%s/p/%d.json" domain id in
            let v = fresh rs in
            match U.push_data u ~publisher ~path ~value:v with
            | Error _ -> add (id + 1) acc n
            | Ok () ->
                remember path v;
                add (id + 1) ((Printf.sprintf "%s/p/%d" domain id, (path, nav, foot)) :: acc) (n - 1)
        in
        add 0 [] pages)
  in
  let expected (path, nav, foot) =
    String.concat "|"
      (List.map (fun p -> t_of (SMap.find p !values)) [ path; nav; foot ])
  in
  let sites = Array.map (Array.map (fun (b, keys) -> (b, expected keys))) sites in
  ignore (U.publish_updates u);
  { pv_u = u; sites }

(* ---- bulk-get: 16 KiB blobs in a sharded store ---- *)

type bulk = { bk_u : U.t; blobs : (string * string) array (* path, published text *) }

let build_bulk ~geometry ~blobs ~seed =
  let u = U.create ~seed:(Printf.sprintf "lwbench-%d" seed) ~name:"bulk-get" geometry in
  let rs = Random.State.make [| seed; 21 |] in
  let domain = "bulk.example" in
  ok_or_die "claim" (U.claim_domain u ~publisher ~domain);
  (* fill the bucket: record header, key and JSON quotes take the rest *)
  let len = geometry.U.data_blob_size - 48 in
  let blobs =
    Array.init blobs (fun b ->
        let v = Json.String (hex rs len) in
        (push_fresh u (fun i -> Printf.sprintf "%s/b/%d-%d" domain b i) v, Json.to_string v))
  in
  ignore (U.publish_updates u);
  { bk_u = u; blobs }

(* ---- search-churn: query pages listing eight result pages ---- *)

type search = {
  sc_u : U.t;
  queries : string array;
  results : string array;
  sc_churn : churn;
  q_rs : Random.State.t;
}

let results_per_query = 8

let query_value rs results =
  let picks = ref [] in
  while List.length !picks < results_per_query do
    let r = results.(Random.State.int rs (Array.length results)) in
    if not (List.mem r !picks) then picks := r :: !picks
  done;
  Json.Obj [ ("r", Json.List (List.rev_map (fun p -> Json.String p) !picks)) ]

let build_search ~geometry ~results ~queries ~text ~k ~seed =
  let u = U.create ~seed:(Printf.sprintf "lwbench-%d" seed) ~name:"search-churn" geometry in
  let rs = Random.State.make [| seed; 31 |] in
  let domain = "search.example" in
  ok_or_die "claim" (U.claim_domain u ~publisher ~domain);
  let lo, span = text in
  let fresh rs = text_value rs ~lo ~span in
  let oracle = new_oracle () in
  let add path_of v =
    let path = push_fresh u path_of v in
    oracle.values <- SMap.add path (Json.to_string v) oracle.values;
    path
  in
  let result_paths =
    Array.init results (fun r -> add (fun i -> Printf.sprintf "%s/r/%d-%d.json" domain r i) (fresh rs))
  in
  let query_paths =
    Array.init queries (fun q ->
        add (fun i -> Printf.sprintf "%s/q/%d-%d.json" domain q i) (query_value rs result_paths))
  in
  let c = make_churn u ~rs:(Random.State.make [| seed; 32 |]) ~k ~fresh oracle result_paths in
  seal c;
  { sc_u = u; queries = query_paths; results = result_paths; sc_churn = c; q_rs = Random.State.make [| seed; 33 |] }

(* Search churn also re-points one query page per batch, so keyword
   answers change across epochs too. *)
let search_batch s =
  let q = s.queries.(Random.State.int s.q_rs (Array.length s.queries)) in
  draw_batch s.sc_churn ~extra:[ valued q (query_value s.q_rs s.results) ]

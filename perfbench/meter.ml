(* Measurement plumbing: wall/CPU clocks, order statistics, the host
   calibration loop, and the outside-in trace — the library's
   byte/message counters plus send/recv timers wrapped around the
   client's TCP endpoints, and a server loop that times decode / handle /
   encode around the public [Zltp_wire] and [Zltp_server] entry points.
   Nothing here reaches inside the library. *)

let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- order statistics ---- *)

(* [q] in 0..1, interpolated between closest ranks *)
let quantile a q = if Array.length a = 0 then nan else Lw_util.Stats.percentile a (q *. 100.)
let median a = quantile a 0.5

(* ---- host calibration ----

   A fixed loop that calls nothing in the library: integer work on an
   L1-resident array, then a streaming pass over 8 MiB (the PIR scan is
   memory-bound, and noisy neighbours slow memory more than the ALU). If
   it reads slower at the start or end of a run, the host was slower,
   whatever the code under test did. The buffer is a Bigarray, outside
   the OCaml heap, so it is not counted in the program's heap peak. *)
let calib_mem : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout ((8 lsl 20) / 8) in
  Bigarray.Array1.fill b 1;
  b

let calib_once () =
  let a = Array.make 4096 0 in
  let x = ref 12345 in
  let t0 = now () in
  for i = 0 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 4095 in
    a.(j) <- a.(j) + i
  done;
  let acc = ref 0 in
  for _ = 1 to 2 do
    for w = 0 to Bigarray.Array1.dim calib_mem - 1 do
      acc := !acc lxor Bigarray.Array1.unsafe_get calib_mem w
    done
  done;
  ignore (Sys.opaque_identity (a, !acc));
  (now () -. t0) *. 1000.

let calib_ms () = median (Array.init 7 (fun _ -> calib_once ()))

(* ---- trace ---- *)

(* One switch for the whole process: when set, every wrapped client
   endpoint times its send/recv and every benchmark-hosted server times
   decode / handle / encode. Counting is always on — it is exact and
   costs an integer add. *)
let tracing = ref false

(* [count] holds the exact byte and message counts (messages are the
   client's sends); the timers run only while tracing. *)
type link = { count : Lw_net.Endpoint.counters; mutable send_s : float; mutable recv_s : float }

(* Server-side spans, summed over every hosted server, and the DPF keys
   the traced servers decoded (each client keygen yields one key per
   server of a pair). Several handler threads update it, so updates take
   the lock. *)
type server_spans = {
  mutable decode_s : float;
  mutable handle_s : float;
  mutable encode_s : float;
  mutable keys : int;
}

let spans = { decode_s = 0.; handle_s = 0.; encode_s = 0.; keys = 0 }
let spans_lock = Mutex.create ()

let add_spans d h e k =
  Mutex.lock spans_lock;
  spans.decode_s <- spans.decode_s +. d;
  spans.handle_s <- spans.handle_s +. h;
  spans.encode_s <- spans.encode_s +. e;
  spans.keys <- spans.keys + k;
  Mutex.unlock spans_lock

let read_spans () =
  Mutex.lock spans_lock;
  let r = { spans with keys = spans.keys } in
  Mutex.unlock spans_lock;
  r

let server_s () =
  let s = read_spans () in
  s.decode_s +. s.handle_s +. s.encode_s

let dpf_keys = function
  | Lightweb.Zltp_wire.Pir_query _ -> 1
  | Lightweb.Zltp_wire.Pir_batch { dpf_keys; _ } -> List.length dpf_keys
  | Lightweb.Zltp_wire.Keyword_query _ -> 2
  | _ -> 0

(* Time inside a transport call, net of any server work that ran while
   the client sat in it: all threads share one domain, so a blocking
   write can hand the runtime to the server thread, which then handles
   the request before the write returns. *)
let transport_s f =
  let v0 = server_s () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, dt -. (server_s () -. v0))

let counted (ep : Lw_net.Endpoint.t) : Lw_net.Endpoint.t * link =
  let ep, count = Lw_net.Endpoint.with_counters ep in
  let link = { count; send_s = 0.; recv_s = 0. } in
  ( {
      send =
        (fun m ->
          if !tracing then begin
            let (), dt = transport_s (fun () -> ep.send m) in
            link.send_s <- link.send_s +. dt
          end
          else ep.send m);
      recv =
        (fun () ->
          if !tracing then begin
            let m, dt = transport_s ep.recv in
            link.recv_s <- link.recv_s +. dt;
            m
          end
          else ep.recv ());
      close = ep.close;
    },
    link )

let internal_error qid =
  Lightweb.Zltp_wire.encode_server
    (Lightweb.Zltp_wire.Err
       { qid; code = Lightweb.Zltp_wire.err_internal; message = "internal error" })

(* The traced twin of [Zltp_server.handle_frame]: the same three public
   steps, each timed. *)
let traced_step conn frame =
  let t0 = now () in
  let decoded = Lightweb.Zltp_wire.decode_client frame in
  let t1 = now () in
  match decoded with
  | Error _ -> Lightweb.Zltp_server.handle_frame conn frame
  | Ok msg ->
      let qid = Option.value (Lightweb.Zltp_wire.request_qid msg) ~default:0 in
      let reply = try Lightweb.Zltp_server.handle conn msg with _ -> None in
      let t2 = now () in
      let out =
        match reply with
        | Some r -> Some (Lightweb.Zltp_wire.encode_server r)
        | None -> (
            match msg with Lightweb.Zltp_wire.Bye -> None | _ -> Some (internal_error qid))
      in
      add_spans (t1 -. t0) (t2 -. t1) (now () -. t2) (dpf_keys msg);
      out

(* Host one ZLTP server on an ephemeral loopback port. Untraced
   connections run [Zltp_server.handle_frame], the body of
   [Zltp_server.serve]; traced ones run [traced_step]. *)
let serve_tcp server =
  Lw_net.Tcp.serve ~host:"127.0.0.1" ~port:0 (fun ep ->
      let conn = Lightweb.Zltp_server.conn server in
      let rec loop () =
        match ep.Lw_net.Endpoint.recv () with
        | exception (Lw_net.Endpoint.Closed | Lw_net.Endpoint.Timeout) -> ()
        | frame -> (
            let reply =
              if !tracing then traced_step conn frame
              else Lightweb.Zltp_server.handle_frame conn frame
            in
            match reply with
            | None -> ()
            | Some r -> (
                match ep.Lw_net.Endpoint.send r with
                | () -> loop ()
                | exception Lw_net.Endpoint.Closed -> ()))
      in
      loop ())

let dial tcp = counted (Lw_net.Tcp.connect ~host:"127.0.0.1" ~port:(Lw_net.Tcp.port tcp) ())

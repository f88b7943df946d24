(** First-class ZLTP backends.

    A backend is a packed module implementing {!S}: the full verb set of
    the protocol (two-server PIR scan, batch, single-server SPIR
    hint/answer, enclave get) behind one signature, with epoch pinning
    and the control-plane advertised-epoch override as part of the
    contract. {!Zltp_server} drives requests through the signature only —
    it never learns which backend it hosts, so adding a backend means
    adding a constructor here, not another arm in every layer.

    Verbs a backend does not speak (e.g. [answer] on an enclave, or
    [spir_answer] on a two-server scan backend) return the structured
    [Zltp_wire.err_wrong_mode] error — the same shape a mode-mismatched
    session sees — so the server's dispatch stays uniform.

    Errors are [(wire error code, message)] pairs ready to become
    [Zltp_wire.Err] frames. *)

module type S = sig
  type view
  (** A pinned, immutable view of one epoch. The server pins the epoch a
      query names, answers against the view, and unpins on every exit
      path — a concurrent seal can never retire an epoch mid-answer. *)

  val kind : string
  (** Short human label for logs ("versioned", "sharded", "enclave",
      "single"). *)

  val modes : Zltp_mode.t list
  (** The modes this backend can serve — what the server offers during
      [Hello] negotiation. *)

  val domain_bits : int
  (** 0 for backends without an index domain (enclave). *)

  val health : unit -> int * int
  (** [(shards_total, shards_down)]; monolithic backends are one
      always-up shard. *)

  val current_epoch : unit -> int
  (** The epoch announced in [Welcome]/[Health_reply]/[Sync_reply],
      honouring {!set_advertised_epoch}. Unversioned backends are
      forever at epoch 0. *)

  val oldest_epoch : unit -> int

  val set_advertised_epoch : int option -> unit
  (** Control-plane override of the {e announced} epoch only — queries
      still serve whatever live epoch they name, so a rollout driver can
      seal everywhere first and flip announcements second. [None]
      restores the backend's own notion. *)

  val advertised_epoch : unit -> int option

  val set_scan_domains : int -> unit
  (** Workers the scan kernels may use ([Lw_pir.Server.answer_batch
      ~domains]). Backends without a local scan kernel ignore it (the
      sharded front-end carries its own knob). *)

  val pin : epoch:int -> (view, int * string) result
  (** Pin the named epoch. An epoch this replica no longer / does not
      yet hold is the structured [err_epoch_retired] / [err_epoch_ahead]
      the client's re-sync understands; a sharded backend with
      disagreeing shards is [err_degraded]. *)

  val unpin : view -> unit

  val answer : view -> Lw_dpf.Dpf.key -> (string, int * string) result
  (** Two-server PIR: one XOR-share scan for one DPF key. *)

  val answer_batch : view -> Lw_dpf.Dpf.key array -> (string array, int * string) result
  (** Batch entry (also the width-2 keyword probe pair): the bit-packed
      kernel's one-pass-per-8-queries path. *)

  val spir_hint : view -> (string, int * string) result
  (** Single-server PIR: the pinned epoch's serialized public hint. *)

  val spir_answer : view -> string -> (string, int * string) result
  (** Single-server PIR: the constant-trace matrix-vector scan of the
      pinned epoch against a serialized {!Lw_pir.Spir} query. *)

  val enclave_get : string -> (string option, int * string) result
  (** Enclave mode: keyed get inside the (simulated) attested boundary.
      Not epoch-addressed — the enclave hides versioning internally. *)
end

type t = (module S)

(** {2 Constructors} *)

val versioned : Lw_store.t -> t
(** Epoch-versioned engine: each query answered against the epoch it
    names, pinned for the duration of the scan. [Pir2] only. A flat
    table serves as the one-epoch store {!Lw_pir.Bucket_db.to_store}
    seals. *)

val sharded : Zltp_frontend.t -> t
(** Front-end + shards (§5.2); epoch agreement across shards checked per
    pin, shard loss surfaces as [err_degraded]. [Pir2] only. *)

val enclave : Lw_oram.Enclave.t -> t
(** Enclave + ORAM; [Enclave] only. *)

val single : ?cache:Lw_pir.Spir.Hint_cache.t -> Lw_store.t -> t
(** Single-server LWE PIR over the same epoch-versioned engine:
    [spir_hint] serves the per-epoch packed hint (memoized in [cache],
    default a fresh 4-epoch cache — pass the universe's shared cache so
    publishing can warm it), [spir_answer] the constant-trace scan.
    [Single] only. *)

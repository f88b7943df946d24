(** The body of one shard process.

    [main spec] never returns (it ends in [exit]). It:

    - recovers warm-restart state from the {!Manifest} (if any),
      rebuilding its store {e at the manifest's epoch number};
    - serves ZLTP over TCP on an ephemeral port
      ([Zltp_backend.versioned] over its store);
    - dials the supervisor's control port, sends [Register], and then
      executes control commands ([Refresh] / [Activate] / [Status] /
      [Scrape] / [Quit]) until the channel closes or [Quit] arrives.

    Every sealed epoch and every advertisement flip is persisted to the
    manifest before it is acknowledged, so a [kill -9] at any point
    leaves state the next incarnation can rejoin from. The advertised
    epoch is {e always} overridden explicitly
    ([Zltp_server.set_advertised_epoch]): sealing a refreshed epoch
    never announces it — only [Activate] does (rollout phase two). *)

val main : Spec.t -> 'a

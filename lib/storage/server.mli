(** The open-loop transaction server.

    The closed-loop {!Scheduler.Make.run} admits the next script when a
    previous one finishes, so it can never build a queue; this server
    is the open-loop counterpart the paper's throughput discussion
    implies: transactions {e arrive} on a simulated clock
    (microseconds) that does not care how busy the server is, an
    admission front end bounds the multiprogramming level, and all
    commits flow through one shared {!Commit_pipeline}.  Offered load
    beyond capacity shows up as queueing delay and tail latency — the
    regime where group commit pays.

    Decomposition: {!Scheduler.Make.Exec} executes operations under
    strict 2PL (admission-independent core); this module owns the
    clock, the arrival queue and the admission bound; the pipeline owns
    durability.  {!Make.serve} is the only serving loop in the
    repository: {!Make.run} is its lone-server case, and each domain of
    the sharded server ({!Shard}) runs it over its own slice of the
    transactions with a two-phase-commit {!Make.part}.  Costs are
    simulated — [op_cost_us] per executed operation (or rollback, or
    commit append), [sync_cost_us] per log force — so runs are
    deterministic and machine-independent.

    Backpressure never drops work: an arrival that finds [mpl]
    transactions in flight waits in an unbounded FIFO, and a
    transaction is in flight from admission until its durable ack, so
    [completed] always reaches the arrival count.  Per-transaction
    latency is measured arrival → durable ack (admission wait, lock
    waits, restarts, and the group-commit window all included). *)

module type ENGINE = sig
  include Kv.S

  val commit_group : txn -> unit

  val force_commits : t -> unit
end

type result = {
  completed : int;  (** transactions acknowledged (= arrivals) *)
  makespan_us : float;  (** clock instant of the last ack *)
  sustained_tps : float;  (** completed per second of simulated time *)
  restarts : int;  (** deadlock-victim restarts *)
  ro_restarts : int;
      (** restarts suffered by read-only transactions (always 0 on the
          snapshot path — they never touch the lock manager) *)
  forces : int;  (** log forces (eager commits count one each) *)
  max_inflight : int;  (** peak concurrent in-flight transactions *)
  max_queued : int;  (** peak admission-queue depth *)
  lock_acquires : int;  (** lock acquisition attempts issued *)
  latency_us : Dbm_util.Stats.Histogram.t;
      (** arrival-to-ack latency of every transaction, µs (the merge of
          the two class histograms below) *)
  ro_latency_us : Dbm_util.Stats.Histogram.t;
      (** read-only transactions only *)
  rw_latency_us : Dbm_util.Stats.Histogram.t;
      (** read-write transactions only *)
}

val validate :
  who:string ->
  mpl:int ->
  op_cost_us:float ->
  arrivals_us:float array ->
  scripts:Scheduler.script array ->
  unit
(** The argument checks {!Make.run} and {!Shard.Make.run} share: [mpl
    >= 1], [op_cost_us] non-negative and finite, one arrival per script,
    arrival times finite, non-negative and non-decreasing.
    @raise Invalid_argument naming [who] when one fails. *)

module Make (E : ENGINE) : sig
  type part = {
    is_cross : int -> bool;
        (** [is_cross gid]: the transaction spans several servers.  Its
            commit becomes a durable vote, its locks are held past the
            commit, and admission keeps at most one such transaction in
            flight. *)
    prepare : E.txn -> gid:int -> now:float -> unit;
        (** Cast the durable vote of a cross transaction at simulated
            time [now] (its one force already charged). *)
    decision : int -> float;
        (** The decision instant of [gid], [nan] while undecided. *)
    await : int -> unit;
        (** Block until [gid] is decided; called only when nothing else
            can run. *)
  }
  (** The two-phase-commit role a serving loop plays. *)

  val solo : part
  (** The lone server's role: no transaction is cross. *)

  val serve :
    ?snapshot:(unit -> Scheduler.view) ->
    ?read_mode:Lock_mgr.mode ->
    ?read_only:bool array ->
    ?ro_hist:Dbm_util.Stats.Histogram.t ->
    ?rw_hist:Dbm_util.Stats.Histogram.t ->
    mpl:int ->
    op_cost_us:float ->
    sync_cost_us:float ->
    mode:Commit_pipeline.mode ->
    part:part ->
    arrivals_us:float array ->
    ids:int array ->
    scripts:Scheduler.script array ->
    E.t ->
    result
  (** The serving loop, unchecked: serve [scripts.(i)] as global
      transaction [ids.(i)] ([ids] ascending) arriving at
      [arrivals_us.(ids.(i))]; [read_only] is indexed by global id too.
      Arguments are as {!run}'s, which validates them first.  The
      result counts the transactions of [ids] only; [forces] includes
      one per vote. *)

  val run :
    ?mpl:int ->
    ?op_cost_us:float ->
    ?sync_cost_us:float ->
    ?snapshot:(unit -> Scheduler.view) ->
    ?read_mode:Lock_mgr.mode ->
    ?read_only:bool array ->
    ?ro_hist:Dbm_util.Stats.Histogram.t ->
    ?rw_hist:Dbm_util.Stats.Histogram.t ->
    mode:Commit_pipeline.mode ->
    arrivals_us:float array ->
    scripts:Scheduler.script array ->
    E.t ->
    result
  (** Serve [scripts.(i)] arriving at [arrivals_us.(i)] (finite,
      non-negative, non-decreasing) to completion.  Defaults: [mpl] 64,
      [op_cost_us] 1.0, [sync_cost_us] 100.0 — a log force two orders
      of magnitude above an in-memory operation, the ratio that makes
      the force the dominant latency term.  Deterministic in its
      arguments.

      [read_only.(i)] marks script [i] as a read-only transaction (all
      Gets; default none).  With [snapshot] installed (see
      {!Scheduler.Make.Exec.create}) read-only transactions execute
      lock-free over pinned MVCC views, bypass the commit pipeline
      (nothing to make durable — the ack is the final step), and can
      never restart; without it they run the ordinary locked path and
      commit through the pipeline.  [read_mode] sets the lock mode of
      Gets on the locked path ({!Lock_mgr.X} = the exclusive-only
      baseline the snapshot bench compares against).

      [ro_hist]/[rw_hist] supply the per-class latency histograms
      (default: fresh ones) so sweep loops can recycle one pair via
      {!Dbm_util.Stats.Histogram.clear} across points instead of
      allocating the bucket arrays per run.  Supplied histograms must
      be empty; they are the [ro_latency_us]/[rw_latency_us] of the
      result, so extract a point's scalars before clearing.
      @raise Invalid_argument on bad parameters.
      @raise Failure on livelock (no progress for a bounded number of
      scheduler passes). *)
end

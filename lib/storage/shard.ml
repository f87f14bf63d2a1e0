(* Domain-parallel transaction shards with two-phase group commit.
   See shard.mli for the protocol overview and DESIGN.md B.5 for the
   correctness argument. *)

module Histogram = Dbm_util.Stats.Histogram
module Pool = Dbm_util.Pool

module type ENGINE = sig
  include Server.ENGINE

  val prepare : txn -> gid:int -> unit
end

type result = {
  completed : int;
  makespan_us : float;
  sustained_tps : float;
  restarts : int;
  forces : int;
  lock_acquires : int;
  cross_committed : int;
  oversubscribed : bool;
  max_inflight : int;
  max_queued : int;
  latency_us : Histogram.t;
  single_latency_us : Histogram.t;
  cross_latency_us : Histogram.t;
}

(* Shared 2PC state across the shard domains.  Everything mutable in
   here is touched only under [m]; [c] is broadcast on every decision
   (and on failure) so shards blocked waiting for a decision wake. *)
type cross_state = {
  m : Mutex.t;
  c : Condition.t;
  nparts : int array;  (* participant count per gid; 1 for single-shard *)
  prepared : int array;  (* prepares registered so far *)
  prep_time : float array;  (* max participant prepare sim-time *)
  decided : float array;  (* decision sim-time; nan = undecided *)
  mutable failed : bool;  (* a peer shard raised; waiters must bail *)
}

module Make (E : ENGINE) = struct
  module Srv = Server.Make (E)

  (* The participant role every shard's server loop plays: a cross
     slice's commit is a durable [E.prepare], and the last participant
     to vote writes the coordinator's decision. *)
  let coordinated ~coordinator ~sync_cost_us cross =
    (* Read under [m]; raise once unlocked if a peer shard failed. *)
    let unlock_checked d =
      let failed = cross.failed in
      Mutex.unlock cross.m;
      if failed then failwith "Shard.run: a peer shard failed";
      d
    in
    {
      Srv.is_cross = (fun gid -> cross.nparts.(gid) > 1);
      prepare =
        (fun txn ~gid ~now ->
          E.prepare txn ~gid;
          Mutex.lock cross.m;
          cross.prepared.(gid) <- cross.prepared.(gid) + 1;
          if now > cross.prep_time.(gid) then cross.prep_time.(gid) <- now;
          if cross.prepared.(gid) = cross.nparts.(gid) then begin
            (* The decision record is the transaction's commit point,
               forced before anyone learns it.  Decision time: every
               vote durable, plus the coordinator's own force. *)
            Coordinator_log.decide coordinator ~gid ~commit:true;
            cross.decided.(gid) <- cross.prep_time.(gid) +. sync_cost_us;
            Condition.broadcast cross.c
          end;
          Mutex.unlock cross.m);
      decision =
        (fun gid ->
          Mutex.lock cross.m;
          unlock_checked cross.decided.(gid));
      await =
        (fun gid ->
          (* Real blocking, not spinning: on an oversubscribed host the
             OS reschedules a runnable shard. *)
          Mutex.lock cross.m;
          while Float.is_nan cross.decided.(gid) && not cross.failed do
            Condition.wait cross.c cross.m
          done;
          unlock_checked ());
    }

  let run ?(mpl = 64) ?(op_cost_us = 1.0) ?(sync_cost_us = 100.0) ~mode ~arrivals_us ~scripts
      ~coordinator (engines : E.t array) =
    let shards = Array.length engines in
    if shards < 1 then invalid_arg "Shard.run: need at least one shard engine";
    Server.validate ~who:"Shard.run" ~mpl ~op_cost_us ~arrivals_us ~scripts;
    let n = Array.length scripts in
    let keys_per_page = E.keys_per_page engines.(0) in
    (* Route every transaction into per-shard slices, gids ascending
       (= arrival order, the FIFO each shard admits in).  An empty
       script has no keys to route; it runs (and commits empty) on
       shard 0. *)
    let work = Array.make shards [] in
    let nparts = Array.make n 0 in
    for gid = n - 1 downto 0 do
      let slices =
        match Shard_router.split ~shards ~keys_per_page scripts.(gid) with
        | [] -> [ (0, []) ]
        | sl -> sl
      in
      nparts.(gid) <- List.length slices;
      List.iter (fun (s, slice) -> work.(s) <- (gid, slice) :: work.(s)) slices
    done;
    let cross =
      {
        m = Mutex.create ();
        c = Condition.create ();
        nparts;
        prepared = Array.make n 0;
        prep_time = Array.make n neg_infinity;
        decided = Array.make n Float.nan;
        failed = false;
      }
    in
    let part = coordinated ~coordinator ~sync_cost_us cross in
    let oversubscribed = shards > Pool.default_jobs () in
    (* One domain per shard: weighted map hands items out one at a
       time, so each shard loop owns a worker for its whole run —
       chunking could strand two blocking loops on one domain.
       [allow_oversubscribe] keeps that guarantee on small hosts; the
       clock is simulated, so oversubscription costs wall time, not
       measured time. *)
    let results =
      Pool.with_pool ~jobs:shards ~allow_oversubscribe:true (fun pool ->
          Pool.map_ordered_weighted pool
            (List.init shards Fun.id)
            ~weight:(fun s -> float_of_int (List.length work.(s)))
            ~f:(fun s ->
              try
                Srv.serve ~mpl ~op_cost_us ~sync_cost_us ~mode ~part ~arrivals_us
                  ~ids:(Array.of_list (List.map fst work.(s)))
                  ~scripts:(Array.of_list (List.map snd work.(s)))
                  engines.(s)
              with e ->
                Mutex.lock cross.m;
                cross.failed <- true;
                Condition.broadcast cross.c;
                Mutex.unlock cross.m;
                raise e))
    in
    let cross_hist = Histogram.create () in
    let cross_committed = ref 0 in
    let max_decided = ref 0.0 in
    for gid = 0 to n - 1 do
      if nparts.(gid) > 1 then begin
        incr cross_committed;
        let dt = cross.decided.(gid) in
        (* Every cross transaction decided before the loops exited. *)
        assert (not (Float.is_nan dt));
        if dt > !max_decided then max_decided := dt;
        Histogram.add cross_hist (Float.max 0.0 (dt -. arrivals_us.(gid)))
      end
    done;
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
    let peak f = List.fold_left (fun acc r -> max acc (f r)) 0 results in
    let single_hist =
      List.fold_left
        (fun acc r -> Histogram.merge acc r.Server.latency_us)
        (Histogram.create ()) results
    in
    let makespan_us =
      List.fold_left (fun acc r -> Float.max acc r.Server.makespan_us) !max_decided results
    in
    {
      completed = n;
      makespan_us;
      sustained_tps =
        (if makespan_us > 0.0 then float_of_int n /. makespan_us *. 1e6 else Float.infinity);
      restarts = sum (fun r -> r.Server.restarts);
      forces = sum (fun r -> r.Server.forces) + Coordinator_log.log_syncs coordinator;
      lock_acquires = sum (fun r -> r.Server.lock_acquires);
      cross_committed = !cross_committed;
      oversubscribed;
      max_inflight = peak (fun r -> r.Server.max_inflight);
      max_queued = peak (fun r -> r.Server.max_queued);
      latency_us = Histogram.merge single_hist cross_hist;
      single_latency_us = single_hist;
      cross_latency_us = cross_hist;
    }
end

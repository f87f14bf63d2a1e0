(* Wall-clock benchmark of the recovery engines and the paper-table
   simulator, driven from outside through public functions only.

   One invocation runs one workload for a fixed number of seconds and
   prints one JSON line: the end-to-end metrics (tracing off) or, with
   [--trace 1], the per-layer ledger (timing wrappers around each
   layer's entry points, with untraced iterations interleaved to
   measure the tracing overhead).  perfbench/run.py builds this program,
   runs it, checks the metric names against BENCHMARK.json and relays
   the line; perfbench/README.md documents workloads and metrics.

   The storage server's open loop runs on its simulated clock, so on
   the wall clock every storage workload is a batch: the whole arrival
   trace is handed to Server.run / Shard.run and [wall_tps] is work
   completed per wall second for the stated trace size.  The simulated
   figures (sustained tps, p99) are per-layer counts only: the cost
   constants behind them are meant to be recalibrated, and under 2PC
   they vary with the OS interleaving of the shard domains.

   Every iteration starts from a fresh set-up (trace generation, engine
   creation, preload of every key through the engine API, a checkpoint)
   after a full major GC, and ends with a crash, a timed restart and a
   check of the recovered data against a reference. *)

open Dbm_storage
module W = Dbm_workload.Workload
module Hist = Dbm_util.Stats.Histogram

(* --- clock and statistics ------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let since t0 = float_of_int (now_ns () - t0) *. 1e-9

let secs_of ns = float_of_int ns *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The host's speed drifts by up to 2x over seconds (other tenants), so
   a run's throughput and restart figures are its best iteration — as
   Storage_bench reports best-of-five walls — which repeats across runs
   far better than the median does. *)
let best f l = List.fold_left (fun acc x -> Float.max acc (f x)) neg_infinity l

let stat name l = Option.value (List.assoc_opt name l) ~default:0

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* --- per-layer spans ----------------------------------------------- *)

type span = { mutable ns : int; mutable calls : int }

let span () = { ns = 0; calls = 0 }

let[@inline] stop s t0 =
  s.ns <- s.ns + (now_ns () - t0);
  s.calls <- s.calls + 1

(* Self time of each engine entry point the server calls.  The engine
   never calls back into the server, so these spans do not nest. *)
type ledger = {
  put : span;
  get : span;
  commit : span;  (** commit, commit_group *)
  force : span;  (** force_commits *)
  abort : span;  (** deadlock-victim rollbacks *)
  prepare : span;
  snap : span;  (** snapshot reads; pin and release add time, not calls *)
}

let new_ledger () =
  {
    put = span ();
    get = span ();
    commit = span ();
    force = span ();
    abort = span ();
    prepare = span ();
    snap = span ();
  }

let spans l = [ l.put; l.get; l.commit; l.force; l.abort; l.prepare; l.snap ]

let engine_ns l = List.fold_left (fun acc s -> acc + s.ns) 0 (spans l)

let sum_ledgers ledgers =
  let total = new_ledger () in
  List.iter
    (fun l ->
      List.iter2
        (fun d s ->
          d.ns <- d.ns + s.ns;
          d.calls <- d.calls + s.calls)
        (spans total) (spans l))
    ledgers;
  total

let ledger_layers l =
  [
    ("engine.put_s", secs_of l.put.ns);
    ("engine.get_s", secs_of l.get.ns);
    ("engine.commit_s", secs_of l.commit.ns);
    ("engine.force_s", secs_of l.force.ns);
    ("engine.abort_s", secs_of l.abort.ns);
    ("engine.prepare_s", secs_of l.prepare.ns);
    ("engine.prepares", float_of_int l.prepare.calls);
    ("engine.snapshot_get_s", secs_of l.snap.ns);
    ("engine.snapshot_gets", float_of_int l.snap.calls);
  ]

(* The engine as the server sees it, plus its ledger when timed. *)
module type SUBJECT = sig
  include Shard.ENGINE

  type base

  val wrap : base -> t

  val ledger : t -> ledger option
end

module Plain (E : Shard.ENGINE) : SUBJECT with type base = E.t = struct
  include E

  type base = E.t

  let wrap e = e

  let ledger _ = None
end

(* The timing functor: every entry point the server and the shard loop
   call runs inside a monotonic-clock span. *)
module Timed (E : Shard.ENGINE) : SUBJECT with type base = E.t = struct
  type base = E.t

  type t = { e : E.t; led : ledger }

  type txn = { tx : E.txn; tl : ledger }

  let engine_name = E.engine_name

  let wrap e = { e; led = new_ledger () }

  let ledger t = Some t.led

  let create ?n_keys () = wrap (E.create ?n_keys ())

  let max_keys t = E.max_keys t.e

  let keys_per_page t = E.keys_per_page t.e

  let begin_txn t = { tx = E.begin_txn t.e; tl = t.led }

  let get x k =
    let t0 = now_ns () in
    let r = E.get x.tx k in
    stop x.tl.get t0;
    r

  let put x k v =
    let t0 = now_ns () in
    E.put x.tx k v;
    stop x.tl.put t0

  let delete x k =
    let t0 = now_ns () in
    E.delete x.tx k;
    stop x.tl.put t0

  let commit x =
    let t0 = now_ns () in
    E.commit x.tx;
    stop x.tl.commit t0

  let commit_group x =
    let t0 = now_ns () in
    E.commit_group x.tx;
    stop x.tl.commit t0

  let abort x =
    let t0 = now_ns () in
    E.abort x.tx;
    stop x.tl.abort t0

  let prepare x ~gid =
    let t0 = now_ns () in
    E.prepare x.tx ~gid;
    stop x.tl.prepare t0

  let force_commits t =
    let t0 = now_ns () in
    E.force_commits t.e;
    stop t.led.force t0

  let crash_and_recover t = E.crash_and_recover t.e

  let checkpoint t = E.checkpoint t.e

  let stats t = E.stats t.e
end

(* --- traces, values, preload, scans -------------------------------- *)

let kpp = 4 (* keys per page: the engines' default locking granule *)

(* Every write carries a value naming its transaction, so a scan shows
   which transaction's write survived. *)
let value_of id = "t" ^ string_of_int id

let preload_value k = "p" ^ string_of_int k

let writer_of = function
  | Some v when String.length v > 1 && v.[0] = 't' ->
    int_of_string_opt (String.sub v 1 (String.length v - 1))
  | _ -> None

type phase = { scripts : Scheduler.script array; arrivals_us : float array; read_only : bool array }

(* One key per referenced page (the page's slot picked by transaction
   id), so lock conflicts stay at the page granule. *)
let scripts_of txns =
  Array.mapi
    (fun id t ->
      List.init (Array.length t.W.pages) (fun i ->
          let k = (t.W.pages.(i) * kpp) + (id land (kpp - 1)) in
          if t.W.writes.(i) then Scheduler.Put (k, value_of id) else Scheduler.Get k))
    txns

let arrivals ~seed ~rate n =
  let rng = Dbm_util.Prng.create seed in
  Array.map (fun s -> s *. 1e6) (W.gen_arrival_times rng (W.Poisson { rate }) ~n)

let uniform_txns ~seed ~n ~db_pages =
  W.generate
    {
      W.n_transactions = n;
      min_pages = 2;
      max_pages = 8;
      write_fraction = 0.7;
      pattern = W.Random_access;
      db_pages;
      seed;
    }

(* A write-only trace cut into a body and a tail of [tail]
   transactions; the tail's arrivals are rebased to start at 0. *)
let body_and_tail ~seed ~rate ~tail txns =
  let scripts = scripts_of txns in
  let n = Array.length scripts in
  let arr = arrivals ~seed:(seed + 1) ~rate n in
  let cut = n - tail in
  [
    {
      scripts = Array.sub scripts 0 cut;
      arrivals_us = Array.sub arr 0 cut;
      read_only = Array.make cut false;
    };
    {
      scripts = Array.sub scripts cut tail;
      arrivals_us = Array.map (fun a -> a -. arr.(cut)) (Array.sub arr cut tail);
      read_only = Array.make tail false;
    };
  ]

let preload (type a) (module E : Kv.S with type t = a) (e : a) keys =
  let n = Array.length keys in
  let i = ref 0 in
  while !i < n do
    let t = E.begin_txn e in
    for j = !i to min (n - 1) (!i + 63) do
      E.put t keys.(j) (preload_value keys.(j))
    done;
    E.commit t;
    i := !i + 64
  done;
  E.checkpoint e

let scan (type a) (module E : Kv.S with type t = a) (e : a) keys (into : string option array) =
  let t = E.begin_txn e in
  Array.iter (fun k -> into.(k) <- E.get t k) keys;
  E.abort t

(* Transactions missing from a recovered scan: a transaction is missing
   when the reference says it wrote the final value of some key and the
   engine shows something else; a key that should hold its preload
   value but does not counts once on its own. *)
let missing ~expected ~actual =
  let gone = Hashtbl.create 16 and stray = ref 0 in
  Array.iteri
    (fun k exp ->
      if not (Option.equal String.equal exp actual.(k)) then
        match writer_of exp with
        | Some id -> Hashtbl.replace gone id ()
        | None -> incr stray)
    expected;
  Hashtbl.length gone + !stray

(* The reference engine: the executable specification with group
   commit mapped to commit and the engines' lock granule, so the
   server's simulated schedule is the engine run's schedule. *)
module Model = struct
  include Kv.Model

  let keys_per_page _ = kpp

  let commit_group = commit

  let force_commits _ = ()
end

module Model_server = Server.Make (Model)

(* Group commit, batch 32, 1 ms timeout — the same on every side. *)
let flush_policy = Commit_pipeline.Grouped { batch = 32; timeout_us = 1000.0 }

let model_run ?(with_snapshots = false) ~n_keys phases =
  let m = Model.create ~n_keys () in
  let keys = Array.init n_keys Fun.id in
  preload (module Model) m keys;
  let snapshot =
    if not with_snapshots then None
    else
      Some
        (fun () ->
          let t = Model.begin_txn m in
          { Scheduler.view_get = Model.get t; view_close = (fun () -> Model.abort t) })
  in
  List.iter
    (fun p ->
      ignore
        (Model_server.run ?snapshot ~read_only:p.read_only ~mode:flush_policy ~arrivals_us:p.arrivals_us
           ~scripts:p.scripts m))
    phases;
  Model.crash_and_recover m;
  let expected = Array.make n_keys None in
  scan (module Model) m keys expected;
  expected

(* --- per-layer figures --------------------------------------------- *)

type sample = {
  setup_s : float;
  wall_s : float;  (** the measured work, checkpoints between phases included *)
  done_ : int;  (** transactions acknowledged (simulated ones for the tables) *)
  attempted : int;
  failed : int;
  ok : bool;  (** checks that are not per transaction *)
  recovery_s : float;
  layers : (string * float) list;  (** traced iterations only *)
  unit_costs : (unit -> (string * float) list) option;
}

(* The phase that acknowledged most: its simulated figures stand for
   the trace's. *)
let longest completed l = List.fold_left (fun a b -> if completed b > completed a then b else a) (List.hd l) l

(* Scheduler and simulated-clock counts of the served trace, and the
   server's self time: its wall on each of [domains] domains minus the
   engine spans. *)
let sched_layers ~run_s ~busy_s ~domains ~completed ~restarts ~forces ~lock_acquires ~sim_tps ~p99_us =
  let completed = float_of_int completed and restarts = float_of_int restarts in
  [
    ("server.self_s", (float_of_int domains *. run_s) -. busy_s);
    ("sched.lock_acquires", float_of_int lock_acquires);
    ("sched.restarts", restarts);
    ("sched.commit_ratio", completed /. (completed +. restarts));
    ("pipeline.forces_per_txn", float_of_int forces /. completed);
    ("sim.sustained_tps", sim_tps);
    ("sim.p99_us", p99_us);
  ]

(* Store counters over the served trace, from engine [stats] before and
   after it, summed over the engines of a workload. *)
let store_layers ~before ~after ~records ~log_bytes =
  let delta name =
    float_of_int
      (List.fold_left2 (fun acc b a -> acc + stat name a - stat name b) 0 before after)
  in
  [
    ("vdisk.writes", delta "disk_writes");
    ("vdisk.reads", delta "disk_reads");
    ("journal.syncs", delta "log_syncs");
    ("engine.checkpoints", delta "checkpoints");
    ("wal.records", float_of_int records);
    ("wal.retained_bytes", float_of_int log_bytes);
    ("recovery.records", float_of_int (List.fold_left (fun acc a -> acc + stat "durable_records" a) 0 after));
  ]

(* Isolated per-record costs of the log layers, on the records the run
   itself logged: the codec (through a reusable scratch, as the engine
   appends), journal append and sync, and Replay.decode over journals
   rebuilt from those records, serially and on a pool of nproc domains.
   Each figure is the median of three passes. *)
let log_unit_costs (logs : Wal.record list array) () =
  let recs = Array.concat (Array.to_list (Array.map Array.of_list logs)) in
  let n = float_of_int (max 1 (Array.length recs)) in
  let med3 f = median (List.init 3 (fun _ -> snd (timed f))) in
  let enc = Wal_codec.Enc.create ~size:(2 * 1024 + 64) () in
  let encoded = Array.map (Wal.encode_with enc) recs in
  let encode_s = med3 (fun () -> Array.iter (fun r -> ignore (Wal.encode_with enc r)) recs) in
  let decode_s = med3 (fun () -> Array.iter (fun s -> ignore (Wal.decode s)) encoded) in
  let append_s =
    med3 (fun () ->
        let j = Journal.create () in
        Array.iter (fun s -> ignore (Journal.append j s)) encoded)
  in
  (* one sync per 32 appends, the server's group-commit batch *)
  let sync_ns =
    median
      (List.init 3 (fun _ ->
           let j = Journal.create () and sp = span () in
           Array.iteri
             (fun i s ->
               ignore (Journal.append j s);
               if i land 31 = 31 then begin
                 let t0 = now_ns () in
                 Journal.sync j;
                 stop sp t0
               end)
             encoded;
           float_of_int sp.ns /. float_of_int (max 1 sp.calls)))
  in
  let journals =
    Array.map
      (fun records ->
        let j = Journal.create () in
        List.iter (fun r -> ignore (Journal.append j (Wal.encode_with enc r))) records;
        Journal.sync j;
        j)
      logs
  in
  let decode_serial = med3 (fun () -> ignore (Replay.decode journals)) in
  let decode_par =
    Dbm_util.Pool.with_pool ~jobs:(Dbm_util.Pool.default_jobs ()) (fun pool ->
        med3 (fun () -> ignore (Replay.decode ~pool journals)))
  in
  [
    ("wal.encode_ns", encode_s *. 1e9 /. n);
    ("wal.decode_ns", decode_s *. 1e9 /. n);
    ("journal.append_ns", append_s *. 1e9 /. n);
    ("journal.sync_ns", sync_ns);
    ("replay.decode_s", decode_serial);
    ("replay.decode_par_s", decode_par);
  ]

(* Set-up shared by the storage workloads: generate the trace, then
   create and preload the engines. *)
let set_up ~gen ~engines =
  let ((phases, es), gen_s, preload_s), setup_s =
    timed (fun () ->
        let phases, gen_s = timed gen in
        let es, preload_s = timed engines in
        ((phases, es), gen_s, preload_s))
  in
  (* serving starts with no GC debt left by the set-up *)
  Gc.full_major ();
  (phases, es, setup_s, [ ("workload.gen_s", gen_s); ("preload_s", preload_s) ])

(* Serve the phases, with [checkpoint] between them; returns each
   phase's result, the summed serving wall and the checkpoint wall. *)
let serve_phases phases ~checkpoint ~run =
  let ckpt_s = ref 0.0 and run_s = ref 0.0 in
  let results =
    List.mapi
      (fun i p ->
        if i > 0 then ckpt_s := !ckpt_s +. snd (timed checkpoint);
        let r, s = timed (fun () -> run p) in
        run_s := !run_s +. s;
        r)
      phases
  in
  (results, !run_s, !ckpt_s)

let attempted_of phases = sum (fun p -> Array.length p.scripts) phases

(* --- single-engine workloads: write-heavy and read-mostly ----------- *)

(* What a single-engine workload needs from its engine beyond the
   server's view of it. *)
module type STORE = sig
  include Shard.ENGINE

  val log_bytes : t -> int

  val records_logged : t -> int
end

type 'e single = {
  n_keys : int;
  gen : seed:int -> phase list;
  create : unit -> 'e;
  snapshot : ('e -> ledger option -> unit -> Scheduler.view) option;
  dump : ('e -> Wal.record list array) option;
      (** the durable log, for the isolated unit costs *)
  healthy : 'e -> Server.result list -> bool;
}

(* One iteration: set up, serve the trace, take the store counters,
   crash, time the restart and compare the recovered scan with the
   reference's. *)
let single (type e) (module B : STORE with type t = e) (module S : SUBJECT with type base = e)
    (w : e single) ~seed ~expected =
  let module Srv = Server.Make (S) in
  let keys = Array.init w.n_keys Fun.id in
  let phases, e, setup_s, setup_layers =
    set_up
      ~gen:(fun () -> w.gen ~seed)
      ~engines:(fun () ->
        let e = w.create () in
        preload (module B) e keys;
        e)
  in
  let s = S.wrap e in
  let led = S.ledger s in
  let snapshot = Option.map (fun f -> f e led) w.snapshot in
  let before = B.stats e and records0 = B.records_logged e in
  let results, run_s, ckpt_s =
    serve_phases phases
      ~checkpoint:(fun () -> B.checkpoint e)
      ~run:(fun p ->
        Srv.run ?snapshot ~read_only:p.read_only ~mode:flush_policy ~arrivals_us:p.arrivals_us
          ~scripts:p.scripts s)
  in
  let completed = sum (fun r -> r.Server.completed) results in
  let healthy = w.healthy e results in
  let stores =
    store_layers ~before:[ before ] ~after:[ B.stats e ]
      ~records:(B.records_logged e - records0) ~log_bytes:(B.log_bytes e)
  in
  let logs = match (led, w.dump) with Some _, Some dump -> Some (dump e) | _ -> None in
  let (), recovery_s = timed (fun () -> B.crash_and_recover e) in
  let actual = Array.make w.n_keys None in
  scan (module B) e keys actual;
  let attempted = attempted_of phases in
  let wall_s = run_s +. ckpt_s in
  {
    setup_s;
    wall_s;
    done_ = completed;
    attempted;
    failed = attempted - completed + missing ~expected ~actual;
    ok = healthy;
    recovery_s;
    layers =
      (match led with
      | None -> []
      | Some l ->
        stores @ ledger_layers l
        @ (let r = longest (fun r -> r.Server.completed) results in
           sched_layers ~run_s ~busy_s:(secs_of (engine_ns l)) ~domains:1 ~completed
             ~restarts:(sum (fun r -> r.Server.restarts) results)
             ~forces:(sum (fun r -> r.Server.forces) results)
             ~lock_acquires:(sum (fun r -> r.Server.lock_acquires) results)
             ~sim_tps:r.Server.sustained_tps ~p99_us:(Hist.p99 r.Server.latency_us))
        @ [
            ("sched.ro_restarts", float_of_int (sum (fun r -> r.Server.ro_restarts) results));
            ("server.max_queued", float_of_int (List.fold_left (fun m r -> max m r.Server.max_queued) 0 results));
          ]
        @ setup_layers
        @ [ ("engine.checkpoint_s", ckpt_s); ("trace.wall_s", wall_s) ]);
    unit_costs = Option.map log_unit_costs logs;
  }

(* write-heavy: 8192 one-KiB pages (8 MiB, twice the host's 4 MiB of
   L2), uniform random transactions of 2-8 pages with 70 % writes,
   Poisson arrivals at 50k/s — below the modelled group-commit capacity
   of ~110k/s, so few transactions are in flight.  The trace is served
   in two phases with a sharp checkpoint between them, so the log the
   restart replays is the tail phase's: a size set by the trace, not by
   where the last automatic checkpoint happened to fall. *)
module Write_heavy = struct
  let db_pages = 8192

  let n_keys = db_pages * kpp

  let n_body = 25_000

  let n_tail = 15_000

  (* above the tail's ~68k records, so no automatic checkpoint fires in
     the tail, and below the body's ~112k, so one fires in the body *)
  let ckpt_records = 80_000

  let gen ~seed =
    body_and_tail ~seed ~rate:50_000.0 ~tail:n_tail (uniform_txns ~seed ~n:(n_body + n_tail) ~db_pages)

  let create () =
    Engine_log.create_with ~n_keys ~n_log_disks:2 ~log_format:Engine_log.Delta
      ~auto_checkpoint_records:ckpt_records ()

  let workload =
    {
      n_keys;
      gen;
      create;
      snapshot = None;
      dump = Some (fun e -> Array.init (Engine_log.log_disks e) (fun disk -> Engine_log.dump_log e ~disk));
      healthy = (fun _ _ -> true);
    }

  let reference ~seed = model_run ~n_keys (gen ~seed)
end

(* read-mostly: Zipfian (theta 0.99) transactions over a 256-page (256
   KiB) hot set that fits in L2, 90 % of them read-only and served
   lock-free from Engine_oplog snapshots, offered at 400k/s — above
   capacity, so the locked read-write rest queues, blocks and restarts. *)
module Read_mostly = struct
  let db_pages = 256

  let n_keys = db_pages * kpp

  let n = 40_000

  let gen ~seed =
    let txns =
      W.generate
        {
          W.n_transactions = n;
          min_pages = 2;
          max_pages = 8;
          write_fraction = 0.6;
          pattern = W.Zipfian { theta = 0.99 };
          db_pages;
          seed;
        }
    in
    let txns = W.apply_read_fraction (Dbm_util.Prng.create (seed lxor 0x5eed)) ~read_frac:0.9 txns in
    let read_only = Array.map (fun t -> W.write_set_size t = 0) txns in
    [ { scripts = scripts_of txns; arrivals_us = arrivals ~seed:(seed + 1) ~rate:400_000.0 n; read_only } ]

  (* The snapshot view the server's read-only class reads through; when
     traced, its reads are spans of the engine's ledger. *)
  let snapshot e led () =
    let v = Engine_oplog.snapshot e in
    match led with
    | None ->
      {
        Scheduler.view_get = Engine_oplog.snapshot_get v;
        view_close = (fun () -> Engine_oplog.snapshot_release v);
      }
    | Some l ->
      {
        Scheduler.view_get =
          (fun k ->
            let t0 = now_ns () in
            let r = Engine_oplog.snapshot_get v k in
            stop l.snap t0;
            r);
        view_close =
          (fun () ->
            let t0 = now_ns () in
            Engine_oplog.snapshot_release v;
            l.snap.ns <- l.snap.ns + (now_ns () - t0));
      }

  let workload =
    {
      n_keys;
      gen;
      create = (fun () -> Engine_oplog.create_with ~n_keys ());
      snapshot = Some snapshot;
      dump = None;
      (* the snapshot path never restarts and never leaks a view *)
      healthy =
        (fun e results ->
          Engine_oplog.live_snapshots e = 0 && sum (fun r -> r.Server.ro_restarts) results = 0);
    }

  let reference ~seed = model_run ~with_snapshots:true ~n_keys (gen ~seed)
end

(* --- sharded-2pc: two engine shards on two domains ------------------ *)

(* The write-heavy store and traffic split page-wise over 2 shards
   (= nproc), 5 % of transactions crossing shards and committed by 2PC
   through the coordinator log, offered at 400k/s (above capacity); the
   run ends with a crash of every shard and the coordinator and
   coordinator-resolved restart recovery. *)
module Sharded = struct
  let shards = 2

  let db_pages = 8192

  let n_keys = db_pages * kpp

  let n_body = 25_000

  let n_tail = 15_000

  (* per shard, as in write-heavy: above the tail's records, below the
     body's *)
  let ckpt_records = 40_000

  let gen ~seed =
    let txns =
      W.apply_cross_fraction (Dbm_util.Prng.create (seed lxor 0xc105)) ~cross_frac:0.05 ~classes:shards
        ~class_of:(fun p -> Shard_router.shard_of_page ~shards p)
        ~db_pages
        (uniform_txns ~seed ~n:(n_body + n_tail) ~db_pages)
    in
    body_and_tail ~seed ~rate:400_000.0 ~tail:n_tail txns

  let shard_keys =
    let of_shard s = List.filter (fun k -> Shard_router.shard_of_key ~shards ~keys_per_page:kpp k = s) in
    Array.init shards (fun s -> Array.of_list (of_shard s (List.init n_keys Fun.id)))

  (* The serial server's recovered scan, and every key's writers. *)
  let reference ~seed =
    let phases = gen ~seed in
    let writers = Array.make n_keys [] in
    let base = ref 0 in
    List.iter
      (fun p ->
        Array.iteri
          (fun i script ->
            List.iter
              (function
                | Scheduler.Put (k, _) -> writers.(k) <- (!base + i) :: writers.(k)
                | Scheduler.Get _ | Scheduler.Delete _ -> ())
              script)
          p.scripts;
        base := !base + Array.length p.scripts)
      phases;
    (model_run ~n_keys phases, writers)

  (* Which of a key's writers committed last depends on how the shard
     loops interleaved, so a key written by several transactions must
     hold one of their values; a key with one writer must hold its value
     and an unwritten key its preload value.  Keys whose final writer
     differs from the serial server's are counted, not failed. *)
  let check ~expected ~writers ~actual =
    let gone = Hashtbl.create 16 and stray = ref 0 and order_diffs = ref 0 in
    Array.iteri
      (fun k a ->
        let holds w = Option.equal String.equal a (Some (value_of w)) in
        match writers.(k) with
        | [] -> if not (Option.equal String.equal a (Some (preload_value k))) then incr stray
        | [ w ] -> if not (holds w) then Hashtbl.replace gone w ()
        | ws ->
          if not (List.exists holds ws) then (
            match writer_of expected.(k) with
            | Some w -> Hashtbl.replace gone w ()
            | None -> incr stray)
          else if not (Option.equal String.equal a expected.(k)) then incr order_diffs)
      actual;
    (Hashtbl.length gone + !stray, !order_diffs)

  let create () =
    Engine_log.create_with ~n_keys ~n_log_disks:2 ~log_format:Engine_log.Delta
      ~auto_checkpoint_records:ckpt_records ()

  let iteration (module S : SUBJECT with type base = Engine_log.t) ~seed ~expected:(expected, writers) =
    let module Sh = Shard.Make (S) in
    let phases, engines, setup_s, setup_layers =
      set_up
        ~gen:(fun () -> gen ~seed)
        ~engines:(fun () ->
          Array.map
            (fun keys ->
              let e = create () in
              preload (module Engine_log) e keys;
              e)
            shard_keys)
    in
    let subjects = Array.map S.wrap engines in
    let stats () = Array.to_list (Array.map Engine_log.stats engines) in
    let records () = Array.fold_left (fun acc e -> acc + Engine_log.records_logged e) 0 engines in
    let before = stats () and records0 = records () in
    (* one coordinator per phase: gids restart at 0 in every Shard.run,
       and the checkpoint between phases retires the earlier decisions *)
    let coordinator = ref (Coordinator_log.create ()) in
    let results, run_s, ckpt_s =
      serve_phases phases
        ~checkpoint:(fun () ->
          Array.iter Engine_log.checkpoint engines;
          coordinator := Coordinator_log.create ())
        ~run:(fun p ->
          Sh.run ~mode:flush_policy ~arrivals_us:p.arrivals_us ~scripts:p.scripts
            ~coordinator:!coordinator subjects)
    in
    let coordinator = !coordinator in
    let completed = sum (fun r -> r.Shard.completed) results in
    let coord_layers =
      [
        ("coord.decisions", float_of_int (Coordinator_log.decisions coordinator));
        ("coord.log_syncs", float_of_int (Coordinator_log.log_syncs coordinator));
        ("shard.cross_committed", float_of_int (sum (fun r -> r.Shard.cross_committed) results));
      ]
    in
    let stores =
      store_layers ~before ~after:(stats ()) ~records:(records () - records0)
        ~log_bytes:(Array.fold_left (fun acc e -> acc + Engine_log.log_bytes e) 0 engines)
    in
    let (), recovery_s =
      timed (fun () ->
          Coordinator_log.crash_and_recover coordinator;
          Array.iter
            (Engine_log.crash_and_recover_resolved ~resolve:(fun ~gid ->
                 Coordinator_log.resolve coordinator ~gid))
            engines)
    in
    let in_doubt = Array.fold_left (fun acc e -> acc + List.length (Engine_log.in_doubt e)) 0 engines in
    let actual = Array.make n_keys None in
    Array.iteri (fun s e -> scan (module Engine_log) e shard_keys.(s) actual) engines;
    let lost, order_diffs = check ~expected ~writers ~actual in
    let attempted = attempted_of phases in
    let wall_s = run_s +. ckpt_s in
    {
      setup_s;
      wall_s;
      done_ = completed;
      attempted;
      failed = attempted - completed + in_doubt + lost;
      ok = in_doubt = 0;
      recovery_s;
      layers =
        (match List.filter_map S.ledger (Array.to_list subjects) with
        | [] -> []
        | ledgers ->
          let total = sum_ledgers ledgers in
          let busy_s = secs_of (engine_ns total) in
          stores @ ledger_layers total
          @ (let r = longest (fun r -> r.Shard.completed) results in
             sched_layers ~run_s ~busy_s ~domains:shards ~completed
               ~restarts:(sum (fun r -> r.Shard.restarts) results)
               ~forces:(sum (fun r -> r.Shard.forces) results)
               ~lock_acquires:(sum (fun r -> r.Shard.lock_acquires) results)
               ~sim_tps:r.Shard.sustained_tps ~p99_us:(Hist.p99 r.Shard.latency_us))
          @ coord_layers @ setup_layers
          @ [
              ("shard.busy_s", busy_s);
              ("check.order_diffs", float_of_int order_diffs);
              ("engine.checkpoint_s", ckpt_s);
              ("trace.wall_s", wall_s);
            ]);
      unit_costs = None;
    }
end

(* --- paper-tables: the simulation half ------------------------------ *)

(* Cold regeneration of Tables 1-12: the Experiment memo is cleared and
   no disk cache is installed, every run is forced serially (the
   domain pool is measured by sharded-2pc; its wall swings too much on
   2 cores to gate), then the tables are assembled from the memo.  The
   "transactions" here are simulated ones: [wall_tps] is simulated
   transactions per wall second of the regeneration.  The restart half
   of the paper's comparison is the functional engines: [recovery_s] is
   the summed crash-and-recover wall of the six architectures' engines,
   each after the same committed load. *)
module Paper = struct
  module Experiment = Dbm_core.Experiment

  let families = [ "bare"; "logging"; "shadow"; "diff" ]

  (* Architecture family of a run, from its label: the canonical
     descriptor's prefix (overwriting is a shadow variant), or the
     label Table 3's logging runs carry. *)
  let family label =
    let has p = String.length label >= String.length p && String.sub label 0 (String.length p) = p in
    if has "bare" then "bare"
    else if has "logging" || has "Table 3" then "logging"
    else if has "shadow" then "shadow"
    else if has "diff-file" then "diff"
    else failwith ("unknown architecture in run label " ^ label)

  let restart_engines : (module Kv.S) list =
    [
      (module Engine_log);
      (module Engine_shadow);
      (module Engine_versel);
      (module Engine_overwrite.No_undo);
      (module Engine_overwrite.No_redo);
      (module Engine_diff);
    ]

  let n_keys = 512

  let loaded_txns = 1500

  (* Preload, then [loaded_txns] committed transactions of ten puts each
     over uniformly drawn keys.  Returns the timed restart and its
     check, ready to run. *)
  let load ~seed (module E : Kv.S) =
    let e = E.create ~n_keys () in
    let keys = Array.init n_keys Fun.id in
    preload (module E) e keys;
    let expected = Array.map (fun k -> Some (preload_value k)) keys in
    let rng = Dbm_util.Prng.create seed in
    for id = 0 to loaded_txns - 1 do
      let t = E.begin_txn e in
      for _ = 1 to 10 do
        let k = Dbm_util.Prng.int rng n_keys in
        E.put t k (value_of id);
        expected.(k) <- Some (value_of id)
      done;
      E.commit t
    done;
    fun () ->
      let (), s = timed (fun () -> E.crash_and_recover e) in
      let actual = Array.make n_keys None in
      scan (module E) e keys actual;
      (s, missing ~expected ~actual)

  let render () = String.concat "\n" (List.map Dbm_core.Report.to_string (Dbm_core.Tables.all ()))

  (* The tables rendered by an untimed regeneration: every timed one
     must render them byte for byte. *)
  let reference () =
    Experiment.disable_disk_cache ();
    Experiment.clear_cache ();
    render ()

  let iteration ~traced ~seed ~expected =
    let (reqs, restarts), setup_s =
      timed (fun () ->
          Experiment.disable_disk_cache ();
          Experiment.clear_cache ();
          Experiment.reset_counters ();
          let reqs = Experiment.dedup (Dbm_core.Tables.runs ()) in
          (reqs, List.map (load ~seed) restart_engines))
    in
    let by_family = Hashtbl.create 4 in
    let force r =
      if not traced then Experiment.force r
      else begin
        let res, s = timed (fun () -> Experiment.force r) in
        let f = family (Experiment.label r) in
        Hashtbl.replace by_family f (s +. Option.value (Hashtbl.find_opt by_family f) ~default:0.0);
        res
      end
    in
    let (sim_txns, pages), force_s =
      timed (fun () ->
          List.fold_left
            (fun (txns, pages) r ->
              let res = force r in
              (txns + res.Dbm_machine.Results.n_transactions, pages + res.Dbm_machine.Results.pages_processed))
            (0, 0) reqs)
    in
    let rendered, render_s = timed render in
    let c = Experiment.counters () in
    let recovered = List.map (fun restart -> restart ()) restarts in
    let shape_failures = List.length (Dbm_core.Shape_checks.failures ()) in
    let wall_s = force_s +. render_s in
    {
      setup_s;
      wall_s;
      done_ = sim_txns;
      attempted = List.length reqs + List.length restarts;
      failed = shape_failures + List.fold_left (fun acc (_, m) -> acc + m) 0 recovered;
      ok = String.equal rendered expected;
      recovery_s = List.fold_left (fun acc (s, _) -> acc +. s) 0.0 recovered;
      layers =
        (if not traced then []
         else
           List.map
             (fun f -> ("experiment.force_s." ^ f, Option.value (Hashtbl.find_opt by_family f) ~default:0.0))
             families
           @ [
               ("experiment.sims", float_of_int c.Experiment.computed);
               ( "experiment.memo_hits",
                 float_of_int (c.Experiment.requested - c.Experiment.computed - c.Experiment.disk_hits) );
               ("tables.render_s", render_s);
               ("tables.regen_s", wall_s);
               ("sim.pages_per_s", float_of_int pages /. force_s);
               ("trace.wall_s", wall_s);
             ]);
      unit_costs = None;
    }
end

(* --- the run loop --------------------------------------------------- *)

type outcome = { correct : bool; attempted : int; failed : int; metrics : (string * float) list }

(* Iterations until [seconds] have passed (at least two).  Untraced:
   every iteration is plain.  Traced: plain and timed iterations
   alternate; the per-layer figures are medians over the timed ones and
   the overhead is the median timed wall over the median plain wall. *)
let drive ~seconds ~trace ~(plain : unit -> sample) ~(timed_iter : unit -> sample) =
  let t0 = now_ns () in
  let samples = ref [] and traced = ref [] and units = ref None in
  let k = ref 0 in
  while !k < 2 || since t0 < seconds do
    Gc.full_major ();
    let is_traced = trace && !k land 1 = 1 in
    let s = if is_traced then timed_iter () else plain () in
    (* keep only the newest log for the unit costs *)
    if s.unit_costs <> None then units := s.unit_costs;
    let s = { s with unit_costs = None } in
    if is_traced then traced := s :: !traced else samples := s :: !samples;
    incr k
  done;
  let all = !samples @ !traced in
  let attempted = List.fold_left (fun acc (s : sample) -> acc + s.attempted) 0 all in
  let failed = List.fold_left (fun acc (s : sample) -> acc + s.failed) 0 all in
  let ok = List.for_all (fun (s : sample) -> s.ok) all in
  let med f l = median (List.map f l) in
  if not trace then
    {
      correct = ok && failed = 0;
      attempted;
      failed;
      metrics =
        [
          ("wall_tps", best (fun s -> float_of_int s.done_ /. s.wall_s) !samples);
          ("recovery_s", -.best (fun s -> -.s.recovery_s) !samples);
          ("setup_s", med (fun s -> s.setup_s) !samples);
        ];
    }
  else begin
    let tr = !traced in
    let layer name = med (fun s -> List.assoc name s.layers) tr in
    let units = match !units with None -> [] | Some f -> f () in
    let recovery = med (fun s -> s.recovery_s) tr in
    (* the restart's remainder once its log decoding is taken out *)
    let rest =
      match List.assoc_opt "replay.decode_s" units with
      | Some decode -> [ ("recovery.rest_s", recovery -. decode) ]
      | None -> []
    in
    (* Attribution: the engine spans nest inside the serving wall, so
       the residual server self time may not go below zero by more than
       clock skew, stated as 2 % of the traced wall. *)
    let attributed s =
      match List.assoc_opt "server.self_s" s.layers with
      | None -> true
      | Some self -> self >= -0.02 *. s.wall_s
    in
    {
      correct = ok && failed = 0 && List.for_all attributed tr;
      attempted;
      failed;
      metrics =
        List.map (fun (n, _) -> (n, layer n)) (List.hd tr).layers
        @ units @ rest
        @ [
            ("trace.overhead", (med (fun s -> s.wall_s) tr /. med (fun s -> s.wall_s) !samples) -. 1.0);
            ("recovery.wall_s", recovery);
          ];
    }
  end

let workloads = [ "write-heavy"; "read-mostly"; "sharded-2pc"; "paper-tables" ]

module Log_plain = Plain (Engine_log)
module Log_timed = Timed (Engine_log)
module Oplog_plain = Plain (Engine_oplog)
module Oplog_timed = Timed (Engine_oplog)

let run_workload name ~seed ~seconds ~trace =
  let drive ~reference ~plain ~timed_iter =
    let expected = reference () in
    drive ~seconds ~trace ~plain:(fun () -> plain ~expected) ~timed_iter:(fun () -> timed_iter ~expected)
  in
  match name with
  | "write-heavy" ->
    let w = Write_heavy.workload in
    drive
      ~reference:(fun () -> Write_heavy.reference ~seed)
      ~plain:(single (module Engine_log) (module Log_plain) w ~seed)
      ~timed_iter:(single (module Engine_log) (module Log_timed) w ~seed)
  | "read-mostly" ->
    let w = Read_mostly.workload in
    drive
      ~reference:(fun () -> Read_mostly.reference ~seed)
      ~plain:(single (module Engine_oplog) (module Oplog_plain) w ~seed)
      ~timed_iter:(single (module Engine_oplog) (module Oplog_timed) w ~seed)
  | "sharded-2pc" ->
    drive
      ~reference:(fun () -> Sharded.reference ~seed)
      ~plain:(Sharded.iteration (module Log_plain) ~seed)
      ~timed_iter:(Sharded.iteration (module Log_timed) ~seed)
  | "paper-tables" ->
    drive ~reference:Paper.reference
      ~plain:(Paper.iteration ~traced:false ~seed)
      ~timed_iter:(Paper.iteration ~traced:true ~seed)
  | _ -> invalid_arg name

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer ledger");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bad --seconds or --trace";
    exit 2
  end;
  let o = run_workload !workload ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1) in
  let heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 in
  let metrics = if !trace = 1 then o.metrics else o.metrics @ [ ("peak_heap_mb", heap_mb) ] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"values\": {%s}}\n" o.correct
    o.attempted o.failed
    (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%S: %s" n (json_float v)) metrics))

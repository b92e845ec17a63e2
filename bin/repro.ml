(* Command-line driver regenerating every table and figure of the
   paper's evaluation (see DESIGN.md §4 for the experiment index),
   plus the live storm drivers for the subsystems built on the queue.

     repro table1                    platform inventory
     repro fig2 --benchmark pairs    Figure 2 throughput sweep
     repro table2                    WF-0 execution-path breakdown
     repro ablation-*                design-choice ablations
     repro latency                   per-operation latency tails
     repro stats                     fast/slow-path telemetry
     repro inject                    fault-injection storm on the queue
     repro shard                     sharded-router batch storm
     repro bounded                   bounded-memory spike storm
     repro topology                  specialized-variant role storms
     repro sched                     task-scheduler fan-out/fan-in storm
     repro list | repro all          enumerate queues / run everything

   All benchmarks print fixed-width tables; --csv PATH additionally
   saves the rows.  An unknown subcommand exits with status 2. *)

open Cmdliner

let csv_arg =
  let doc = "Also write the table as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH" ~doc)

let quick_arg =
  let doc =
    "Quick methodology: 3 invocations of up to 5 iterations instead of the paper's 10x20, and a \
     smaller default operation budget."
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

let threads_arg ~default =
  let doc = "Comma-separated list of thread counts." in
  Arg.(value & opt (list int) default & info [ "threads" ] ~docv:"N,N,..." ~doc)

let total_ops_arg =
  let doc = "Total operations per iteration (default: paper's 10^7; quick mode: 4x10^5)." in
  Arg.(value & opt (some int) None & info [ "ops" ] ~docv:"N" ~doc)

let save csv t = Option.iter (fun path -> Harness.Report.save_csv t ~path) csv

let table1_cmd =
  let run csv = save csv (Harness.Experiments.table1 ()) in
  Cmd.v (Cmd.info "table1" ~doc:"Table 1: experimental platforms") Term.(const run $ csv_arg)

let bench_arg =
  let doc = "Benchmark: 'pairs' (enqueue-dequeue pairs) or 'half' (50%-enqueues)." in
  Arg.(value & opt string "pairs" & info [ "benchmark"; "b" ] ~docv:"KIND" ~doc)

let queues_arg =
  let doc =
    "Comma-separated queue names to run (default: the Figure 2 set). Known names: see \
     'repro list'."
  in
  Arg.(value & opt (some (list string)) None & info [ "queues" ] ~docv:"Q,Q,..." ~doc)

let fig2_cmd =
  let run csv quick threads total_ops bench queues =
    match Harness.Workload.kind_of_string bench with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok kind ->
      let queues =
        Option.map
          (List.map (fun n ->
               match Harness.Queues.find n with
               | Some f -> f
               | None ->
                 Printf.eprintf "unknown queue %S; try 'repro list'\n" n;
                 exit 2))
          queues
      in
      save csv (Harness.Experiments.figure2 ~quick ~threads ?queues ?total_ops kind)
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Figure 2: throughput of all queues across thread counts")
    Term.(
      const run $ csv_arg $ quick_arg
      $ threads_arg ~default:[ 1; 2; 4; 8; 16 ]
      $ total_ops_arg $ bench_arg $ queues_arg)

let table2_cmd =
  let run csv quick threads total_ops =
    save csv (Harness.Experiments.table2 ~quick ~threads ?total_ops ())
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Table 2: WF-0 execution-path breakdown under 50%-enqueues")
    Term.(const run $ csv_arg $ quick_arg $ threads_arg ~default:[ 4; 8; 16; 32 ] $ total_ops_arg)

let one_thread_arg =
  let doc = "Thread count for the ablation." in
  Arg.(value & opt int 8 & info [ "threads" ] ~docv:"N" ~doc)

let ablation cmd_name doc f =
  let run csv quick threads total_ops = save csv (f ~quick ~threads ?total_ops ()) in
  Cmd.v (Cmd.info cmd_name ~doc) Term.(const run $ csv_arg $ quick_arg $ one_thread_arg $ total_ops_arg)

let ablation_patience_cmd =
  ablation "ablation-patience" "PATIENCE sweep (fast/slow-path cutover)"
    (fun ~quick ~threads ?total_ops () ->
      Harness.Experiments.ablation_patience ~quick ~threads ?total_ops ())

let ablation_segment_cmd =
  ablation "ablation-segment" "Segment size sweep (the paper's N)"
    (fun ~quick ~threads ?total_ops () ->
      Harness.Experiments.ablation_segment_size ~quick ~threads ?total_ops ())

let ablation_garbage_cmd =
  ablation "ablation-garbage" "MAX_GARBAGE cleanup-threshold sweep"
    (fun ~quick ~threads ?total_ops () ->
      Harness.Experiments.ablation_max_garbage ~quick ~threads ?total_ops ())

let ablation_reclaim_cmd =
  ablation "ablation-reclaim" "Reclamation on/off on the hot path"
    (fun ~quick ~threads ?total_ops () ->
      Harness.Experiments.ablation_reclamation ~quick ~threads ?total_ops ())

let latency_cmd =
  let run csv threads queues =
    let queues =
      Option.map
        (List.map (fun n ->
             match Harness.Queues.find n with
             | Some f -> f
             | None ->
               Printf.eprintf "unknown queue %S; try 'repro list'\n" n;
               exit 2))
        queues
    in
    save csv (Harness.Latency.experiment ?queues ~threads ())
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Per-operation latency tails (the wait-freedom predictability claim)")
    Term.(const run $ csv_arg $ one_thread_arg $ queues_arg)

let patience_list_arg =
  let doc = "Comma-separated patience values to sweep." in
  Arg.(
    value
    & opt (list int) Harness.Telemetry.default_patiences
    & info [ "patience" ] ~docv:"P,P,..." ~doc)

let json_arg =
  let doc = "Also write the telemetry rows as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let stats_cmd =
  let run threads total_ops bench patiences json =
    match Harness.Workload.kind_of_string bench with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok kind ->
      let total_ops = Option.value total_ops ~default:400_000 in
      Printf.printf
        "Wait-freedom telemetry: instrumented wf queue, %d threads, %s workload, %d ops/row\n"
        threads
        (Harness.Workload.kind_to_string kind)
        total_ops;
      Printf.printf "(slow/Mop = slow-path operations per million; the paper's §6 claim is\n";
      Printf.printf " that patience ~10 makes slow paths negligible)\n\n";
      let rows = Harness.Telemetry.stats_table ~kind ~patiences ~total_ops ~threads () in
      Format.printf "%a@." Harness.Telemetry.pp_table rows;
      Format.printf "Latency tails (timing overhead included; relative shape is the signal):@.";
      List.iter
        (fun (r : Harness.Telemetry.row) ->
          List.iter
            (fun cls ->
              let s = Obs.Op_latency.summarize r.result.latency cls in
              if s.Obs.Op_latency.samples > 0 then
                Format.printf
                  "  patience %-3d %-13s p50 %7.0fns  p90 %7.0fns  p99 %7.0fns  max %9.0fns@."
                  r.patience
                  (Obs.Op_latency.class_name cls)
                  s.p50_ns s.p90_ns s.p99_ns s.max_ns)
            Obs.Op_latency.classes)
        rows;
      (match List.rev rows with
      | last :: _ -> (
        match last.result.snapshot with
        | Some snap ->
          Format.printf "@.Snapshot of the last run (patience %d):@.%a@." last.patience
            Obs.Snapshot.pp snap
        | None -> ())
      | [] -> ());
      Option.iter
        (fun path ->
          Harness.Json.save (Harness.Telemetry.table_to_json rows) ~path;
          Printf.printf "Wrote %s\n" path)
        json
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Fast/slow-path telemetry table: slow-path rate, CAS failures, helping events and \
          latency tails of the instrumented wait-free queue across patience values")
    Term.(
      const run
      $ Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N" ~doc:"Worker domains.")
      $ total_ops_arg $ bench_arg $ patience_list_arg $ json_arg)

(* The live storm drivers.  Each one is a queue adaptor plus a workload
   loop over [Harness.Storm], which arms the seeded fault plan, runs
   the domains, audits conservation and prints the verdict with the
   replay seed.  Exit 0 = every audit held, 1 = a violation, 2 = bad
   arguments. *)

module Storm = Harness.Storm

let seed_arg =
  Arg.(
    value
    & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-plan seed; a failure replays from it.")

let park_arg ~default =
  Arg.(
    value
    & opt int default
    & info [ "park" ] ~docv:"UNITS"
        ~doc:"Stall length in park units (one unit is 1us in this driver; 0 disables parking).")

let kill_arg ~doc = Arg.(value & flag & info [ "kill" ] ~doc)
let victims_arg ~doc = Arg.(value & opt (some int) None & info [ "victims" ] ~docv:"K" ~doc)
let plan_of ~seed ~park ~kill = Inject.Plan.make ~park ~lethal:kill ~seed:(Int64.of_int seed) ()
let victims_of ~n ~default = function Some k -> max 0 (min k n) | None -> default

let usage_error msg =
  prerr_endline msg;
  exit 2

(* K victim domains park or die mid-protocol at seed-chosen injection
   points while every domain runs enqueue/dequeue pairs.  Wait-freedom
   means the survivors finish their full budgets regardless, and each
   kill strands at most its one in-flight value. *)
let inject_cmd =
  let module Q = Wfq.Wfqueue_inject in
  let run threads victims seed ops park kill =
    if threads < 1 then usage_error "repro inject: need at least one domain";
    let victims = victims_of ~n:threads ~default:(max 1 (threads / 2)) victims in
    let q = Q.create () in
    let plan = plan_of ~seed ~park ~kill in
    Printf.printf "Fault-injection storm: %d domains (%d victims), %d enq/deq pairs each\n  plan: %s\n%!"
      threads victims ops (Inject.Plan.describe plan);
    let lat = Array.init threads (fun _ -> Obs.Op_latency.create ()) in
    let timed d cls f =
      let t0 = Primitives.Clock.now_ns () in
      let r = f () in
      Obs.Op_latency.record lat.(d) (cls r)
        (Int64.to_float (Int64.sub (Primitives.Clock.now_ns ()) t0));
      r
    in
    let domains =
      Storm.run ~plan ~victims threads (fun d l ->
          let h = Q.register q in
          (* retire on every exit path: a crashed victim's handle must
             not pin reclamation, and its pending request stays
             helpable *)
          Fun.protect ~finally:(fun () -> Q.retire q h) @@ fun () ->
          for i = 0 to ops - 1 do
            timed d (fun () -> Obs.Op_latency.Enqueue) (fun () -> Q.enqueue q h ((d * ops) + i));
            l.enqueued <- i + 1;
            match
              timed d
                (function Some _ -> Obs.Op_latency.Dequeue | None -> Obs.Op_latency.Dequeue_empty)
                (fun () -> Q.dequeue q h)
            with
            | Some v -> l.got <- v :: l.got
            | None -> ()
          done)
    in
    let rec drain acc = match Q.pop q with Some v -> drain (v :: acc) | None -> acc in
    let drained = drain [] in
    let kills = (Inject.total_stats ()).Inject.kills in
    let detail ppf =
      Format.fprintf ppf "  %d value(s) drained post-storm (%d kill(s): each may strand one)@."
        (List.length drained) kills;
      let merged = Obs.Op_latency.create () in
      Array.iter (fun l -> Obs.Op_latency.merge_into ~into:merged l) lat;
      Format.fprintf ppf "@.Latency tails across all domains (parked victims' stalls included):@.";
      List.iter
        (fun cls ->
          let s = Obs.Op_latency.summarize merged cls in
          if s.Obs.Op_latency.samples > 0 then
            Format.fprintf ppf
              "  %-13s %9d ops  p50 %7.0fns  p90 %7.0fns  p99 %7.0fns  max %9.0fns@."
              (Obs.Op_latency.class_name cls)
              s.samples s.p50_ns s.p90_ns s.p99_ns s.max_ns)
        Obs.Op_latency.classes;
      Format.fprintf ppf "@.Queue snapshot (helping visible under help_enq/help_deq):@.%a@."
        Obs.Snapshot.pp (Q.snapshot q)
    in
    exit
      (Storm.report ~role:(fun _ -> "pairs") ~domains ~detail ~seed ~faults:(victims > 0)
         ~ok:"every surviving domain completed its full budget; values conserved."
         (Storm.audit ~ops ~in_flight:1 ~allowance:kills ~drained domains))
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Live fault-injection storm: stall (or with --kill, crash) victim domains at \
          seed-chosen protocol points and verify the survivors' wait-free completion and \
          value conservation")
    Term.(
      const run
      $ Arg.(value & opt int 8 & info [ "threads" ] ~docv:"N" ~doc:"Storm domains.")
      $ victims_arg ~doc:"Domains subject to the fault plan (default: half, at least one)."
      $ seed_arg
      $ Arg.(
          value & opt int 20_000 & info [ "ops" ] ~docv:"N" ~doc:"Enqueue/dequeue pairs per domain.")
      $ park_arg ~default:200
      $ kill_arg
          ~doc:
            "Arm Die instead of Park: victims crash mid-protocol; survivors must still complete.")

(* N-shard k-batch storm on the fault-injectable router build: every
   domain exchanges k-value batches through the router (optionally
   bounded, optionally with victims parking or dying at seed-chosen
   points, batch windows included).  A batch crash strands at most one
   batch of values. *)
let shard_cmd =
  let module R = Shard.Storm in
  let run shards batch threads victims seed ops park bounded kill =
    if threads < 1 || shards < 1 || batch < 1 then
      usage_error "repro shard: need threads >= 1, --shards >= 1, --batch >= 1";
    let victims =
      victims_of ~n:threads ~default:(if kill then max 1 (threads / 2) else 0) victims
    in
    let t = R.create ~shards ?capacity:bounded ~rebalance_every:64 () in
    let plan = plan_of ~seed ~park ~kill in
    Printf.printf
      "Shard storm: %d shards, batch %d, %d domains (%d victims), %d values each%s\n  plan: %s\n%!"
      shards batch threads victims ops
      (match bounded with
      | Some c -> Printf.sprintf ", bounded at %d/shard" c
      | None -> "")
      (Inject.Plan.describe plan);
    let domains =
      Storm.run ~plan ~victims threads (fun d l ->
          let h = R.register t in
          (* one reusable dequeue buffer per domain keeps the hot loop
             allocation-free (a shorter tail batch uses a throwaway) *)
          let buf = Array.make batch (-1) in
          Fun.protect ~finally:(fun () -> R.retire t h) @@ fun () ->
          while l.enqueued < ops do
            let k = min batch (ops - l.enqueued) in
            R.enq_batch t h (Array.init k (fun j -> (d * ops) + l.enqueued + j));
            l.enqueued <- l.enqueued + k;
            let out = if k = batch then buf else Array.make k (-1) in
            let n = R.deq_batch_into t h out ~default:(-1) in
            for j = 0 to n - 1 do
              l.got <- out.(j) :: l.got
            done
          done)
    in
    let hd = R.register t in
    let rec drain acc = match R.dequeue t hd with Some v -> drain (v :: acc) | None -> acc in
    let drained = drain [] in
    R.retire t hd;
    (* Missing-value allowance: only kills that can interrupt a
       dequeue-side window strand values.  A kill inside an enqueue
       (fast/slow/batch/topology enqueue points) fires before the
       victim's ledger advanced past the in-flight batch, so its values
       are optional, never missing.  Counting those kills here would
       let a bounded producer that was refused ([Would_block]) and then
       killed in [Enq_batch_after_faa] hide a genuine dequeue-side
       stranding bug under its allowance. *)
    let kills = (Inject.total_stats ()).Inject.kills in
    let kills_at ps = List.fold_left (fun acc p -> acc + (Inject.stats p).Inject.kills) 0 ps in
    let strand_kills =
      kills
      - kills_at
          (Inject.points_of_class Inject.Enqueue
          @ [ Inject.Enq_batch_after_faa; Inject.Topo_enq_pending ])
    in
    let detail ppf =
      Format.fprintf ppf
        "  %d value(s) drained post-storm (%d dequeue-side kills of %d x batch %d may strand)@."
        (List.length drained) strand_kills kills batch;
      Format.fprintf ppf "@.Per-shard breakdown:@.%a@." R.pp_snapshot_table t
    in
    exit
      (Storm.report ~role:(fun _ -> "batches") ~domains ~detail ~seed ~faults:(victims > 0)
         ~ok:
           (Printf.sprintf "values conserved across %d shards (d-bounded reordering only)."
              shards)
         (Storm.audit ~ops ~in_flight:batch ~allowance:(strand_kills * batch) ~drained domains))
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Sharded-router storm: N shards exchanging k-value FAA batches across domains, with \
          optional bounded capacity and fault injection; verifies value conservation")
    Term.(
      const run
      $ Arg.(value & opt int 4 & info [ "shards" ] ~docv:"S" ~doc:"Router shards.")
      $ Arg.(value & opt int 4 & info [ "batch" ] ~docv:"K" ~doc:"Values per batch operation.")
      $ Arg.(value & opt int 8 & info [ "threads" ] ~docv:"N" ~doc:"Storm domains.")
      $ victims_arg ~doc:"Domains subject to the fault plan (default: half when --kill, else none)."
      $ seed_arg
      $ Arg.(value & opt int 20_000 & info [ "ops" ] ~docv:"N" ~doc:"Values enqueued per domain.")
      $ park_arg ~default:200
      $ Arg.(
          value
          & opt (some int) None
          & info [ "bounded" ] ~docv:"CAP"
              ~doc:"Bound each shard at $(docv) values (backpressure mode).")
      $ kill_arg ~doc:"Arm Die: victim domains crash mid-protocol (batch windows included).")

(* Spike storm on a bounded-memory queue: many producers push through
   a few consumers under a hard segment cap, optionally with victim
   producers parking or dying (the freelist windows included).  The
   allocation counter is monotone (budget reservations are never handed
   back on recycle), so a mid-run sample past the cap is a hard-cap
   violation, and end-of-run [allocated <= cap] certifies the run. *)
type spike_queue = {
  register : unit -> (int -> unit) * (unit -> int) * (unit -> unit);
      (** per-domain enqueue, dequeue-or-minus-one, retire *)
  drain : unit -> int list;
  sample_alloc : unit -> int;  (** 0 when the build has no segment cap *)
  footprint : unit -> string;
  caps : unit -> Storm.violation list;
}

let bounded_cmd =
  let module Q = Wfq.Wfqueue_inject in
  let module S = Baselines.Scq in
  let run queue producers consumers cap ops victims seed park kill =
    if producers < 1 || consumers < 1 then
      usage_error "repro bounded: need at least one producer and one consumer";
    if queue = "wf-bounded" && cap < 6 then
      usage_error "repro bounded: --cap must be >= 6 (max_garbage + 4 at the driver's settings)";
    let victims =
      victims_of ~n:producers ~default:(if kill then max 1 (producers / 2) else 0) victims
    in
    let wf bounded =
      let q =
        if bounded then Q.create ~segment_cap:cap ~max_garbage:(max 2 (min 10 (cap - 4))) ()
        else Q.create ()
      in
      let rec drain acc = match Q.pop q with Some v -> drain (v :: acc) | None -> acc in
      {
        register =
          (fun () ->
            let h = Q.register q in
            ( (fun v -> Q.enqueue q h v),
              (fun () -> Q.dequeue_or q h (-1)),
              fun () -> Q.retire q h ));
        drain = (fun () -> drain []);
        sample_alloc = (fun () -> if bounded then Q.allocated_segments q else 0);
        footprint =
          (fun () ->
            Printf.sprintf "%d segments allocated, %d live + %d pooled%s, %d cap-pressure waits"
              (Q.allocated_segments q) (Q.live_segments q) (Q.pooled_segments q)
              (if bounded then Printf.sprintf " (cap %d)" cap else "")
              (Q.cap_hits q));
        caps =
          (fun () ->
            if not bounded then []
            else
              Storm.cap_within ~what:"segments allocated" ~cap (Q.allocated_segments q)
              @ Storm.cap_within ~what:"live + pooled segments" ~cap
                  (Q.live_segments q + Q.pooled_segments q));
      }
    in
    let scq () =
      (* ring capacity fixed at 2^12 values: bounded by construction,
         in value slots rather than segments *)
      let q = S.create ~order:12 () in
      {
        register =
          (fun () ->
            let h = S.register q in
            ((fun v -> S.enqueue q h v), (fun () -> S.dequeue_or q h (-1)), fun () -> ()));
        drain =
          (fun () ->
            let h = S.register q in
            let rec go acc = match S.dequeue q h with Some v -> go (v :: acc) | None -> acc in
            go []);
        sample_alloc = (fun () -> 0);
        footprint =
          (fun () -> Printf.sprintf "fixed ring of %d value slots (no segments)" (S.capacity q));
        caps = (fun () -> []);
      }
    in
    let sq =
      match queue with
      | "wf-bounded" -> wf true
      | "wf" -> wf false
      | "scq" -> scq ()
      | other ->
        usage_error
          (Printf.sprintf "repro bounded: unknown --queue %s (wf-bounded | wf | scq)" other)
    in
    let plan = plan_of ~seed ~park ~kill in
    Printf.printf
      "Bounded spike storm [%s]: %d producers -> %d consumers, %d values each (%d victims)\n\
      \  plan: %s\n\
       %!"
      queue producers consumers ops victims (Inject.Plan.describe plan);
    let producers_done = Atomic.make 0 in
    let cap_breach = Atomic.make min_int in
    let t0 = Primitives.Clock.now_ns () in
    let domains =
      Storm.run ~plan ~victims (producers + consumers) (fun d l ->
          let enq, deq, retire = sq.register () in
          if d < producers then
            Fun.protect ~finally:(fun () ->
                retire ();
                Atomic.incr producers_done)
            @@ fun () ->
            for i = 0 to ops - 1 do
              enq ((d * ops) + i);
              l.enqueued <- i + 1;
              let a = sq.sample_alloc () in
              if a > cap then Atomic.set cap_breach a
            done
          else
            Fun.protect ~finally:retire @@ fun () ->
            let idle = ref 0 in
            while Atomic.get producers_done < producers || !idle < 100 do
              match deq () with
              | -1 ->
                incr idle;
                Domain.cpu_relax ()
              | v ->
                l.got <- v :: l.got;
                idle := 0
            done)
    in
    let elapsed_s = Int64.to_float (Int64.sub (Primitives.Clock.now_ns ()) t0) /. 1e9 in
    let drained = sq.drain () in
    let kills = (Inject.total_stats ()).Inject.kills in
    let detail ppf =
      let total_enq = Array.fold_left (fun a d -> a + d.Storm.ledger.enqueued) 0 domains in
      let consumed = Array.fold_left (fun a d -> a + List.length d.Storm.ledger.got) 0 domains in
      Format.fprintf ppf "  %d consumed + %d drained in %.2fs (%.3f Mops enq+deq); %s@." consumed
        (List.length drained) elapsed_s
        (float_of_int (total_enq + consumed) /. elapsed_s /. 1e6)
        (sq.footprint ())
    in
    exit
      (Storm.report
         ~role:(fun d -> if d < producers then "producer" else "consumer")
         ~domains ~detail ~seed ~faults:(victims > 0)
         ~ok:(Printf.sprintf "[%s] spike survived (%d kills); values conserved." queue kills)
         (Storm.cap_within ~what:"segments allocated (mid-run sample)" ~cap
            (Atomic.get cap_breach)
         @ sq.caps ()
         @ Storm.audit ~ops ~in_flight:1 ~allowance:kills ~drained domains))
  in
  Cmd.v
    (Cmd.info "bounded"
       ~doc:
         "Bounded-memory spike storm: producers >> consumers with a hard segment cap, with \
          optional fault injection (wf builds); audits the cap and value conservation.  --queue \
          wf-bounded (capped segments), wf (unbounded control), scq (fixed ring)")
    Term.(
      const run
      $ Arg.(
          value
          & opt string "wf-bounded"
          & info [ "queue" ] ~docv:"Q" ~doc:"Queue under storm: wf-bounded, wf, or scq.")
      $ Arg.(value & opt int 6 & info [ "producers" ] ~docv:"N" ~doc:"Producer domains.")
      $ Arg.(value & opt int 2 & info [ "consumers" ] ~docv:"N" ~doc:"Consumer domains.")
      $ Arg.(
          value
          & opt int 12
          & info [ "cap" ] ~docv:"C" ~doc:"Hard segment cap (wf-bounded only).")
      $ Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N" ~doc:"Values per producer.")
      $ victims_arg ~doc:"Producer domains subject to the fault plan (default: half when --kill)."
      $ seed_arg $ park_arg ~default:200
      $ kill_arg ~doc:"Arm Die: victim producers crash mid-protocol.")

(* Role-split storm on the injectable topology variants.  Producers
   and consumers are separate domains laid out to the variant's
   contract (spsc 1p/1c, mpsc (N-1)p/1c, spmc 1p/(N-1)c; adaptive runs
   all-pairs so every domain's first dequeue forces the degrade
   switches).  Victims park or die at the Topology-class points; a
   kill strands at most one value. *)
type topo_ops = { tenq : int -> unit; tdeq_or : int -> int; tfin : unit -> unit }

module Topo_adaptor (Q : sig
  type 'a t
  type 'a handle

  val q : int t
  val register : 'a t -> 'a handle
  val retire : 'a t -> 'a handle -> unit
  val enqueue : 'a t -> 'a handle -> 'a -> unit
  val dequeue_or : 'a t -> 'a handle -> 'a -> 'a
  val snapshot : 'a t -> Obs.Snapshot.t
end) =
struct
  let q = Q.q

  let register () =
    let h = Q.register q in
    { tenq = Q.enqueue q h; tdeq_or = Q.dequeue_or q h; tfin = (fun () -> Q.retire q h) }

  let pp fmt = Obs.Snapshot.pp fmt (Q.snapshot q)
end

let topology_cmd =
  let run variant threads victims seed ops park kill =
    if threads < 2 then usage_error "repro topology: need at least two domains (one per role)";
    (* producer/consumer split per variant; adaptive = all-pairs *)
    let np, nc, pairs =
      match variant with
      | "spsc" -> (1, 1, false)
      | "mpsc" -> (threads - 1, 1, false)
      | "spmc" -> (1, threads - 1, false)
      | "adaptive" -> (threads, 0, true)
      | v ->
        usage_error
          (Printf.sprintf "repro topology: unknown variant %S (spsc|mpsc|spmc|adaptive)" v)
    in
    let threads = np + nc in
    let reg, pp_state =
      match variant with
      | "spsc" ->
        let module A =
          Topo_adaptor (struct
            include Topology.Spsc_inject

            let q = create ()
          end)
        in
        (A.register, A.pp)
      | "mpsc" ->
        let module A =
          Topo_adaptor (struct
            include Topology.Mpsc_inject

            let q = create ()
          end)
        in
        (A.register, A.pp)
      | "spmc" ->
        let module A =
          Topo_adaptor (struct
            include Topology.Spmc_inject

            let q = create ()
          end)
        in
        (A.register, A.pp)
      | _ ->
        let module A =
          Topo_adaptor (struct
            include Topology.Adaptive_inject

            let q = create ()
          end)
        in
        ( A.register,
          fun fmt ->
            Format.fprintf fmt "adaptive backend: %s after %d switch(es)@.%t"
              (Topology.Adaptive_inject.mode A.q)
              (Topology.Adaptive_inject.switches A.q)
              A.pp )
    in
    let victims =
      victims_of ~n:threads ~default:(if kill then max 1 (threads / 2) else 0) victims
    in
    let plan = plan_of ~seed ~park ~kill in
    Printf.printf
      "Topology storm: %s, %d producer(s) + %d consumer(s)%s (%d victims), %d values/producer\n\
      \  plan: %s\n\
       %!"
      variant np nc
      (if pairs then " (all-pairs)" else "")
      victims ops (Inject.Plan.describe plan);
    let producers_live = Atomic.make np in
    let domains =
      Storm.run ~plan ~victims threads (fun d l ->
          let o = reg () in
          let is_producer = d < np in
          Fun.protect ~finally:(fun () ->
              if is_producer then Atomic.decr producers_live;
              o.tfin ())
          @@ fun () ->
          let take v = if v <> min_int then l.got <- v :: l.got in
          if is_producer then
            for i = 0 to ops - 1 do
              o.tenq ((d * ops) + i);
              l.enqueued <- i + 1;
              if pairs then take (o.tdeq_or min_int)
            done
          else
            (* consume until the producers are gone and the queue reads
               empty; wait-freedom bounds each probe, so only a
               genuinely empty queue parks us on cpu_relax *)
            let live = ref true in
            while !live do
              let v = o.tdeq_or min_int in
              if v <> min_int then take v
              else if Atomic.get producers_live = 0 then live := false
              else Domain.cpu_relax ()
            done)
    in
    (* post-storm drain with a fresh handle: every retired consumer
       released its role seat, so the drain can claim it *)
    let o = reg () in
    let rec drain acc =
      match o.tdeq_or min_int with v when v = min_int -> acc | v -> drain (v :: acc)
    in
    let drained = drain [] in
    o.tfin ();
    let kills = (Inject.total_stats ()).Inject.kills in
    let detail ppf =
      Format.fprintf ppf
        "  %d value(s) drained post-storm (%d kill(s): each may strand one)@.@.%t@."
        (List.length drained) kills pp_state
    in
    exit
      (Storm.report
         ~role:(fun d -> if pairs then "pairs" else if d < np then "producer" else "consumer")
         ~domains ~detail ~seed ~faults:(victims > 0)
         ~ok:
           (Printf.sprintf "values conserved under the %s topology (%d kill(s) absorbed)."
              variant kills)
         (Storm.audit ~ops ~in_flight:1 ~allowance:kills ~drained domains))
  in
  Cmd.v
    (Cmd.info "topology"
       ~doc:
         "Role-split storm on a specialized topology variant (or the adaptive queue): \
          producers and consumers laid out per the variant's contract, optional fault \
          injection at the Topology-class protocol points, conservation audited")
    Term.(
      const run
      $ Arg.(
          value
          & opt string "adaptive"
          & info [ "variant" ] ~docv:"V" ~doc:"Variant: spsc, mpsc, spmc or adaptive.")
      $ Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N" ~doc:"Storm domains (>= 2).")
      $ victims_arg ~doc:"Domains subject to the fault plan (default: half when --kill, else none)."
      $ seed_arg
      $ Arg.(
          value & opt int 20_000 & info [ "ops" ] ~docv:"N" ~doc:"Values enqueued per producer.")
      $ park_arg ~default:200
      $ kill_arg ~doc:"Arm Die: victim domains crash mid-protocol.")

(* Fan-out/fan-in storm on the effects-based task scheduler
   (probe+inject build): R root tasks each spawn K subtasks and await
   them all, while under --park / --kill the worker domains stall or
   die at seed-chosen points, the scheduler's own windows (steal
   claim, park, promise-resolve commit) included.  The audit is the
   scheduler's headline guarantee: after [shutdown] every promise is
   resolved — a completed root with the exact fan-in sum, an aborted
   or death-resolved root with an error, none pending. *)
let sched_cmd =
  let module S = Sched.Scheduler_inject in
  let run workers tasks subtasks seed park kill cap =
    if workers < 1 || tasks < 1 || subtasks < 0 then
      usage_error "repro sched: need --workers >= 1, --tasks >= 1, --subtasks >= 0";
    let plan = plan_of ~seed ~park ~kill in
    let faults = kill || park > 0 in
    Printf.printf
      "Scheduler storm: %d workers, %d roots x %d subtasks%s\n  plan: %s\n%!"
      workers tasks subtasks
      (match cap with
      | Some c -> Printf.sprintf ", injector capped at %d segments" c
      | None -> "")
      (if faults then Inject.Plan.describe plan else "none (clean throughput run)");
    let sched = S.create ~workers ?injector_cap:cap () in
    let t0 = Primitives.Clock.now_ns () in
    (* victims are the worker domains: the driver (and its blocking
       submits) stays shielded so the storm tests the scheduler's
       recovery, not the driver's *)
    let roots =
      Storm.armed ?plan:(if faults then Some plan else None) Storm.All_but_driver (fun () ->
          let roots =
            Array.init tasks (fun i ->
                S.async sched (fun () ->
                    let kids = List.init subtasks (fun j -> S.async sched (fun () -> i + j)) in
                    List.fold_left (fun acc k -> acc + S.Promise.await k) 0 kids))
          in
          if kill then begin
            (* lethal mode: workers may die mid-protocol, so settle
               briefly and let shutdown's sweep + promise backstop
               finish the job rather than block on results that may
               need the backstop *)
            let deadline = Int64.add t0 2_000_000_000L in
            while
              Array.exists (fun p -> not (S.Promise.is_resolved p)) roots
              && Primitives.Clock.now_ns () < deadline
            do
              Unix.sleepf 0.001
            done
          end
          else Array.iter (fun p -> ignore (S.Promise.result p)) roots;
          S.shutdown sched;
          roots)
    in
    let elapsed_s = Int64.to_float (Int64.sub (Primitives.Clock.now_ns ()) t0) /. 1e9 in
    let results = Array.map S.Promise.poll roots in
    let detail ppf =
      let count f = Array.fold_left (fun n r -> if f r then n + 1 else n) 0 results in
      let total = tasks * (1 + subtasks) in
      Format.fprintf ppf "  %d roots: %d resolved ok, %d errored, %d pending@." tasks
        (count (function Some (Ok _) -> true | _ -> false))
        (count (function Some (Error _) -> true | _ -> false))
        (count Option.is_none);
      Format.fprintf ppf "  %d tasks through the scheduler in %.3fs (%.3f Mtasks/s)@." total
        elapsed_s
        (float_of_int total /. elapsed_s /. 1e6);
      List.iter
        (fun (o : S.pool_obs) ->
          Format.fprintf ppf
            "  pool %-8s %d workers (%d live, %d died)  %d spawned, %d completed, %d aborted, %d \
             exceptions, %d steals@."
            o.S.name o.workers o.live_workers o.worker_deaths o.tasks_spawned o.tasks_completed
            o.aborted_promises o.task_exceptions o.steals)
        (S.obs sched)
    in
    exit
      (Storm.report ~detail ~seed ~faults
         ~ok:
           ("every promise resolved"
           ^ if kill then " (worker deaths absorbed, nothing stranded)." else ", all sums exact.")
         (Storm.promises
            ~want:(fun i -> (subtasks * i) + (subtasks * (subtasks - 1) / 2))
            ~errors_ok:kill results))
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "Task-scheduler fan-out/fan-in storm: root tasks spawning and awaiting subtasks over \
          the wait-free injector and work-stealing deques, with optional fault injection at the \
          scheduler's own protocol points; verifies that no promise is stranded")
    Term.(
      const run
      $ Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
      $ Arg.(value & opt int 10_000 & info [ "tasks" ] ~docv:"R" ~doc:"Root tasks.")
      $ Arg.(
          value & opt int 4 & info [ "subtasks" ] ~docv:"K" ~doc:"Subtasks spawned per root.")
      $ seed_arg $ park_arg ~default:0
      $ kill_arg
          ~doc:
            "Arm Die: workers crash at seed-chosen points (the scheduler's steal, park and \
             resolve windows included); the audit still requires zero stranded promises."
      $ Arg.(
          value
          & opt (some int) None
          & info [ "cap" ] ~docv:"SEGMENTS"
              ~doc:"Bound the injector at $(docv) segments (backpressure mode)."))

let list_cmd =
  let run () =
    List.iter
      (fun (f : Harness.Queues.factory) ->
        Printf.printf "%-10s %s\n" f.Harness.Queues.name f.Harness.Queues.description)
      Harness.Queues.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available queue implementations") Term.(const run $ const ())

let all_cmd =
  let run quick =
    ignore (Harness.Experiments.table1 ());
    ignore (Harness.Experiments.figure2 ~quick Harness.Workload.Pairs);
    ignore (Harness.Experiments.figure2 ~quick Harness.Workload.Fifty_fifty);
    ignore (Harness.Experiments.table2 ~quick ());
    ignore (Harness.Latency.experiment ());
    ignore (Harness.Experiments.ablation_patience ~quick ());
    ignore (Harness.Experiments.ablation_segment_size ~quick ());
    ignore (Harness.Experiments.ablation_max_garbage ~quick ());
    ignore (Harness.Experiments.ablation_reclamation ~quick ())
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table, figure and ablation in sequence")
    Term.(const run $ quick_arg)

let () =
  let info =
    Cmd.info "repro" ~version:"1.0.0"
      ~doc:
        "Reproduce the evaluation of 'A Wait-free Queue as Fast as Fetch-and-Add' (PPoPP'16): \
         tables, figures and ablations, plus live storm drivers (inject, shard, bounded, \
         topology, sched) for the subsystems built on the queue"
  in
  (* Cmdliner signals CLI parse errors — unknown subcommand included —
     with its own exit 124; scripts expect the conventional usage
     status, so fold it to 2. *)
  let code =
    Cmd.eval
       (Cmd.group info
          [
            table1_cmd;
            fig2_cmd;
            table2_cmd;
            ablation_patience_cmd;
            ablation_segment_cmd;
            ablation_garbage_cmd;
            ablation_reclaim_cmd;
            latency_cmd;
            stats_cmd;
            inject_cmd;
            shard_cmd;
            bounded_cmd;
            topology_cmd;
            sched_cmd;
            list_cmd;
            all_cmd;
          ])
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)

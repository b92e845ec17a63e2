(* Benchmark entry point: regenerates every table and figure of the
   paper (quick methodology) and measures single-threaded per-op cost
   with Bechamel.

     dune exec bench/main.exe -- [--smoke] [--json PATH]

   --smoke       CI-sized run: Bechamel + Figure 2 (pairs) + the
                 false-sharing microbenchmark only, with smaller op
                 counts; skips Table 2, latency, the Power7 panel, the
                 fifty-fifty benchmark and the ablations.
   --json PATH   after running, write the machine-readable results
                 (Bechamel ns/pair, Figure 2 pairs points, false
                 sharing, wait-freedom telemetry, host info) to PATH.
                 PATH is required: the committed BENCH_pr*.json files
                 are historical results, and CI gates its run against
                 BENCH_pr10.json with bin/bench_gate.exe.

   Full-strength runs (the paper's 10-invocation methodology, 10^7
   ops) are available through bin/repro.exe; this executable is sized
   to complete in minutes on the single-core evaluation host.

   One Bechamel test per queue covers the "single core performance"
   discussion of §5.2; the Figure 2 / Table 1 / Table 2 / ablation
   sections print the same rows the paper reports. *)

open Bechamel
open Bechamel.Toolkit

(* ------------------------------------------------------------------ *)
(* CLI                                                                *)

let usage () =
  prerr_endline "usage: bench/main.exe [--smoke] [--json PATH]";
  exit 2

type cli = { smoke : bool; json_path : string option }

let parse_cli () =
  let smoke = ref false in
  let json_path = ref None in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest -> smoke := true; go rest
    | "--json" :: path :: rest when String.length path > 0 && path.[0] <> '-' ->
      json_path := Some path;
      go rest
    | "--json" :: _ ->
      prerr_endline "bench/main.exe: --json needs a PATH";
      usage ()
    | arg :: _ ->
      Printf.eprintf "bench/main.exe: unknown argument %S\n" arg;
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  { smoke = !smoke; json_path = !json_path }

(* ------------------------------------------------------------------ *)
(* Bechamel: single-threaded enqueue-dequeue pair cost per queue      *)

(* The handle is a Bechamel-managed resource: [allocate] registers it
   and [free] releases it, so repeated runs do not leak dead handles
   into the queue's helping ring (a leaked handle is scanned by every
   subsequent slow-path operation, so the leak would skew exactly the
   thing this benchmark measures). *)
let pair_test (f : Harness.Queues.factory) =
  let instance = f.Harness.Queues.make () in
  Test.make_with_resource ~name:f.Harness.Queues.name Test.uniq
    ~allocate:(fun () -> (instance.Harness.Queues.register (), ref 0))
    ~free:(fun ((ops : Harness.Queues.ops), _) -> ops.Harness.Queues.release ())
    (Staged.stage (fun ((ops : Harness.Queues.ops), counter) ->
         incr counter;
         ops.Harness.Queues.enqueue !counter;
         ignore (ops.Harness.Queues.dequeue ())))

let obstruction_free_test =
  let q = Wfq.Obstruction_free.create () in
  let counter = ref 0 in
  Test.make ~name:"obstruction-free"
    (Staged.stage (fun () ->
         incr counter;
         Wfq.Obstruction_free.enqueue q !counter;
         ignore (Wfq.Obstruction_free.dequeue q)))

(* Run the per-queue pair benchmarks; print the table and return the
   OLS estimates (None when a degenerate run yields no usable slope)
   for --json. *)
let run_bechamel ~smoke =
  let tests =
    Test.make_grouped ~name:"pair"
      (obstruction_free_test :: List.map pair_test Harness.Queues.all)
  in
  let quota = if smoke then Time.second 0.25 else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~stabilize:true () in
  let instances = [ Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Harness.Report.create ~header:[ "queue"; "ns/pair (OLS)" ] in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  (* Sort by name only: the OLS value is an abstract Bechamel record,
     and polymorphic compare on it is meaningless (and on degenerate
     runs the estimate can be NaN, which [compare] orders
     arbitrarily). *)
  let by_name (a, _) (b, _) = String.compare a b in
  let estimates =
    List.map
      (fun (name, ols) ->
        (* A degenerate run (too few samples, clock hiccup) can yield a
           NaN, infinite, or negative slope; flag it instead of printing
           a nonsense per-op cost. *)
        let est =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) when Float.is_finite x && x >= 0.0 -> Some x
          | Some _ | None -> None
        in
        let cell =
          match (est, Analyze.OLS.estimates ols) with
          | Some x, _ -> Printf.sprintf "%.1f" x
          | None, Some (x :: _) -> Printf.sprintf "n/a (degenerate: %h)" x
          | None, (Some [] | None) -> "n/a"
        in
        Harness.Report.add_row table [ name; cell ];
        (name, est))
      (List.sort by_name rows)
  in
  Harness.Report.print
    ~title:"Single-core per-operation cost (Bechamel OLS, one enqueue+dequeue pair)" table;
  estimates

(* ------------------------------------------------------------------ *)
(* JSON assembly                                                      *)

let json_of_host () =
  let h = Harness.Platform.host () in
  Harness.Json.Obj
    [
      ("processor", Harness.Json.String h.Harness.Platform.processor);
      ("clock_ghz", Harness.Json.Float h.Harness.Platform.clock_ghz);
      ("processors", Harness.Json.Int h.Harness.Platform.processors);
      ("cores", Harness.Json.Int h.Harness.Platform.cores);
      ("hw_threads", Harness.Json.Int h.Harness.Platform.hw_threads);
      ("native_faa", Harness.Json.Bool h.Harness.Platform.native_faa);
    ]

let json_of_bechamel estimates =
  Harness.Json.List
    (List.map
       (fun (name, est) ->
         Harness.Json.Obj
           [
             ("queue", Harness.Json.String name);
             ( "ns_per_pair",
               match est with Some x -> Harness.Json.Float x | None -> Harness.Json.Null );
           ])
       estimates)

let json_of_fig2 (points : Harness.Experiments.fig2_point list) =
  Harness.Json.List
    (List.map
       (fun (p : Harness.Experiments.fig2_point) ->
         let iv = p.Harness.Experiments.interval in
         Harness.Json.Obj
           [
             ("queue", Harness.Json.String p.Harness.Experiments.queue);
             ("threads", Harness.Json.Int p.Harness.Experiments.threads);
             ("mops_mean", Harness.Json.Float iv.Stats.Student_t.mean);
             ("mops_lower", Harness.Json.Float iv.Stats.Student_t.lower);
             ("mops_upper", Harness.Json.Float iv.Stats.Student_t.upper);
           ])
       points)

let json_of_false_sharing (results : Harness.False_sharing.result list) =
  Harness.Json.List
    (List.map
       (fun (r : Harness.False_sharing.result) ->
         Harness.Json.Obj
           [
             ("domains", Harness.Json.Int r.Harness.False_sharing.domains);
             ("ops_per_domain", Harness.Json.Int r.Harness.False_sharing.ops_per_domain);
             ("padded_mops", Harness.Json.Float r.Harness.False_sharing.padded_mops);
             ("unpadded_mops", Harness.Json.Float r.Harness.False_sharing.unpadded_mops);
             ("speedup", Harness.Json.Float r.Harness.False_sharing.speedup);
           ])
       results)

(* ------------------------------------------------------------------ *)

let () =
  let cli = parse_cli () in
  print_endline "=== Reproduction benchmarks: Yang & Mellor-Crummey, PPoPP'16 ===";
  print_endline
    (if cli.smoke then "(smoke methodology; see bin/repro.exe for the full 10x20 runs)"
     else "(quick methodology; see bin/repro.exe for the full 10x20 runs)");

  (* Table 1 *)
  ignore (Harness.Experiments.table1 ());

  (* §5.2 single-core discussion *)
  let bechamel_estimates = run_bechamel ~smoke:cli.smoke in

  (* Figure 2, both benchmarks (smoke: pairs only) *)
  let threads = [ 1; 2; 4; 8 ] in
  let total_ops = if cli.smoke then 20_000 else 100_000 in
  let _, fig2_pairs =
    Harness.Experiments.figure2_data ~quick:true ~threads ~total_ops Harness.Workload.Pairs
  in
  if not cli.smoke then begin
    ignore
      (Harness.Experiments.figure2 ~quick:true ~threads ~total_ops Harness.Workload.Fifty_fifty);

    (* Figure 2, Power7 panel analogue: FAA emulated with a CAS retry
       loop (the architecture row of Table 1 with "native FAA: no") *)
    let power7_queues =
      List.filter_map Harness.Queues.find [ "wf-10"; "wf-llsc"; "msqueue"; "ccqueue" ]
    in
    ignore
      (Harness.Experiments.figure2 ~quick:true ~threads ~total_ops ~queues:power7_queues
         ~title_note:", Power7 analogue: CAS-emulated FAA" Harness.Workload.Pairs);

    (* Table 2 *)
    ignore (Harness.Experiments.table2 ~quick:true ~threads:[ 4; 8; 16; 32 ] ~total_ops ());

    (* Latency tails: the predictability claim *)
    ignore (Harness.Latency.experiment ~threads:8 ~ops_per_thread:10_000 ())
  end;

  (* False sharing: the layout microbenchmark behind the padded
     counters (DESIGN.md memory-layout section) *)
  let ops_per_domain = if cli.smoke then 500_000 else 2_000_000 in
  let _, fs_results = Harness.False_sharing.experiment ~ops_per_domain () in

  (* Allocations per operation: deterministic single-threaded
     steady-state rows (the regression gate pins every row's words/op;
     see Harness.Alloc_bench for why these, not the noisy concurrent
     telemetry numbers, feed the gate) *)
  print_endline "\n== Allocations per operation (steady state, minor words) ==";
  let alloc_rows =
    Harness.Alloc_bench.default_rows
      ~warmup_pairs:(if cli.smoke then 60_000 else 120_000)
      ~pairs:(if cli.smoke then 20_000 else 50_000)
      ()
  in
  Format.printf "%a@?" Harness.Alloc_bench.pp_rows alloc_rows;

  (* Role-split throughput for the specialized topology variants: each
     against the general queue under the identical producer/consumer
     split (the pairs tables above cannot host them — every pairs
     thread holds both roles, which the specialized contracts reject) *)
  print_endline "\n== Topology-split throughput (role-split domains) ==";
  let topology_rows = Harness.Topology_bench.default_rows ~quick:cli.smoke () in
  Format.printf "%a@?" Harness.Topology_bench.pp_rows topology_rows;

  (* Task-scheduler throughput: fan-out/fan-in over the work-stealing
     deques against the flat all-through-the-injector control, on the
     production build (probes and injection compiled out) *)
  print_endline "\n== Task scheduler (fan-out/fan-in vs flat submission) ==";
  let sched_rows = Harness.Sched_bench.default_rows ~quick:cli.smoke () in
  Format.printf "%a@?" Harness.Sched_bench.pp_rows sched_rows;

  (* Wait-freedom telemetry: the instrumented build's fast/slow-path
     breakdown across patience values (the regression gate reads the
     patience-10 row's slow-path rate from the JSON) *)
  print_endline "\n== Wait-freedom telemetry (instrumented build, 4 threads) ==";
  let telemetry_rows =
    Harness.Telemetry.stats_table ~threads:4
      ~total_ops:(if cli.smoke then 100_000 else 400_000)
      ()
  in
  Format.printf "%a@?" Harness.Telemetry.pp_table telemetry_rows;

  if not cli.smoke then begin
    (* Ablations *)
    ignore (Harness.Experiments.ablation_patience ~quick:true ~threads:4 ~total_ops ());
    ignore (Harness.Experiments.ablation_segment_size ~quick:true ~threads:4 ~total_ops ());
    ignore (Harness.Experiments.ablation_max_garbage ~quick:true ~threads:4 ~total_ops ());
    ignore (Harness.Experiments.ablation_reclamation ~quick:true ~threads:4 ~total_ops ())
  end;

  (match cli.json_path with
  | None -> ()
  | Some path ->
    let doc =
      Harness.Json.Obj
        [
          ("generated_by", Harness.Json.String "bench/main.exe");
          ("mode", Harness.Json.String (if cli.smoke then "smoke" else "quick"));
          ("host", json_of_host ());
          ("bechamel_pair", json_of_bechamel bechamel_estimates);
          ("figure2_pairs", json_of_fig2 fig2_pairs);
          ("false_sharing", json_of_false_sharing fs_results);
          ("alloc_per_op", Harness.Alloc_bench.rows_to_json alloc_rows);
          ("topology_mops", Harness.Topology_bench.rows_to_json topology_rows);
          ("sched_tasks", Harness.Sched_bench.rows_to_json sched_rows);
          ("telemetry", Harness.Telemetry.table_to_json telemetry_rows);
        ]
    in
    Harness.Json.save doc ~path;
    Printf.printf "\nWrote %s\n" path);
  print_endline "\nDone.  EXPERIMENTS.md records paper-vs-measured for each artifact."

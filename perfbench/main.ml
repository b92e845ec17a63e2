(* The repository benchmark: one workload per invocation.

     main.exe --workload pairs|stream|sharded|fanout --seed N
              --seconds S --trace 0|1 [--spans-out FILE]

   [--trace 0] measures the end-to-end metrics with tracing off.
   [--trace 1] is the separate traced run: half the time untraced, half
   traced, in alternating phases (their throughput difference is the
   tracing overhead), and
   the per-layer ladder FAA -> wfq -> shard/topology -> sched.  A layer
   the workload does not exercise is measured by a short traced pass of
   the workload that does (README.md), so every traced run reports the
   whole ladder.  Every phase audits its outputs; any failure makes the
   run exit 1 after printing its result.  The last line of standard
   output is one JSON object. *)

open Common
module Kit = Perfbench_kit

type workload = {
  name : string;
  unit_name : string;
  domains : int;
  setup_once : seed:int -> float;
  phase : seed:int -> seconds:float -> spans:Kit.Spans.t option -> phase;
}

let pairs =
  { name = "pairs"; unit_name = "queue operation"; domains = Pairs.domains; setup_once = Pairs.setup_once; phase = Pairs.phase }

let stream =
  { name = "stream"; unit_name = "delivered value"; domains = 2; setup_once = Flow.Stream.setup_once; phase = Flow.Stream.phase }

let sharded =
  { name = "sharded"; unit_name = "delivered value"; domains = 2; setup_once = Flow.Sharded.setup_once; phase = Flow.Sharded.phase }

let fanout =
  {
    name = "fanout";
    unit_name = "completed task";
    domains = 1 + max 1 (Kit.Host.nproc () - 1);
    setup_once = Fanout.setup_once;
    phase = Fanout.phase;
  }

let workloads = [ pairs; stream; sharded; fanout ]

(* Which workload measures each layer group when it is off the path of
   the workload being traced. *)
let ladder = [ (pairs, [ pairs; stream ]); (sharded, [ sharded ]); (fanout, [ fanout ]) ]
let ladder_seconds = 1.5
let setups_per_trial = 10

let per_layer =
  [
    "primitives.faa_ns"; "wfq.enqueue_ns"; "wfq.enqueue_p99_ns"; "wfq.dequeue_ns"; "wfq.dequeue_p99_ns";
    "wfq.slow_path_rate"; "wfq.dequeue_hit_ratio"; "wfq.segments_allocated"; "wfq.segments_recycled";
    "wfq.segments_reclaimed"; "wfq.cleanup_runs"; "wfq.segments_wasted"; "wfq.depth_max"; "shard.enqueue_ns";
    "shard.enqueue_p99_ns"; "shard.dequeue_ns"; "shard.dequeue_p99_ns"; "shard.dequeue_hit_ratio"; "shard.steals";
    "shard.rebalances"; "topology.segments_allocated"; "topology.segments_recycled"; "sched.async_ns";
    "sched.spawn_ns"; "sched.await_ns"; "sched.queue_delay_p50_ns"; "sched.queue_delay_p99_ns";
    "sched.injector_hit_ratio"; "sched.backlog_max"; "gc.minor_collections"; "gc.major_collections";
    "trace.overhead_frac";
  ]

let json_metrics figs =
  figs
  |> List.map (fun (f : fig) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" f.name f.value f.unit)
  |> String.concat ", "

let print_result ~attempted ~failed figs =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (failed = 0)
    (max 1 attempted) failed (json_metrics figs)

let print_fig ?from (f : fig) =
  Printf.printf "  %-30s %14.6g %-9s%s%s\n" f.name f.value f.unit
    (if f.samples > 0 then Printf.sprintf " (n=%d)" f.samples else "")
    (match from with Some w -> Printf.sprintf " [from the %s pass]" w.name | None -> "")

let check_phase w p =
  if p.failed > 0 then
    Printf.printf "  AUDIT FAILED on %s: %d of %d %ss failed\n" w.name p.failed p.attempted w.unit_name

(* The end-to-end run: [trials] timed trials, each on a fresh stack and
   each preceded by [setups_per_trial] timed set-ups.  A fresh stack
   re-draws what a process fixes once (which core each domain lands on,
   the heap layout), and the host's own speed drifts over seconds, so
   figures are pooled over many short trials spread over the whole run:
   throughput is the total over all trials, the latency percentiles and
   words per unit are medians of the per-trial figures (fresh segments
   are allocated in bursts, so a few trials allocate far more than the
   rest), and set-up time is the median of all set-ups. *)
let trials = 20

let end_to_end w ~seed ~seconds =
  let runs =
    List.init trials (fun i ->
        (* each trial starts from a collected heap, so one trial's
           garbage does not add to the next one's peak memory *)
        Gc.full_major ();
        let setups = List.init setups_per_trial (fun _ -> w.setup_once ~seed) in
        clear_latency ();
        let p = w.phase ~seed:(seed + i) ~seconds:(seconds /. float_of_int trials) ~spans:None in
        (p, latency (), setups))
  in
  let ps = List.map (fun (p, _, _) -> p) runs and lats = List.map (fun (_, l, _) -> l) runs in
  let setups = List.concat_map (fun (_, _, s) -> s) runs in
  List.iter (check_phase w) ps;
  let med_lat f = Kit.Stats.median_float (List.map (fun l -> float_of_int (f l)) lats) in
  let n_lat = List.fold_left (fun a (l : Kit.Stats.summary) -> a + l.n) 0 lats in
  let total f = List.fold_left (fun a p -> a + f p) 0 ps in
  let attempted = total (fun p -> p.attempted) and failed = total (fun p -> p.failed) in
  let words_per_op p = p.minor_words /. float_of_int (max 1 p.attempted) in
  let figs =
    [
      { name = "throughput_mops"; value = throughput_mops ps; unit = "Mop/s"; samples = 0 };
      { name = "latency_p50_ns"; value = med_lat (fun l -> l.p50); unit = "ns"; samples = n_lat };
      { name = "latency_p99_ns"; value = med_lat (p99_exn "latency"); unit = "ns"; samples = n_lat };
      { name = "setup_s"; value = Kit.Stats.median_float setups; unit = "s"; samples = List.length setups };
      { name = "peak_rss_mb"; value = Kit.Host.peak_rss_mb (); unit = "MB"; samples = 0 };
      {
        name = "minor_words_per_op";
        value = Kit.Stats.median_float (List.map words_per_op ps);
        unit = "words/op";
        samples = trials;
      };
    ]
  in
  Printf.printf "end-to-end (unit = %s; %d trials of %.3g s)\n" w.unit_name trials (seconds /. float_of_int trials);
  List.iter print_fig figs;
  Printf.printf "  %-30s %14.6g %-9s (%d failed / %d attempted)\n" "failed_frac"
    (float_of_int failed /. float_of_int (max 1 attempted))
    "ratio" failed attempted;
  List.iteri
    (fun i (p, (l : Kit.Stats.summary), _) ->
      Printf.printf "  trial %d: %.4g Mop/s, latency p50 %d ns, p99 %d ns%s (n=%d), %.4g words/op\n" i
        (throughput_mops [ p ]) l.p50 (p99_exn "latency" l)
        (match l.top with Some (pc, v) when pc > 99. -> Printf.sprintf ", p%g %d ns" pc v | _ -> "")
        l.n (words_per_op p))
    runs;
  print_result ~attempted ~failed figs;
  failed

(* Untraced and traced phases alternate, [rounds] of each, so a slow
   spell of the host or an unlucky placement of the domains on cores
   falls on both kinds alike: with one phase of each, that luck alone
   moved the traced-minus-untraced difference by up to 60%. *)
let rounds = 5

let traced w ~seed ~seconds ~faa ~spans_out =
  let sub = seconds /. float_of_int (2 * rounds) in
  (* every phase starts from a collected heap, as trials do *)
  let phase w ~seed ~seconds ~spans =
    Gc.full_major ();
    let p = w.phase ~seed ~seconds ~spans in
    check_phase w p;
    p
  in
  let sp = Kit.Spans.create () in
  let runs =
    List.init rounds (fun i ->
        let plain = phase w ~seed:(seed + i) ~seconds:sub ~spans:None in
        (plain, phase w ~seed:(seed + i) ~seconds:sub ~spans:(Some sp)))
  in
  let plains = List.map fst runs and trs = List.map snd runs in
  (* The recorder [sp] keeps the spans of every traced phase, so the
     last phase's span figures cover them all; its counter figures are
     its own. *)
  let tr = List.nth trs (rounds - 1) in
  Option.iter (fun path -> Kit.Spans.write_tsv sp ~names:(fun i -> span_names.(i)) path) spans_out;
  let passes =
    List.filter_map
      (fun (by, on_path) ->
        if List.memq w on_path then None
        else Some (by, phase by ~seed ~seconds:ladder_seconds ~spans:(Some (Kit.Spans.create ()))))
      ladder
  in
  let tput_plain = throughput_mops plains and tput_traced = throughput_mops trs in
  let total f = List.fold_left (fun a p -> a + f p) 0 in
  let units = total (fun p -> p.attempted) trs in
  let figs =
    ({ name = "primitives.faa_ns"; value = faa; unit = "ns"; samples = 0 } :: tr.layer)
    @ List.concat_map (fun (_, p) -> p.layer) passes
    @ [
        per_mop "gc.minor_collections" (total (fun p -> p.minor_gcs) trs) ~units;
        per_mop "gc.major_collections" (total (fun p -> p.major_gcs) trs) ~units;
        ratio "trace.overhead_frac" (if tput_plain > 0. then (tput_plain -. tput_traced) /. tput_plain else 0.);
      ]
  in
  let figs = List.filter_map (fun n -> List.find_opt (fun (f : fig) -> f.name = n) figs) per_layer in
  let from f = List.find_map (fun (by, p) -> if List.memq f p.layer then Some by else None) passes in
  Printf.printf "per-layer (traced %s; layers off its path from a %.2g s ladder pass of:%s)\n" w.name ladder_seconds
    (String.concat "" (List.map (fun (by, _) -> " " ^ by.name) passes));
  List.iter (fun f -> print_fig ?from:(from f) f) figs;
  Printf.printf "  throughput untraced %.4g / traced %.4g Mop/s; spans dropped: %d\n" tput_plain tput_traced (Kit.Spans.dropped sp);
  let all = plains @ trs @ List.map snd passes in
  let failed = total (fun p -> p.failed) all and attempted = total (fun p -> p.attempted) all in
  let missing = List.filter (fun n -> not (List.exists (fun (f : fig) -> f.name = n) figs)) per_layer in
  if missing <> [] then begin
    Printf.printf "  missing per-layer metrics: %s\n" (String.concat " " missing);
    exit 1
  end;
  print_result ~attempted ~failed figs;
  failed

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and spans_out = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " pairs | stream | sharded | fanout");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced per-layer run");
      ("--spans-out", Arg.String (fun s -> spans_out := Some s), " file for the traced spans (TSV)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let faa = Kit.Host.faa_ns () in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" w.name !seed !seconds !trace;
  Printf.printf "host: nproc=%d domains=%d ocaml=%s flambda=%b minor_heap_words=%d primitives.faa_ns=%.4g%s\n"
    (Kit.Host.nproc ()) w.domains Sys.ocaml_version Kit.Host.flambda (Gc.get ()).minor_heap_size faa
    (if w.domains > Kit.Host.nproc () then " (OVERSUBSCRIBED: more domains than cores)" else "");
  let failed =
    if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
    else traced w ~seed:!seed ~seconds:!seconds ~faa ~spans_out:!spans_out
  in
  exit (if failed = 0 then 0 else 1)

(* Tests for the benchmark harness: workload math and determinism,
   the runner, the queue registry, report rendering, platform
   detection, and quick-mode smoke runs of the experiment drivers. *)

module WL = Harness.Workload

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Workload                                                           *)

let test_kind_parsing () =
  check Alcotest.bool "pairs" true (WL.kind_of_string "pairs" = Ok WL.Pairs);
  check Alcotest.bool "half" true (WL.kind_of_string "half" = Ok WL.Fifty_fifty);
  check Alcotest.bool "fifty" true (WL.kind_of_string "fifty" = Ok WL.Fifty_fifty);
  check Alcotest.bool "garbage rejected" true (Result.is_error (WL.kind_of_string "nope"));
  check Alcotest.string "roundtrip pairs" "pairs" (WL.kind_to_string WL.Pairs);
  check Alcotest.string "roundtrip half" "half" (WL.kind_to_string WL.Fifty_fifty)

let test_defaults_match_paper () =
  let d = WL.default WL.Pairs in
  check Alcotest.int "10^7 operations" 10_000_000 d.WL.total_ops;
  check Alcotest.bool "50-100ns think time" true (d.WL.work_ns = Some (50, 100))

let test_ops_per_thread () =
  let spec = WL.scaled WL.Pairs ~total_ops:1_000 in
  check Alcotest.int "even split" 250 (WL.ops_per_thread spec ~threads:4);
  (* pairs are whole: 1000/3 = 333 -> 332 (166 pairs) *)
  check Alcotest.int "whole pairs" 332 (WL.ops_per_thread spec ~threads:3);
  let spec = WL.scaled WL.Fifty_fifty ~total_ops:1_000 in
  check Alcotest.int "half split" 333 (WL.ops_per_thread spec ~threads:3)

let counting_ops () =
  let enq = ref 0 and deq = ref 0 in
  ( Harness.Queues.make_ops
      ~enqueue:(fun _ -> incr enq)
      ~dequeue:(fun () ->
        incr deq;
        None)
      ~release:ignore (),
    enq,
    deq )

let test_thread_body_pairs () =
  let spec = { (WL.scaled WL.Pairs ~total_ops:400) with WL.work_ns = None } in
  let ops, enq, deq = counting_ops () in
  let performed = WL.thread_body spec ~thread:0 ops ~threads:2 () in
  check Alcotest.int "performed = share" 200 performed;
  check Alcotest.int "half enqueues" 100 !enq;
  check Alcotest.int "half dequeues" 100 !deq

let test_thread_body_half_deterministic () =
  let spec = { (WL.scaled WL.Fifty_fifty ~total_ops:1_000) with WL.work_ns = None } in
  let run () =
    let ops, enq, _ = counting_ops () in
    let performed = WL.thread_body spec ~thread:3 ops ~threads:2 () in
    (performed, !enq)
  in
  let p1, e1 = run () in
  let p2, e2 = run () in
  check Alcotest.int "same op count" p1 p2;
  check Alcotest.int "same coin flips" e1 e2;
  check Alcotest.int "share" 500 p1;
  (* roughly balanced enqueues *)
  check Alcotest.bool "roughly half enqueues" true (e1 > 200 && e1 < 300)

let test_thread_body_distinct_per_thread () =
  let spec = { (WL.scaled WL.Fifty_fifty ~total_ops:1_000) with WL.work_ns = None } in
  let enqs t =
    let ops, enq, _ = counting_ops () in
    ignore (WL.thread_body spec ~thread:t ops ~threads:2 ());
    !enq
  in
  check Alcotest.bool "different threads different streams" true (enqs 0 <> enqs 1)

(* ------------------------------------------------------------------ *)
(* Queues registry                                                    *)

let test_registry_names_unique () =
  let names = Harness.Queues.names () in
  let sorted = List.sort_uniq compare names in
  check Alcotest.int "no duplicate names" (List.length names) (List.length sorted);
  check Alcotest.bool "has wf-10" true (List.mem "wf-10" names);
  check Alcotest.bool "has wf-0" true (List.mem "wf-0" names);
  check Alcotest.bool "has lcrq" true (List.mem "lcrq" names);
  check Alcotest.bool "has faa" true (List.mem "faa" names)

let test_registry_find () =
  check Alcotest.bool "find wf-10" true (Harness.Queues.find "wf-10" <> None);
  check Alcotest.bool "find nothing" true (Harness.Queues.find "bogus" = None)

let test_each_factory_is_fifo () =
  List.iter
    (fun (f : Harness.Queues.factory) ->
      if f.Harness.Queues.is_real_queue then begin
        let inst = f.Harness.Queues.make () in
        let ops = inst.Harness.Queues.register () in
        ops.Harness.Queues.enqueue 1;
        ops.Harness.Queues.enqueue 2;
        check Alcotest.(option int) (f.Harness.Queues.name ^ " fifo 1") (Some 1)
          (ops.Harness.Queues.dequeue ());
        check Alcotest.(option int) (f.Harness.Queues.name ^ " fifo 2") (Some 2)
          (ops.Harness.Queues.dequeue ());
        check Alcotest.(option int) (f.Harness.Queues.name ^ " empty") None
          (ops.Harness.Queues.dequeue ())
      end)
    Harness.Queues.all

let test_wf_factory_stats () =
  let f = Harness.Queues.wf ~patience:0 () in
  let inst = f.Harness.Queues.make () in
  let ops = inst.Harness.Queues.register () in
  ops.Harness.Queues.enqueue 1;
  ignore (ops.Harness.Queues.dequeue ());
  (match inst.Harness.Queues.snapshot () with
  | Some { Obs.Snapshot.ops = s; _ } ->
    check Alcotest.int "enqueues tracked" 1 (Wfq.Op_stats.total_enqueues s);
    check Alcotest.int "dequeues tracked" 1 (Wfq.Op_stats.total_dequeues s)
  | None -> Alcotest.fail "wf factory must expose stats");
  inst.Harness.Queues.reset_stats ();
  match inst.Harness.Queues.snapshot () with
  | Some { Obs.Snapshot.ops = s; _ } ->
    check Alcotest.int "reset" 0 (Wfq.Op_stats.total_enqueues s)
  | None -> Alcotest.fail "stats gone after reset"

(* ------------------------------------------------------------------ *)
(* Runner                                                             *)

let test_run_once_counts_ops () =
  let f = Harness.Queues.wf ~patience:10 ~segment_shift:6 () in
  let inst = f.Harness.Queues.make () in
  let spec = { (WL.scaled WL.Pairs ~total_ops:8_000) with WL.work_ns = None } in
  let m = Harness.Runner.run_once inst spec ~threads:2 in
  check Alcotest.int "ops performed" 8_000 m.Harness.Runner.ops;
  check Alcotest.bool "positive time" true (m.Harness.Runner.elapsed_s > 0.0);
  check Alcotest.bool "positive throughput" true (m.Harness.Runner.mops > 0.0);
  check Alcotest.int "threads recorded" 2 m.Harness.Runner.threads

let test_run_once_rejects_bad_threads () =
  let f = Harness.Queues.wf () in
  let inst = f.Harness.Queues.make () in
  let spec = WL.scaled WL.Pairs ~total_ops:100 in
  (try
     ignore (Harness.Runner.run_once inst spec ~threads:0);
     Alcotest.fail "accepted 0 threads"
   with Invalid_argument _ -> ());
  try
    ignore (Harness.Runner.run_once inst spec ~threads:10_000);
    Alcotest.fail "accepted 10000 threads"
  with Invalid_argument _ -> ()

let test_injected_work_accounted () =
  let f = Harness.Queues.wf ~segment_shift:6 () in
  let inst = f.Harness.Queues.make () in
  let spec = WL.scaled WL.Pairs ~total_ops:2_000 in
  let m = Harness.Runner.run_once inst spec ~threads:1 in
  (* 2000 ops at mean 75ns = 150us expected think time *)
  check (Alcotest.float 1.0) "expected injected ns" 150_000.0 m.Harness.Runner.injected_ns;
  check Alcotest.bool "excl-work >= raw" true
    (m.Harness.Runner.mops_excl_work >= m.Harness.Runner.mops)

(* ------------------------------------------------------------------ *)
(* Report                                                             *)

let test_report_csv () =
  let t = Harness.Report.create ~header:[ "a"; "b" ] in
  Harness.Report.add_row t [ "1"; "x,y" ];
  Harness.Report.add_row t [ "2"; "has \"quote\"" ];
  let csv = Harness.Report.to_csv t in
  check Alcotest.string "csv escaping" "a,b\n1,\"x,y\"\n2,\"has \"\"quote\"\"\"\n" csv

let test_report_cells () =
  check Alcotest.string "float" "1.500" (Harness.Report.cell_float 1.5);
  let iv = Stats.Student_t.confidence_interval [| 10.0; 10.2; 9.8; 10.0 |] in
  let s = Harness.Report.cell_ci iv in
  check Alcotest.bool "ci cell has plusminus" true (String.length s > 5)

(* ------------------------------------------------------------------ *)
(* Platform                                                           *)

let test_platform_rows () =
  check Alcotest.int "four paper platforms" 4 (List.length Harness.Platform.paper_rows);
  let host = Harness.Platform.host () in
  check Alcotest.bool "host threads >= 1" true (host.Harness.Platform.hw_threads >= 1);
  check Alcotest.bool "host has a name" true (String.length host.Harness.Platform.processor > 0)

(* ------------------------------------------------------------------ *)
(* Plot                                                               *)

let test_plot_render_shape () =
  let out =
    Harness.Plot.render ~width:20 ~height:5 ~x_labels:[ "1"; "2"; "4" ] ~y_label:"y"
      [ { Harness.Plot.label = "a"; points = [| 1.0; 2.0; 3.0 |] } ]
  in
  let lines = String.split_on_char '\n' out in
  (* header + 5 canvas rows + axis + ticks + trailing *)
  check Alcotest.bool "enough lines" true (List.length lines >= 8);
  check Alcotest.bool "has glyph" true (String.contains out '*');
  check Alcotest.bool "max in header" true
    (String.length (List.hd lines) > 0 && String.contains (List.hd lines) '3')

let test_plot_rejects_mismatch () =
  (try
     ignore
       (Harness.Plot.render ~x_labels:[ "1"; "2" ] ~y_label:"y"
          [ { Harness.Plot.label = "a"; points = [| 1.0 |] } ]);
     Alcotest.fail "accepted mismatched series"
   with Invalid_argument _ -> ());
  try
    ignore (Harness.Plot.render ~x_labels:[] ~y_label:"y" []);
    Alcotest.fail "accepted empty x axis"
  with Invalid_argument _ -> ()

let test_plot_single_point () =
  let out =
    Harness.Plot.render ~width:10 ~height:4 ~x_labels:[ "1" ] ~y_label:"y"
      [ { Harness.Plot.label = "a"; points = [| 5.0 |] } ]
  in
  check Alcotest.bool "renders" true (String.contains out '*')

let test_plot_flat_zero_series () =
  (* all-zero data must not divide by zero *)
  let out =
    Harness.Plot.render ~width:10 ~height:4 ~x_labels:[ "1"; "2" ] ~y_label:"y"
      [ { Harness.Plot.label = "a"; points = [| 0.0; 0.0 |] } ]
  in
  check Alcotest.bool "renders" true (String.length out > 0)

(* ------------------------------------------------------------------ *)
(* Latency harness                                                    *)

let test_latency_measure () =
  let f = Harness.Queues.wf ~segment_shift:6 () in
  let p = Harness.Latency.measure f ~threads:2 ~ops_per_thread:2_000 ~kind:WL.Fifty_fifty in
  check Alcotest.int "all samples" 4_000 p.Harness.Latency.samples;
  check Alcotest.bool "percentiles ordered" true
    (p.Harness.Latency.p50_ns <= p.Harness.Latency.p90_ns
    && p.Harness.Latency.p90_ns <= p.Harness.Latency.p99_ns
    && p.Harness.Latency.p99_ns <= p.Harness.Latency.p999_ns
    && p.Harness.Latency.p999_ns <= p.Harness.Latency.max_ns);
  check Alcotest.bool "positive" true (p.Harness.Latency.p50_ns >= 0.0)

let test_latency_experiment_shape () =
  let queues = [ Harness.Queues.wf ~segment_shift:6 () ] in
  let t = Harness.Latency.experiment ~queues ~threads:2 ~ops_per_thread:1_000 () in
  let lines = String.split_on_char '\n' (String.trim (Harness.Report.to_csv t)) in
  check Alcotest.int "1 header + 1 row" 2 (List.length lines)

(* ------------------------------------------------------------------ *)
(* Experiments (quick smoke)                                          *)

let test_table1_shape () =
  let t = Harness.Experiments.table1 () in
  (* header + separator are not rows; 4 paper rows + 1 host row *)
  let csv = Harness.Report.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check Alcotest.int "1 header + 5 rows" 6 (List.length lines)

let test_table2_shape () =
  let t = Harness.Experiments.table2 ~quick:true ~threads:[ 2; 3 ] ~total_ops:20_000 () in
  let lines = String.split_on_char '\n' (String.trim (Harness.Report.to_csv t)) in
  check Alcotest.int "1 header + 2 rows" 3 (List.length lines)

let test_figure2_tiny () =
  let queues = [ Harness.Queues.wf ~patience:10 ~segment_shift:6 () ] in
  let t =
    Harness.Experiments.figure2 ~quick:true ~threads:[ 1; 2 ] ~queues ~total_ops:10_000
      Harness.Workload.Pairs
  in
  let lines = String.split_on_char '\n' (String.trim (Harness.Report.to_csv t)) in
  check Alcotest.int "1 header + 1 queue row" 2 (List.length lines)

(* ------------------------------------------------------------------ *)
(* Json codec                                                         *)

module J = Harness.Json

let roundtrip doc =
  match J.of_string (J.to_string doc) with
  | Ok doc' -> doc'
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)

let test_json_roundtrip_basics () =
  let doc =
    J.Obj
      [
        ("int", J.Int 42);
        ("neg", J.Int (-17));
        ("float", J.Float 1.125);
        ("whole_float", J.Float 3.0);
        ("tiny", J.Float 1.5e-9);
        ("string", J.String "with \"quotes\", back\\slash,\n\ttabs and \x01 control");
        ("null", J.Null);
        ("bools", J.List [ J.Bool true; J.Bool false ]);
        ("empty_list", J.List []);
        ("empty_obj", J.Obj []);
        ("nested", J.Obj [ ("xs", J.List [ J.Int 1; J.Obj [ ("y", J.Float 0.5) ] ]) ]);
      ]
  in
  check Alcotest.bool "structural round-trip" true (J.equal doc (roundtrip doc))

let test_json_whole_floats_stay_floats () =
  (* the regression that motivated the lossless emitter: 3.0 must not
     come back as Int 3 *)
  match roundtrip (J.Float 3.0) with
  | J.Float f -> check (Alcotest.float 0.0) "value" 3.0 f
  | _ -> Alcotest.fail "Float 3.0 reparsed as a non-float"

let test_json_int_stays_int () =
  match roundtrip (J.Int 3) with
  | J.Int 3 -> ()
  | _ -> Alcotest.fail "Int 3 did not survive"

let test_json_float_precision () =
  List.iter
    (fun f ->
      match roundtrip (J.Float f) with
      | J.Float f' -> check Alcotest.bool (string_of_float f) true (f = f')
      | _ -> Alcotest.fail "float became non-float")
    [ 0.1; 1.0 /. 3.0; Float.pi; 1e300; 5e-324; -0.0; 123456.789012345 ]

let test_json_nonfinite_becomes_null () =
  check Alcotest.bool "nan -> null" true (J.equal J.Null (roundtrip (J.Float Float.nan)));
  check Alcotest.bool "inf -> null" true
    (J.equal J.Null (roundtrip (J.Float Float.infinity)))

let test_json_parses_foreign_syntax () =
  (* things our emitter never writes but a hand-edited baseline may *)
  check Alcotest.bool "u-escape" true
    (J.of_string "\"\\u0041\\u00e9\"" = Ok (J.String "A\xc3\xa9"));
  check Alcotest.bool "exponent" true
    (match J.of_string "[1e3, -2.5E-1]" with
    | Ok (J.List [ J.Float a; J.Float b ]) -> a = 1000.0 && b = -0.25
    | _ -> false);
  check Alcotest.bool "compact" true
    (match J.of_string "{\"a\":1,\"b\":[true,null]}" with
    | Ok (J.Obj [ ("a", J.Int 1); ("b", J.List [ J.Bool true; J.Null ]) ]) -> true
    | _ -> false)

let test_json_rejects_garbage () =
  List.iter
    (fun s -> check Alcotest.bool s true (Result.is_error (J.of_string s)))
    [
      ""; "{"; "[1,"; "\"unterminated"; "nul"; "1 2"; "{\"a\" 1}"; "{\"a\":}"; "\"bad \\q\"";
      "[1] trailing";
    ]

let test_json_member_accessors () =
  let doc = J.Obj [ ("a", J.Int 1); ("b", J.Float 2.5) ] in
  check Alcotest.bool "member hit" true (J.member "a" doc = Some (J.Int 1));
  check Alcotest.bool "member miss" true (J.member "z" doc = None);
  check Alcotest.bool "to_float of int" true
    (Option.bind (J.member "a" doc) J.to_float_opt = Some 1.0);
  check Alcotest.bool "to_float of float" true
    (Option.bind (J.member "b" doc) J.to_float_opt = Some 2.5);
  check Alcotest.bool "to_int rejects float" true (J.to_int_opt (J.Float 2.5) = None)

(* Property: emit → parse is the identity on finite documents. *)
let json_arbitrary =
  let open QCheck.Gen in
  let finite_float =
    map
      (fun f -> if Float.is_finite f then f else 0.0)
      (frequency [ (3, float); (1, map float_of_int int) ])
  in
  let scalar =
    frequency
      [
        (1, return J.Null);
        (2, map (fun b -> J.Bool b) bool);
        (4, map (fun i -> J.Int i) int);
        (4, map (fun f -> J.Float f) finite_float);
        (4, map (fun s -> J.String s) (string_size (int_bound 20)));
      ]
  in
  let tree =
    sized
    @@ fix (fun self n ->
           if n <= 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map (fun xs -> J.List xs) (list_size (int_bound 4) (self (n / 2))));
                 ( 1,
                   map
                     (fun kvs -> J.Obj kvs)
                     (list_size (int_bound 4)
                        (pair (string_size (int_bound 8)) (self (n / 2)))) );
               ])
  in
  QCheck.make ~print:(fun t -> J.to_string t) tree

let json_roundtrip_prop =
  QCheck.Test.make ~name:"json roundtrip" ~count:500 json_arbitrary (fun doc ->
      match J.of_string (J.to_string doc) with Ok doc' -> J.equal doc doc' | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Gate                                                               *)

let fig2_point ~queue ~threads ~mean ~lower ~upper =
  J.Obj
    [
      ("queue", J.String queue);
      ("threads", J.Int threads);
      ("mops_mean", J.Float mean);
      ("mops_lower", J.Float lower);
      ("mops_upper", J.Float upper);
    ]

let telemetry_block ~patience ~slow_rate =
  J.List
    [
      J.Obj
        [
          ("patience", J.Int patience);
          ( "run",
            J.Obj
              [ ("snapshot", J.Obj [ ("ops", J.Obj [ ("slow_rate", J.Float slow_rate) ]) ]) ]
          );
        ];
    ]

let bench_doc ?telemetry points =
  J.Obj
    (("figure2_pairs", J.List points)
     ::
     (match telemetry with None -> [] | Some t -> [ ("telemetry", t) ]))

let baseline_doc () =
  bench_doc
    [
      fig2_point ~queue:"wf-10" ~threads:4 ~mean:2.0 ~lower:1.9 ~upper:2.1;
      fig2_point ~queue:"lcrq" ~threads:4 ~mean:1.5 ~lower:1.4 ~upper:1.6;
    ]

let run_gate ~baseline ~current =
  match Harness.Gate.compare_docs ~baseline ~current () with
  | Ok checks -> checks
  | Error e -> Alcotest.fail ("gate errored: " ^ e)

let test_gate_passes_on_identical () =
  let current =
    bench_doc
      ~telemetry:(telemetry_block ~patience:10 ~slow_rate:1e-6)
      [
        fig2_point ~queue:"wf-10" ~threads:4 ~mean:2.0 ~lower:1.9 ~upper:2.1;
        fig2_point ~queue:"lcrq" ~threads:4 ~mean:1.5 ~lower:1.4 ~upper:1.6;
      ]
  in
  let checks = run_gate ~baseline:(baseline_doc ()) ~current in
  check Alcotest.bool "passes" true (Harness.Gate.passed checks);
  (* 2 throughput + 1 slow-rate + 1 alloc skip note (the doc has no
     alloc_per_op section; test_alloc.ml covers the alloc checks) *)
  check Alcotest.int "check count" 4 (List.length checks)

let test_gate_tolerates_noise () =
  (* 3 noise bands with a 10% floor on a 2.0 mean allows ~1.4 *)
  let current =
    bench_doc
      ~telemetry:(telemetry_block ~patience:10 ~slow_rate:0.0)
      [
        fig2_point ~queue:"wf-10" ~threads:4 ~mean:1.5 ~lower:1.45 ~upper:1.55;
        fig2_point ~queue:"lcrq" ~threads:4 ~mean:1.2 ~lower:1.1 ~upper:1.3;
      ]
  in
  check Alcotest.bool "within band passes" true
    (Harness.Gate.passed (run_gate ~baseline:(baseline_doc ()) ~current))

let test_gate_fails_on_injected_regression () =
  (* wf-10 collapses from 2.0 to 0.5 Mops/s: far outside 3 bands *)
  let current =
    bench_doc
      ~telemetry:(telemetry_block ~patience:10 ~slow_rate:1e-6)
      [
        fig2_point ~queue:"wf-10" ~threads:4 ~mean:0.5 ~lower:0.45 ~upper:0.55;
        fig2_point ~queue:"lcrq" ~threads:4 ~mean:1.5 ~lower:1.4 ~upper:1.6;
      ]
  in
  let checks = run_gate ~baseline:(baseline_doc ()) ~current in
  check Alcotest.bool "fails" false (Harness.Gate.passed checks);
  let failed = List.filter (fun c -> not c.Harness.Gate.ok) checks in
  check Alcotest.int "exactly the wf-10 check fails" 1 (List.length failed);
  check Alcotest.bool "names the point" true
    (match failed with [ c ] -> c.Harness.Gate.label = "wf-10 @4T" | _ -> false)

let test_gate_fails_on_missing_queue () =
  let current =
    bench_doc
      ~telemetry:(telemetry_block ~patience:10 ~slow_rate:0.0)
      [ fig2_point ~queue:"wf-10" ~threads:4 ~mean:2.0 ~lower:1.9 ~upper:2.1 ]
  in
  check Alcotest.bool "dropped benchmark fails its gate" false
    (Harness.Gate.passed (run_gate ~baseline:(baseline_doc ()) ~current))

let test_gate_fails_on_slow_path_rate () =
  let current =
    bench_doc
      ~telemetry:(telemetry_block ~patience:10 ~slow_rate:0.05)
      [
        fig2_point ~queue:"wf-10" ~threads:4 ~mean:2.0 ~lower:1.9 ~upper:2.1;
        fig2_point ~queue:"lcrq" ~threads:4 ~mean:1.5 ~lower:1.4 ~upper:1.6;
      ]
  in
  let checks = run_gate ~baseline:(baseline_doc ()) ~current in
  check Alcotest.bool "wait-freedom check fails" false (Harness.Gate.passed checks)

let test_gate_fails_without_telemetry () =
  let current = baseline_doc () in
  check Alcotest.bool "missing telemetry is a failure, not a pass" false
    (Harness.Gate.passed (run_gate ~baseline:(baseline_doc ()) ~current))

let test_gate_structural_error () =
  match Harness.Gate.compare_docs ~baseline:(J.Obj []) ~current:(baseline_doc ()) () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a baseline with no figure2_pairs"

let test_gate_real_bench_doc_roundtrip () =
  (* the gate must accept its own documents after a disk round-trip *)
  let path = Filename.temp_file "bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let doc =
        bench_doc
          ~telemetry:(telemetry_block ~patience:10 ~slow_rate:1e-6)
          [ fig2_point ~queue:"wf-10" ~threads:4 ~mean:2.0 ~lower:1.9 ~upper:2.1 ]
      in
      J.save doc ~path;
      match J.load ~path with
      | Error e -> Alcotest.fail e
      | Ok doc' ->
        check Alcotest.bool "disk round-trip" true (J.equal doc doc');
        check Alcotest.bool "gate passes" true
          (Harness.Gate.passed (run_gate ~baseline:doc ~current:doc')))

(* ------------------------------------------------------------------ *)
(* Telemetry                                                          *)

let test_telemetry_run_counts_and_latency () =
  let f = Harness.Queues.wf_obs ~patience:10 ~segment_shift:6 () in
  let inst = f.Harness.Queues.make () in
  let spec = { (WL.scaled WL.Pairs ~total_ops:4_000) with WL.work_ns = None } in
  let r = Harness.Telemetry.run inst spec ~threads:2 in
  check Alcotest.int "ops" 4_000 r.Harness.Telemetry.ops;
  (match r.Harness.Telemetry.snapshot with
  | None -> Alcotest.fail "wf_obs must produce a snapshot"
  | Some snap ->
    check Alcotest.int "snapshot covers every op" 4_000
      (Obs.Counters.total_ops snap.Obs.Snapshot.ops);
    check Alcotest.bool "probe on" true snap.Obs.Snapshot.probe_enabled);
  let total_samples =
    List.fold_left
      (fun acc cls ->
        acc
        + (Obs.Op_latency.summarize r.Harness.Telemetry.latency cls).Obs.Op_latency.samples)
      0 Obs.Op_latency.classes
  in
  check Alcotest.int "every op timed" 4_000 total_samples

let test_telemetry_stats_table_shape () =
  let rows =
    Harness.Telemetry.stats_table ~patiences:[ 0; 10 ] ~total_ops:2_000 ~threads:2 ()
  in
  check Alcotest.int "one row per patience" 2 (List.length rows);
  List.iter
    (fun (r : Harness.Telemetry.row) ->
      check Alcotest.int "ops performed" 2_000 r.Harness.Telemetry.result.Harness.Telemetry.ops;
      match r.Harness.Telemetry.result.Harness.Telemetry.snapshot with
      | None -> Alcotest.fail "instrumented rows carry snapshots"
      | Some snap ->
        check Alcotest.int "row patience matches queue" r.Harness.Telemetry.patience
          snap.Obs.Snapshot.patience)
    rows;
  (* the table and JSON renderings must not raise *)
  ignore (Format.asprintf "%a" Harness.Telemetry.pp_table rows);
  let json = Harness.Telemetry.table_to_json rows in
  match J.of_string (J.to_string json) with
  | Ok reparsed -> check Alcotest.bool "telemetry json round-trips" true (J.equal json reparsed)
  | Error e -> Alcotest.fail e

let test_telemetry_json_feeds_gate () =
  let rows =
    Harness.Telemetry.stats_table ~patiences:[ 10 ] ~total_ops:2_000 ~threads:2 ()
  in
  let doc = J.Obj [ ("telemetry", Harness.Telemetry.table_to_json rows) ] in
  match Harness.Gate.telemetry_slow_rate ~patience:10 doc with
  | None -> Alcotest.fail "gate cannot read the telemetry block"
  | Some rate -> check Alcotest.bool "rate in [0,1]" true (rate >= 0.0 && rate <= 1.0)

let test_wf_obs_in_registry () =
  check Alcotest.bool "wf-10-obs registered" true
    (Harness.Queues.find "wf-10-obs" <> None)

(* ------------------------------------------------------------------ *)
(* Storm engine: every audit must be able to fail                     *)

module Storm = Harness.Storm

let violations =
  Alcotest.testable
    (Fmt.of_to_string (fun vs -> String.concat "; " (List.map Storm.violation_to_string vs)))
    ( = )

let test_storm_audits_reject_planted () =
  let conserved ?optional ?(allowance = 0) seen =
    Storm.conserved ?optional ~allowance ~definite:[ 1; 2; 3 ] seen
  in
  check violations "clean ledger" [] (conserved [ 3; 1; 2 ]);
  check violations "duplicate, reported once" [ Storm.Duplicate 2 ] (conserved [ 1; 2; 2; 2; 3 ]);
  check violations "alien" [ Storm.Alien 9 ] (conserved [ 1; 9; 2; 3 ]);
  check violations "optional in-flight value is legitimate" []
    (conserved ~optional:[ 9 ] [ 1; 9; 2; 3 ]);
  check violations "missing past the allowance"
    [ Storm.Missing { missing = 2; allowance = 1 } ]
    (conserved ~allowance:1 [ 1 ]);
  check violations "missing within the allowance" [] (conserved ~allowance:2 [ 1 ]);
  check violations "cap exceeded"
    [ Storm.Cap_exceeded { what = "segments"; value = 9; cap = 8 } ]
    (Storm.cap_within ~what:"segments" ~cap:8 9);
  check violations "cap held" [] (Storm.cap_within ~what:"segments" ~cap:8 8);
  let want i = 10 * i in
  check violations "promises settled" []
    (Storm.promises ~want ~errors_ok:false [| Some (Ok 0); Some (Ok 10) |]);
  check violations "stranded promise" [ Storm.Stranded 1 ]
    (Storm.promises ~want ~errors_ok:true [| Some (Ok 0); None |]);
  check violations "wrong fan-in sum"
    [ Storm.Wrong_sum { index = 1; got = 11; want = 10 } ]
    (Storm.promises ~want ~errors_ok:true [| Some (Ok 0); Some (Ok 11) |]);
  check violations "error without a kill" [ Storm.Errored 0 ]
    (Storm.promises ~want ~errors_ok:false [| Some (Error Exit) |]);
  check violations "error under kills" []
    (Storm.promises ~want ~errors_ok:true [| Some (Error Exit) |])

let test_storm_ledger_audit () =
  (* ops = 10: domain d's i-th value is 10d + i; 2 comes back in the drain *)
  let dom index outcome enqueued got =
    { Storm.index; victim = false; outcome; ledger = { Storm.enqueued; got } }
  in
  let killed = Storm.Killed Inject.Deq_fast_after_faa in
  let audit ?(allowance = 0) ds = Storm.audit ~ops:10 ~in_flight:1 ~allowance ~drained:[ 2 ] ds in
  check violations "clean run, killed domain's in-flight value landed" []
    (audit [| dom 0 Storm.Completed 3 [ 0; 1 ]; dom 1 killed 1 [ 10; 11 ] |]);
  check violations "value past a completed domain's ledger is alien" [ Storm.Alien 3 ]
    (audit [| dom 0 Storm.Completed 3 [ 0; 1; 3 ]; dom 1 killed 0 [] |]);
  check violations "a kill strands within its allowance" []
    (audit ~allowance:1 [| dom 0 Storm.Completed 3 [ 0; 1 ]; dom 1 killed 1 [] |]);
  check violations "a crash that is not an injected kill"
    [ Storm.Domain_failed { index = 0; exn = "Not_found" } ]
    (audit [| dom 0 (Storm.Crashed Not_found) 3 [ 0; 1 ] |])

let test_storm_run_gates_victims () =
  (* a lethal plan armed on the first hit of one point: exactly the
     victim dies there, the survivor completes, and nothing stays
     armed afterwards *)
  let plan =
    Inject.Plan.make ~lethal:true ~arm_window:1 ~points:[ Inject.Enq_fast_after_faa ] ~seed:1L ()
  in
  let ds =
    Storm.run ~plan ~victims:1 2 (fun _ _ ->
        for _ = 1 to 4 do
          Inject.Enabled.hit Inject.Enq_fast_after_faa
        done)
  in
  check Alcotest.bool "victim killed at the armed point" true
    (ds.(0).Storm.outcome = Storm.Killed Inject.Enq_fast_after_faa);
  check Alcotest.bool "survivor completed" true (ds.(1).Storm.outcome = Storm.Completed);
  check Alcotest.int "one kill" 1 (Inject.total_stats ()).Inject.kills;
  Inject.reset_stats ();
  Inject.Enabled.hit Inject.Enq_fast_after_faa;
  check Alcotest.int "disarmed on exit" 0 (Inject.total_stats ()).Inject.hits;
  check violations "a raising body is a failed domain"
    [ Storm.Domain_failed { index = 0; exn = Printexc.to_string (Failure "boom") } ]
    (Storm.audit ~ops:1 ~in_flight:0 ~allowance:0 ~drained:[]
       (Storm.run ~victims:0 1 (fun _ _ -> failwith "boom")))

let test_storm_report_verdict () =
  let render vs =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    let code = Storm.report ~ppf ~seed:77 ~faults:false ~ok:"fine" vs in
    Format.pp_print_flush ppf ();
    (code, Buffer.contents buf)
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let code, out = render [] in
  check Alcotest.int "clean exits 0" 0 code;
  check Alcotest.bool "OK line" true (contains out "OK: fine");
  let code, out = render [ Storm.Duplicate 5 ] in
  check Alcotest.int "violation exits 1" 1 code;
  check Alcotest.bool "violation printed" true (contains out "VIOLATION: value 5 dequeued twice");
  check Alcotest.bool "replay line" true (contains out "replay with --seed 77")

let () =
  Alcotest.run "harness"
    [
      ( "workload",
        [
          Alcotest.test_case "kind parsing" `Quick test_kind_parsing;
          Alcotest.test_case "paper defaults" `Quick test_defaults_match_paper;
          Alcotest.test_case "ops per thread" `Quick test_ops_per_thread;
          Alcotest.test_case "pairs body" `Quick test_thread_body_pairs;
          Alcotest.test_case "half deterministic" `Quick test_thread_body_half_deterministic;
          Alcotest.test_case "distinct per thread" `Quick test_thread_body_distinct_per_thread;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names unique" `Quick test_registry_names_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "every factory fifo" `Quick test_each_factory_is_fifo;
          Alcotest.test_case "wf stats" `Quick test_wf_factory_stats;
        ] );
      ( "runner",
        [
          Alcotest.test_case "counts ops" `Quick test_run_once_counts_ops;
          Alcotest.test_case "rejects bad threads" `Quick test_run_once_rejects_bad_threads;
          Alcotest.test_case "injected work" `Quick test_injected_work_accounted;
        ] );
      ( "report",
        [
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "cells" `Quick test_report_cells;
        ] );
      ("platform", [ Alcotest.test_case "rows" `Quick test_platform_rows ]);
      ( "plot",
        [
          Alcotest.test_case "render shape" `Quick test_plot_render_shape;
          Alcotest.test_case "rejects mismatch" `Quick test_plot_rejects_mismatch;
          Alcotest.test_case "single point" `Quick test_plot_single_point;
          Alcotest.test_case "flat zero" `Quick test_plot_flat_zero_series;
        ] );
      ( "latency",
        [
          Alcotest.test_case "measure" `Quick test_latency_measure;
          Alcotest.test_case "experiment shape" `Quick test_latency_experiment_shape;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1" `Quick test_table1_shape;
          Alcotest.test_case "table2" `Quick test_table2_shape;
          Alcotest.test_case "figure2 tiny" `Quick test_figure2_tiny;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip basics" `Quick test_json_roundtrip_basics;
          Alcotest.test_case "whole floats stay floats" `Quick
            test_json_whole_floats_stay_floats;
          Alcotest.test_case "ints stay ints" `Quick test_json_int_stays_int;
          Alcotest.test_case "float precision" `Quick test_json_float_precision;
          Alcotest.test_case "nonfinite to null" `Quick test_json_nonfinite_becomes_null;
          Alcotest.test_case "foreign syntax" `Quick test_json_parses_foreign_syntax;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "accessors" `Quick test_json_member_accessors;
          QCheck_alcotest.to_alcotest json_roundtrip_prop;
        ] );
      ( "gate",
        [
          Alcotest.test_case "passes on identical" `Quick test_gate_passes_on_identical;
          Alcotest.test_case "tolerates noise" `Quick test_gate_tolerates_noise;
          Alcotest.test_case "fails on injected regression" `Quick
            test_gate_fails_on_injected_regression;
          Alcotest.test_case "fails on missing queue" `Quick test_gate_fails_on_missing_queue;
          Alcotest.test_case "fails on slow-path rate" `Quick test_gate_fails_on_slow_path_rate;
          Alcotest.test_case "fails without telemetry" `Quick test_gate_fails_without_telemetry;
          Alcotest.test_case "structural error" `Quick test_gate_structural_error;
          Alcotest.test_case "disk roundtrip" `Quick test_gate_real_bench_doc_roundtrip;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "run counts and latency" `Quick
            test_telemetry_run_counts_and_latency;
          Alcotest.test_case "stats table shape" `Quick test_telemetry_stats_table_shape;
          Alcotest.test_case "json feeds gate" `Quick test_telemetry_json_feeds_gate;
          Alcotest.test_case "wf-obs registered" `Quick test_wf_obs_in_registry;
        ] );
      ( "storm",
        [
          Alcotest.test_case "audits reject planted violations" `Quick
            test_storm_audits_reject_planted;
          Alcotest.test_case "ledger audit of a run" `Quick test_storm_ledger_audit;
          Alcotest.test_case "run gates victims and disarms" `Quick test_storm_run_gates_victims;
          Alcotest.test_case "report verdict and replay line" `Quick test_storm_report_verdict;
        ] );
    ]

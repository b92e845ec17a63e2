(* Tests of the benchmark's own arithmetic: the percentile rule, span
   self times, the output audits and the sample buffer. *)

open Perfbench_kit

let check_int = Alcotest.(check int)

(* {1 Percentiles} *)

let test_percentile_nearest_rank () =
  let a = Array.init 100 (fun i -> i + 1) in
  check_int "p50 of 1..100" 50 (Stats.percentile a 50.);
  check_int "p99 of 1..100" 99 (Stats.percentile a 99.);
  check_int "p100 is the max" 100 (Stats.percentile a 100.);
  check_int "p0 is the min" 1 (Stats.percentile a 0.)

let test_tail_rule () =
  (* p99 of n samples needs at least 10 samples beyond it: n >= 1000 *)
  Alcotest.(check bool) "999 samples do not support p99" false (Stats.supported ~n:999 99.);
  Alcotest.(check bool) "1000 samples support p99" true (Stats.supported ~n:1000 99.);
  Alcotest.(check (option (float 0.))) "1000 -> p99" (Some 99.) (Stats.highest_supported 1000);
  Alcotest.(check (option (float 0.))) "10000 -> p99.9" (Some 99.9) (Stats.highest_supported 10000);
  Alcotest.(check (option (float 0.))) "100 -> p90" (Some 90.) (Stats.highest_supported 100);
  Alcotest.(check (option (float 0.))) "15 -> none" None (Stats.highest_supported 15);
  let s = Stats.summarize (Array.init 500 (fun i -> 500 - i)) in
  check_int "count reported" 500 s.n;
  check_int "p50 over unsorted input" 250 s.p50;
  Alcotest.(check (option int)) "no p99 from 500 samples" None s.p99;
  Alcotest.(check (option (pair (float 0.) int))) "top is p95" (Some (95., 475)) s.top

(* {1 Self time} *)

let span id ~parent ~start ~stop = { Spans.id; sname = 0; sstart = start; sstop = stop; sparent = parent; sreq = 0 }

let self_of l id = List.assoc id (List.map (fun ((s : Spans.span), d) -> (s.id, d)) (Spans.self_times l))

let test_self_time_nested () =
  (* root [0,100] with children [10,30] and [20,50] (overlapping: union
     40) and [90,120] (clipped to 10); child 1 has a grandchild [12,18]
     that counts against child 1 only *)
  let l =
    [
      span 0 ~parent:Spans.none ~start:0 ~stop:100;
      span 1 ~parent:0 ~start:10 ~stop:30;
      span 2 ~parent:0 ~start:20 ~stop:50;
      span 3 ~parent:0 ~start:90 ~stop:120;
      span 4 ~parent:1 ~start:12 ~stop:18;
    ]
  in
  check_int "root self = 100 - (40 + 10)" 50 (self_of l 0);
  check_int "child self = 20 - 6" 14 (self_of l 1);
  check_int "leaf self = duration" 30 (self_of l 2);
  check_int "grandchild self" 6 (self_of l 4)

let test_self_time_disjoint_and_open () =
  let l =
    [
      span 0 ~parent:Spans.none ~start:0 ~stop:100;
      span 1 ~parent:0 ~start:10 ~stop:20;
      span 2 ~parent:0 ~start:40 ~stop:70;
      span 3 ~parent:0 ~start:80 ~stop:(-1) (* never closed: ignored *);
    ]
  in
  check_int "disjoint children" 60 (self_of l 0);
  Alcotest.(check bool) "open span has no self time" false
    (List.exists (fun ((s : Spans.span), _) -> s.id = 3) (Spans.self_times l))

let test_recorder_roundtrip () =
  let t = Spans.create () in
  let root = Spans.open_ t ~name:1 ~parent:Spans.none ~req:7 ~start:100 in
  Spans.record t ~name:2 ~parent:root ~req:7 ~start:110 ~stop:130;
  let d = Domain.spawn (fun () -> Spans.record t ~name:3 ~parent:root ~req:7 ~start:140 ~stop:150) in
  Domain.join d;
  Spans.close t root ~stop:200;
  let l = Spans.spans t in
  check_int "three spans, two domains" 3 (List.length l);
  Alcotest.(check bool) "all share the request id" true (List.for_all (fun (s : Spans.span) -> s.sreq = 7) l);
  check_int "root self excludes both children" 70 (self_of l root)

(* {1 Audits} *)

let stream ~n = List.init n (fun i -> 1000 + i)

let fp_of l =
  let f = Audit.Fp.create () in
  List.iter (Audit.Fp.add f) l;
  f

let fp_failures sent received = Audit.Fp.failures ~sent:(fp_of sent) ~received:(fp_of received)

(* the [stream] audit: strict order plus the fingerprint *)
let fifo_failures sent received =
  let f = Audit.Fifo.create ~first:1000 in
  List.iter (Audit.Fifo.observe f) received;
  f.violations + fp_failures sent received

let lose l k = List.filteri (fun i _ -> i <> k) l
let duplicate l k = List.concat (List.mapi (fun i v -> if i = k then [ v; v ] else [ v ]) l)

let swap l k =
  let a = Array.of_list l in
  let t = a.(k) in
  a.(k) <- a.(k + 1);
  a.(k + 1) <- t;
  Array.to_list a

let test_audits_clean () =
  let s = stream ~n:100 in
  check_int "fifo: clean stream" 0 (fifo_failures s s);
  check_int "fingerprint: clean" 0 (fp_failures s s);
  check_int "fingerprint ignores order" 0 (fp_failures s (List.rev s))

let test_audits_catch_loss () =
  let s = stream ~n:100 in
  Alcotest.(check bool) "fifo catches a lost value" true (fifo_failures s (lose s 40) > 0);
  Alcotest.(check bool) "fifo catches a lost last value" true (fifo_failures s (lose s 99) > 0);
  Alcotest.(check bool) "fingerprint catches a lost value" true (fp_failures s (lose s 40) > 0)

let test_audits_catch_duplicate () =
  let s = stream ~n:100 in
  Alcotest.(check bool) "fifo catches a duplicate" true (fifo_failures s (duplicate s 10) > 0);
  Alcotest.(check bool) "fingerprint catches a duplicate" true (fp_failures s (duplicate s 10) > 0);
  (* a loss hidden by a duplicate keeps the count: the sums still differ *)
  check_int "fingerprint catches a masked loss" 1 (fp_failures s (duplicate (lose s 50) 10))

let test_audits_catch_reorder () =
  let s = stream ~n:100 in
  Alcotest.(check bool) "fifo catches a swap" true (fifo_failures s (swap s 20) > 0);
  (* per-producer order: values of producer 0 seen out of sequence *)
  let o = Audit.Order.create ~producers:2 in
  List.iter (fun (p, q) -> Audit.Order.observe o ~producer:p ~seq:q) [ (0, 1); (1, 1); (0, 2); (1, 2); (0, 4); (0, 3) ];
  check_int "order catches a reordered producer" 1 o.violations;
  let o = Audit.Order.create ~producers:2 in
  List.iter (fun (p, q) -> Audit.Order.observe o ~producer:p ~seq:q) [ (0, 1); (1, 5); (0, 2); (1, 6) ];
  check_int "interleaved producers are fine" 0 o.violations;
  let o = Audit.Order.create ~producers:1 in
  List.iter (fun q -> Audit.Order.observe o ~producer:0 ~seq:q) [ 1; 2; 2 ];
  check_int "order catches a duplicate" 1 o.violations

(* {1 Samples} *)

let test_samples_decimate () =
  let s = Samples.create 8 in
  for i = 0 to 99 do
    Samples.add s i
  done;
  let a = Samples.to_array s in
  Alcotest.(check bool) "bounded" true (Array.length a <= 8 && Array.length a >= 4);
  let stride = a.(1) - a.(0) in
  Alcotest.(check bool) "evenly spaced from the start" true
    (a.(0) = 0 && Array.for_all (fun x -> x mod stride = 0) a);
  Alcotest.(check bool) "spread over the whole run" true (a.(Array.length a - 1) + stride >= 100 - stride)

let test_sampler_unaligned () =
  let s = Sampler.create ~seed:5 ~mean:256 in
  let hits = List.filter (Sampler.hit s) (List.init 1_000_000 Fun.id) in
  let n = List.length hits in
  Alcotest.(check bool) "about one in 256" true (n > 3000 && n < 5000);
  (* a fixed stride of 256 would put every sample on a multiple of 64 *)
  let aligned = List.length (List.filter (fun i -> i mod 64 = 0) hits) in
  Alcotest.(check bool) "not aligned with a period" true (aligned < n / 10)

(* {1 Queue counters} *)

let test_dequeue_hit_ratio () =
  (* the queue counts an EMPTY dequeue as a fast or slow dequeue too:
     8 attempts, 3 of them EMPTY *)
  let c = Obs.Counters.create () in
  c.fast_enqueues <- 9;
  c.slow_enqueues <- 1;
  c.fast_dequeues <- 6;
  c.slow_dequeues <- 2;
  c.empty_dequeues <- 3;
  Alcotest.(check (float 1e-12)) "useful over attempts" (5. /. 8.) (Counts.dequeue_hit_ratio c);
  Alcotest.(check (float 1e-12)) "slow over all ops, empties once" (3. /. 18.) (Obs.Counters.slow_rate c);
  c.fast_dequeues <- 3;
  c.slow_dequeues <- 0;
  Alcotest.(check (float 0.)) "only EMPTY reads 0" 0. (Counts.dequeue_hit_ratio c);
  Alcotest.(check (float 0.)) "no attempts reads 0" 0. (Counts.dequeue_hit_ratio (Obs.Counters.create ()))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_tail_rule;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nested self time" `Quick test_self_time_nested;
          Alcotest.test_case "disjoint and open" `Quick test_self_time_disjoint_and_open;
          Alcotest.test_case "recorder across domains" `Quick test_recorder_roundtrip;
        ] );
      ( "audits",
        [
          Alcotest.test_case "clean" `Quick test_audits_clean;
          Alcotest.test_case "lost value" `Quick test_audits_catch_loss;
          Alcotest.test_case "duplicated value" `Quick test_audits_catch_duplicate;
          Alcotest.test_case "reordered value" `Quick test_audits_catch_reorder;
        ] );
      ( "samples",
        [
          Alcotest.test_case "decimation" `Quick test_samples_decimate;
          Alcotest.test_case "random gaps" `Quick test_sampler_unaligned;
        ] );
      ("counters", [ Alcotest.test_case "dequeue hit ratio" `Quick test_dequeue_hit_ratio ]);
    ]

(* The instrumented queue: the algorithm of [Wfqueue_algo] on hardware
   atomics with the observability probe compiled in, so the event tier
   of [Obs.Counters] (CAS failures, cells skipped, helping) is
   recorded in addition to the path tier.  Same algorithm text as
   [Wfqueue] — only the [Obs.Probe] instantiation differs — so its
   path counters, linearizability, and wait-freedom are the ones the
   test suite checks on the production build.

   Used by the telemetry harness ([Harness.Telemetry], the
   [repro stats] subcommand, and the bench JSON telemetry block); the
   pair-cost delta against [Wfqueue] in BENCH_pr3.json is the measured
   price of the instrumentation (the disabled build pays none of
   it). *)

include Wfqueue_algo.Make (Primitives.Atomic_prims.Real) (Obs.Probe.Enabled) (Inject.Disabled)

exception Would_block = Wfqueue_algo.Would_block

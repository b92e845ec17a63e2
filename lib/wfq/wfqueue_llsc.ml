(* The queue as evaluated on IBM Power7 (paper §3.1, Table 1): the
   architecture lacks native fetch-and-add, so the hot-path FAA is an
   LL/SC-style CAS retry loop.  The resulting queue is lock-free
   rather than wait-free (the retry loop is unbounded), and its
   throughput relative to [Wfqueue] quantifies what native FAA
   buys — the "faa-emulation" ablation in the benchmarks. *)

include Wfqueue_algo.Make (Primitives.Atomic_prims.Emulated_faa) (Obs.Probe.Disabled) (Inject.Disabled)

exception Would_block = Wfqueue_algo.Would_block

(* The production queue: the algorithm of [Wfqueue_algo] running on
   hardware atomics.  See wfqueue.mli for the API and the paper
   mapping; see DESIGN.md for the port notes. *)

include Wfqueue_algo.Make (Primitives.Atomic_prims.Real) (Obs.Probe.Disabled) (Inject.Disabled)

(* Rebinding, not a fresh declaration: every instantiation (and the
   shard router) shares one exception identity, so a single handler
   matches regardless of which build raised. *)
exception Would_block = Wfqueue_algo.Would_block

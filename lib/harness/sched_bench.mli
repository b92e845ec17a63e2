(** Task-scheduler throughput rows: fan-out/fan-in through the
    effects-based scheduler (workers spawning onto their own
    work-stealing deques) against the flat control where the same task
    count is submitted from outside the scheduler and every task
    crosses the shared wait-free injector.  Both run the production
    build — probes and fault injection compiled out — so the rows also
    serve as the bench-gate's evidence that the functorized tiers
    erase. *)

type row = {
  bname : string;  (** workload label *)
  workers : int;
  total_tasks : int;  (** roots + subtasks actually executed *)
  elapsed_s : float;
  mtasks : float;  (** million tasks per second *)
}

val run_fan_out : workers:int -> roots:int -> subtasks:int -> int * float
(** One timed run: [roots] tasks each spawn [subtasks] children and
    await them all; returns (total tasks, elapsed seconds). *)

val run_pool_flat : workers:int -> tasks:int -> int * float
(** One timed run of the flat control: [tasks] external
    [Sched.Scheduler.async] calls, each awaited with
    [Promise.result]. *)

val default_rows : ?quick:bool -> unit -> row list
(** The EXPERIMENTS.md table: fan-out vs flat at 2 and 4 workers
    (quick mode shrinks the task count for CI). *)

val rows_to_json : row list -> Json.t
val pp_rows : Format.formatter -> row list -> unit

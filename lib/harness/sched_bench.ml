(* See sched_bench.mli. *)

type row = {
  bname : string;
  workers : int;
  total_tasks : int;
  elapsed_s : float;
  mtasks : float;
}

(* Fan-out/fan-in through the scheduler: [roots] root tasks each spawn
   [subtasks] children on the worker's own deque and await them all.
   This is the workload the work-stealing tier exists for — spawns run
   LIFO and cache-warm, only imbalance pays a steal — measured on the
   production build ([Sched.Scheduler]: probes and injection compiled
   out). *)
let run_fan_out ~workers ~roots ~subtasks =
  let s = Sched.Scheduler.create ~workers () in
  let t0 = Primitives.Clock.now () in
  let proms =
    List.init roots (fun i ->
        Sched.Scheduler.async s (fun () ->
            let kids =
              List.init subtasks (fun j -> Sched.Scheduler.async s (fun () -> i + j))
            in
            List.fold_left (fun acc k -> acc + Sched.Scheduler.Promise.await k) 0 kids))
  in
  List.iter (fun p -> ignore (Sched.Scheduler.Promise.result p)) proms;
  let elapsed_s = Primitives.Clock.now () -. t0 in
  Sched.Scheduler.shutdown s;
  (roots * (1 + subtasks), elapsed_s)

(* The flat control: the same task count submitted from outside the
   scheduler, so every task crosses the shared injector and no fan-out
   structure feeds the deques.  The gap between this row and the
   fan-out row is the price of routing everything through the global
   queue. *)
let run_pool_flat ~workers ~tasks =
  let s = Sched.Scheduler.create ~workers () in
  let t0 = Primitives.Clock.now () in
  let proms = List.init tasks (fun i -> Sched.Scheduler.async s (fun () -> i)) in
  List.iter (fun p -> ignore (Sched.Scheduler.Promise.result p)) proms;
  let elapsed_s = Primitives.Clock.now () -. t0 in
  Sched.Scheduler.shutdown s;
  (tasks, elapsed_s)

let best ?(reps = 3) f =
  let best_total = ref 0 and best_elapsed = ref infinity in
  for _ = 1 to reps do
    let total, elapsed_s = f () in
    if elapsed_s < !best_elapsed then begin
      best_total := total;
      best_elapsed := elapsed_s
    end
  done;
  (!best_total, !best_elapsed)

let make_row ~bname ~workers ~reps f =
  let total_tasks, elapsed_s = best ~reps f in
  {
    bname;
    workers;
    total_tasks;
    elapsed_s;
    mtasks = float_of_int total_tasks /. elapsed_s /. 1e6;
  }

let default_rows ?(quick = false) () =
  let roots = if quick then 2_000 else 10_000 in
  let subtasks = 4 in
  let reps = if quick then 2 else 3 in
  let flat = roots * (1 + subtasks) in
  List.concat_map
    (fun workers ->
      [
        make_row ~bname:"sched fan-out/fan-in" ~workers ~reps (fun () ->
            run_fan_out ~workers ~roots ~subtasks);
        make_row ~bname:"pool flat submit" ~workers ~reps (fun () ->
            run_pool_flat ~workers ~tasks:flat);
      ])
    [ 2; 4 ]

let row_to_json r =
  Json.Obj
    [
      ("name", Json.String r.bname);
      ("workers", Json.Int r.workers);
      ("total_tasks", Json.Int r.total_tasks);
      ("elapsed_s", Json.Float r.elapsed_s);
      ("mtasks", Json.Float r.mtasks);
    ]

let rows_to_json rows = Json.List (List.map row_to_json rows)

let pp_rows fmt rows =
  let line = String.make 58 '-' in
  Format.fprintf fmt "%s@\n" line;
  Format.fprintf fmt "%-24s %7s %10s %12s@\n" "workload" "workers" "tasks" "Mtasks/s";
  Format.fprintf fmt "%s@\n" line;
  List.iter
    (fun r ->
      Format.fprintf fmt "%-24s %7d %10d %12.3f@\n" r.bname r.workers r.total_tasks r.mtasks)
    rows;
  Format.fprintf fmt "%s@\n" line

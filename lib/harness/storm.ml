(* See storm.mli. *)

type gate = Victims of int | All_but_driver | Only of (unit -> bool)

let sleep_park unit n = Unix.sleepf (float_of_int n *. unit)
let busy_park n = for _ = 1 to n do Domain.cpu_relax () done

(* The storm index of the current domain: set by [run] in each domain
   it spawns, -1 everywhere else (the driver included). *)
let storm_index = Domain.DLS.new_key (fun () -> -1)

let armed ?(park = sleep_park 1e-6) ?plan gate f =
  Inject.reset_stats ();
  Inject.set_park park;
  let admits =
    match gate with
    | Victims k ->
      fun () ->
        let i = Domain.DLS.get storm_index in
        i >= 0 && i < k
    | All_but_driver ->
      let driver = Domain.self () in
      fun () -> Domain.self () <> driver
    | Only p -> p
  in
  Option.iter
    (fun plan ->
      Inject.install (fun p -> if admits () then Inject.Plan.decide plan p else Inject.Continue))
    plan;
  Fun.protect
    ~finally:(fun () ->
      Inject.remove ();
      Inject.set_park busy_park)
    f

type outcome = Completed | Killed of Inject.point | Crashed of exn
type ledger = { mutable enqueued : int; mutable got : int list }
type domain = { index : int; victim : bool; outcome : outcome; ledger : ledger }

let run ?park ?plan ~victims n body =
  let ledgers = Array.init n (fun _ -> { enqueued = 0; got = [] }) in
  let outcomes = Array.make n Completed in
  let plan = if victims > 0 then plan else None in
  armed ?park ?plan (Victims victims) (fun () ->
      let spawn d =
        Domain.spawn (fun () ->
            Domain.DLS.set storm_index d;
            outcomes.(d) <-
              (match body d ledgers.(d) with
              | () -> Completed
              | exception Inject.Killed p -> Killed p
              | exception e -> Crashed e))
      in
      List.iter Domain.join (List.init n spawn));
  Array.init n (fun d ->
      { index = d; victim = d < victims; outcome = outcomes.(d); ledger = ledgers.(d) })

type violation =
  | Duplicate of int
  | Alien of int
  | Missing of { missing : int; allowance : int }
  | Cap_exceeded of { what : string; value : int; cap : int }
  | Stranded of int
  | Wrong_sum of { index : int; got : int; want : int }
  | Errored of int
  | Domain_failed of { index : int; exn : string }

let violation_to_string = function
  | Duplicate v -> Printf.sprintf "value %d dequeued twice" v
  | Alien v -> Printf.sprintf "alien value %d" v
  | Missing { missing; allowance } ->
    Printf.sprintf "%d value(s) missing, more than the %d the faults can strand" missing
      allowance
  | Cap_exceeded { what; value; cap } -> Printf.sprintf "%s %d past cap %d" what value cap
  | Stranded i -> Printf.sprintf "promise %d still pending" i
  | Wrong_sum { index; got; want } ->
    Printf.sprintf "promise %d resolved to %d, expected %d" index got want
  | Errored i -> Printf.sprintf "promise %d errored with no kill armed" i
  | Domain_failed { index; exn } -> Printf.sprintf "domain %d died of %s" index exn

let set_of vs =
  let t = Hashtbl.create (List.length vs + 1) in
  List.iter (fun v -> Hashtbl.replace t v ()) vs;
  t

let conserved ?(optional = []) ~allowance ~definite seen =
  (* one [Duplicate] per value, however many copies surfaced *)
  let rec dups acc = function
    | a :: (b :: _ as tl) ->
      let fresh = match acc with Duplicate x :: _ -> x <> a | _ -> true in
      dups (if a = b && fresh then Duplicate a :: acc else acc) tl
    | _ -> List.rev acc
  in
  let legit = set_of definite in
  List.iter (fun v -> Hashtbl.replace legit v ()) optional;
  let aliens =
    List.filter_map (fun v -> if Hashtbl.mem legit v then None else Some (Alien v)) seen
  in
  let present = set_of seen in
  let missing = List.length (List.filter (fun v -> not (Hashtbl.mem present v)) definite) in
  dups [] (List.sort compare seen)
  @ aliens
  @ if missing > allowance then [ Missing { missing; allowance } ] else []

let cap_within ~what ~cap n = if n > cap then [ Cap_exceeded { what; value = n; cap } ] else []

let promises ~want ~errors_ok results =
  List.concat
    (List.mapi
       (fun i r ->
         match r with
         | None -> [ Stranded i ]
         | Some (Ok s) ->
           if s = want i then [] else [ Wrong_sum { index = i; got = s; want = want i } ]
         | Some (Error _) -> if errors_ok then [] else [ Errored i ])
       (Array.to_list results))

let audit ~ops ~in_flight ~allowance ~drained domains =
  let range lo hi = List.init (max 0 (hi - lo)) (fun k -> lo + k) in
  let per f = List.concat_map f (Array.to_list domains) in
  let failed =
    per (fun d ->
        match d.outcome with
        | Crashed e -> [ Domain_failed { index = d.index; exn = Printexc.to_string e } ]
        | Completed | Killed _ -> [])
  in
  let definite = per (fun d -> range (d.index * ops) ((d.index * ops) + d.ledger.enqueued)) in
  let optional =
    per (fun d ->
        match d.outcome with
        | Killed _ ->
          let next = d.ledger.enqueued in
          range ((d.index * ops) + next) ((d.index * ops) + min ops (next + in_flight))
        | Completed | Crashed _ -> [])
  in
  let seen = drained @ per (fun d -> d.ledger.got) in
  failed @ conserved ~optional ~allowance ~definite seen

let outcome_to_string = function
  | Completed -> "completed"
  | Killed p -> "killed @ " ^ Inject.point_name p
  | Crashed e -> "crashed: " ^ Printexc.to_string e

let report ?(ppf = Format.std_formatter) ?(role = fun _ -> "") ?(domains = [||]) ?detail ~seed
    ~faults ~ok violations =
  flush stdout;
  Format.fprintf ppf "@.";
  Array.iter
    (fun d ->
      Format.fprintf ppf "  domain %2d  %-9s %-6s %-32s %7d enq, %7d deq@." d.index (role d.index)
        (if d.victim then "victim" else "")
        (outcome_to_string d.outcome) d.ledger.enqueued (List.length d.ledger.got))
    domains;
  Option.iter (fun f -> f ppf) detail;
  if faults then Format.fprintf ppf "@.Injected faults:@.%a" Inject.pp_stats ();
  match violations with
  | [] ->
    Format.fprintf ppf "@.OK: %s@." ok;
    0
  | vs ->
    let n = List.length vs in
    Format.fprintf ppf "@.";
    List.iteri
      (fun i v -> if i < 20 then Format.fprintf ppf "VIOLATION: %s@." (violation_to_string v))
      vs;
    if n > 20 then Format.fprintf ppf "... and %d more@." (n - 20);
    Format.fprintf ppf "FAIL: %d violation(s) — replay with --seed %d@." n seed;
    1

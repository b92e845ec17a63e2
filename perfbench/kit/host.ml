(* Facts printed with every result, so numbers from different hosts or
   builds are never compared silently. *)

let nproc () = Domain.recommended_domain_count ()
let flambda = Build_info.flambda

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> failwith "VmHWM not found in /proc/self/status"
  in
  go ()

(* Nanoseconds per uncontended fetch-and-add: the bottom rung of the
   layer ladder and the host normaliser.  Median of 7 timed loops. *)
let faa_ns () =
  let reps = 7 and n = 1 lsl 22 in
  let a = Atomic.make 0 in
  let one () =
    let t0 = Clock.now_ns () in
    for _ = 1 to n do
      ignore (Atomic.fetch_and_add a 1 : int)
    done;
    float_of_int (Clock.now_ns () - t0) /. float_of_int n
  in
  Stats.median_float (List.init reps (fun _ -> one ()))

(* A fixed-size buffer of int samples (latencies in ns) that stays
   representative of a whole run: when it fills up it keeps every other
   sample and from then on records one offered sample in two (then four,
   ...), so the kept samples stay evenly spread over the run however
   long it is.  [add] allocates nothing. *)

type t = { data : int array; mutable n : int; mutable stride : int; mutable offered : int }

let create cap =
  if cap < 2 then invalid_arg "Samples.create: capacity below 2";
  { data = Array.make cap 0; n = 0; stride = 1; offered = 0 }

let clear s =
  s.n <- 0;
  s.stride <- 1;
  s.offered <- 0

let halve s =
  let half = s.n / 2 in
  for i = 0 to half - 1 do
    s.data.(i) <- s.data.(2 * i)
  done;
  s.n <- half;
  s.stride <- 2 * s.stride

let add s v =
  let k = s.offered in
  s.offered <- k + 1;
  if k land (s.stride - 1) = 0 then begin
    if s.n = Array.length s.data then halve s;
    if k land (s.stride - 1) = 0 then begin
      Array.unsafe_set s.data s.n v;
      s.n <- s.n + 1
    end
  end

let to_array s = Array.sub s.data 0 s.n

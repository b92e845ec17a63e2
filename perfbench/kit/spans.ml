(* A span recorder for traced runs.  A span has a name, a start, an end,
   a parent span and a request id; spans of one request share the id.

   Each domain writes to its own preallocated buffer (found through
   domain-local storage), so recording takes no lock and allocates
   nothing once the buffer exists.  A span id is global — buffer index
   times capacity plus slot — so a span opened on one domain can be the
   parent of a span on another, or be closed there (an effect fiber may
   resume on another worker).  Callers sample: they record only some
   requests, and a full buffer drops further spans (counted).  Buffers
   are read only after every recording domain has been joined. *)

let capacity = 1 lsl 16
let max_buffers = 64
let none = -1

type buf = {
  index : int;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  req : int array;
  mutable len : int;
  mutable dropped : int;
}

type t = { bufs : buf option array; key : buf option Domain.DLS.key }

let make_buf index =
  let z () = Array.make capacity 0 in
  { index; name = z (); start = z (); stop = z (); parent = z (); req = z (); len = 0; dropped = 0 }

let create () =
  let bufs = Array.make max_buffers None and next = Atomic.make 0 in
  let key =
    Domain.DLS.new_key (fun () ->
        let i = Atomic.fetch_and_add next 1 in
        if i >= max_buffers then None
        else begin
          let b = make_buf i in
          bufs.(i) <- Some b;
          Some b
        end)
  in
  { bufs; key }

(* The calling domain's buffer ([None] past [max_buffers] domains). *)
let local t = Domain.DLS.get t.key

(* Opens a span starting at [start] and returns its id ([none] when the
   buffer is full).  It stays open (end = -1) until {!close}. *)
let open_ t ~name ~parent ~req ~start =
  match local t with
  | Some b when b.len < capacity ->
    let i = b.len in
    b.len <- i + 1;
    Array.unsafe_set b.name i name;
    Array.unsafe_set b.start i start;
    Array.unsafe_set b.stop i (-1);
    Array.unsafe_set b.parent i parent;
    Array.unsafe_set b.req i req;
    (b.index * capacity) + i
  | Some b ->
    b.dropped <- b.dropped + 1;
    none
  | None -> none

let slot t id =
  match t.bufs.(id / capacity) with Some b -> (b, id mod capacity) | None -> assert false

(* Re-stamps the start of an open span: lets a caller reserve a parent
   id before the interval it times begins. *)
let set_start t id start =
  if id <> none then
    let b, i = slot t id in
    b.start.(i) <- start

let close t id ~stop =
  if id <> none then
    let b, i = slot t id in
    b.stop.(i) <- stop

(* A closed span recorded after the fact. *)
let record t ~name ~parent ~req ~start ~stop =
  let id = open_ t ~name ~parent ~req ~start in
  close t id ~stop

(* {1 Reading, after the recording domains are joined} *)

type span = { id : int; sname : int; sstart : int; sstop : int; sparent : int; sreq : int }

let spans t =
  let acc = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some b ->
        for i = 0 to b.len - 1 do
          acc :=
            {
              id = (b.index * capacity) + i;
              sname = b.name.(i);
              sstart = b.start.(i);
              sstop = b.stop.(i);
              sparent = b.parent.(i);
              sreq = b.req.(i);
            }
            :: !acc
        done)
    t.bufs;
  List.rev !acc

let dropped t =
  Array.fold_left (fun a -> function None -> a | Some b -> a + b.dropped) 0 t.bufs

(* Self time of every closed span: its duration minus the part of its
   interval that its closed child spans cover (the union of the
   children's intervals, clipped to the parent's).  Open spans are
   skipped. *)
let self_times (l : span list) =
  let closed = List.filter (fun s -> s.sstop >= s.sstart) l in
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> if s.sparent <> none then Hashtbl.add kids s.sparent (s.sstart, s.sstop)) closed;
  List.map
    (fun s ->
      let clipped =
        Hashtbl.find_all kids s.id
        |> List.filter_map (fun (a, b) ->
               let a = max a s.sstart and b = min b s.sstop in
               if b > a then Some (a, b) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (cov, reach) (a, b) ->
            let a = max a reach in
            if b > a then (cov + (b - a), b) else (cov, reach))
          (0, min_int) clipped
      in
      (s, s.sstop - s.sstart - covered))
    closed

(* Writes one line per span: id, name, start, end, parent, request. *)
let write_tsv t ~names path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\treq\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" s.id (names s.sname) s.sstart s.sstop s.sparent
        s.sreq)
    (spans t)

(* The traced run's span recorder. Spans are taken from outside the
   program, around calls into each layer's public functions; they stay
   in memory and are written out once, when the run ends.

   Recording is coordinator-only: work fanned out on a pool returns its
   own start/stop times, and the coordinator records them afterwards
   (see [record]). *)

module Timer = Wgrap_util.Timer

type span = {
  id : int;
  parent : int;  (** 0 = top level *)
  name : string;
  start : float;  (** monotonic seconds *)
  stop : float;
}

type t = { mutable spans : span list; mutable next : int; mutable open_ : int list }

let create () = { spans = []; next = 1; open_ = [] }

let current t = match t.open_ with id :: _ -> id | [] -> 0

let record t ?parent ~name ~start ~stop () =
  let id = t.next in
  t.next <- id + 1;
  let parent = Option.value parent ~default:(current t) in
  t.spans <- { id; parent; name; start; stop } :: t.spans;
  id

(* Run [f] inside a span named [name], child of the innermost open one. *)
let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = current t in
  t.open_ <- id :: t.open_;
  let start = Timer.now () in
  let finish () =
    t.open_ <- List.tl t.open_;
    t.spans <- { id; parent; name; start; stop = Timer.now () } :: t.spans
  in
  Fun.protect ~finally:finish f

(* A layer wrapper: the traced run passes one that records a span, the
   plain run one that only calls through. *)
type wrap = { wrap : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { wrap = (fun _ f -> f ()) }

let all t = List.rev t.spans

(* What recording one span costs, in seconds: the mean over 100000 empty
   spans. Times the number of spans a run recorded, this is the tracing
   overhead that run paid. *)
let span_cost () =
  let t = create () and n = 100_000 in
  let t0 = Timer.now () in
  for _ = 1 to n do
    span t "empty" ignore
  done;
  (Timer.now () -. t0) /. float_of_int n

let overhead t = float_of_int (List.length t.spans) *. span_cost ()

(* Summed duration of the spans named [name]. *)
let total t name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. (s.stop -. s.start) else acc)
    0. t.spans

(* Summed duration of the spans whose parent is [parent]. *)
let children_total t ~parent =
  List.fold_left
    (fun acc s -> if s.parent = parent then acc +. (s.stop -. s.start) else acc)
    0. t.spans

(* One JSON object per span, in start order, times relative to the
   earliest span. *)
let write t path =
  let spans = List.sort (fun a b -> Float.compare a.start b.start) (all t) in
  let origin = match spans with s :: _ -> s.start | [] -> 0. in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": %.9f, \"dur_s\": %.9f}\n"
            s.id s.parent s.name (s.start -. origin) (s.stop -. s.start))
        spans)

(* Output checks that do not trust the solver: every figure is worked
   out again here from the raw inputs — the topic vectors, group size,
   workload cap and conflicts the benchmark itself generated or loaded —
   with the paper's formula written out in this file rather than called
   from the library. *)

type problem = {
  papers : float array array;  (** raw paper topic vectors *)
  reviewers : float array array;  (** raw reviewer topic vectors *)
  delta_p : int;
  delta_r : int;
  coi : (int * int) list;  (** conflicted (paper, reviewer) pairs *)
}

let ( let* ) = Result.bind

let conflicts pb =
  let t = Hashtbl.create (max 16 (List.length pb.coi)) in
  List.iter (fun (p, r) -> Hashtbl.replace t (p, r) ()) pb.coi;
  t

(* c(g, p) = sum_t min(max_{r in g} r[t], p[t]) / sum_t p[t]. *)
let paper_coverage pb ~paper group =
  let p = pb.papers.(paper) in
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun t w ->
      let best =
        List.fold_left (fun m r -> Float.max m pb.reviewers.(r).(t)) 0. group
      in
      num := !num +. Float.min best w;
      den := !den +. w)
    p;
  if !den > 0. then !num /. !den else 0.

let coverages pb groups = Array.mapi (fun p g -> paper_coverage pb ~paper:p g) groups

(* Full feasibility: exactly delta_p distinct in-range reviewers per
   paper, no reviewer above delta_r, no conflicted pair. [exact:false]
   accepts groups shorter than delta_p (a live service may hold a short
   group while it waits for capacity). *)
let validity ?(exact = true) pb groups =
  let n_r = Array.length pb.reviewers in
  let load = Array.make n_r 0 in
  let coi = conflicts pb in
  let rec each p =
    if p >= Array.length groups then Ok ()
    else
      let g = groups.(p) in
      let size = List.length g in
      let distinct = List.length (List.sort_uniq Int.compare g) in
      if size <> distinct then Error (Printf.sprintf "paper %d: duplicate reviewer" p)
      else if exact && size <> pb.delta_p then
        Error (Printf.sprintf "paper %d: %d reviewers, want %d" p size pb.delta_p)
      else if size > pb.delta_p then
        Error (Printf.sprintf "paper %d: %d reviewers, cap %d" p size pb.delta_p)
      else
        match List.find_opt (fun r -> r < 0 || r >= n_r) g with
        | Some r -> Error (Printf.sprintf "paper %d: reviewer %d out of range" p r)
        | None -> (
            match List.find_opt (fun r -> Hashtbl.mem coi (p, r)) g with
            | Some r -> Error (Printf.sprintf "paper %d: conflicted reviewer %d" p r)
            | None ->
                List.iter (fun r -> load.(r) <- load.(r) + 1) g;
                each (p + 1))
  in
  let* () = each 0 in
  let over = ref None in
  Array.iteri
    (fun r l -> if l > pb.delta_r && Option.is_none !over then over := Some (r, l))
    load;
  match !over with
  | Some (r, l) ->
      Error (Printf.sprintf "reviewer %d: %d papers, cap %d" r l pb.delta_r)
  | None -> Ok ()

(* Every per-paper figure the program reported must equal ours to
   [tol]. *)
let agree ?(tol = 1e-9) ~what ~ours ~reported () =
  if Array.length ours <> Array.length reported then
    Error
      (Printf.sprintf "%s: %d figures reported for %d papers" what
         (Array.length reported) (Array.length ours))
  else
    let bad = ref None in
    Array.iteri
      (fun p c ->
        let d = Float.abs (c -. reported.(p)) in
        if (Float.is_nan d || d > tol) && Option.is_none !bad then bad := Some p)
      ours;
    match !bad with
    | Some p ->
        Error
          (Printf.sprintf "%s: paper %d reported %.12g, recomputed %.12g" what p
             reported.(p) ours.(p))
    | None -> Ok ()

(* The coverage each paper would get from the whole committee minus its
   conflicts: no assignment can beat it. Papers without conflicts share
   one topic-wise maximum over all reviewers. *)
let committee_bound pb =
  let dim = if Array.length pb.papers = 0 then 0 else Array.length pb.papers.(0) in
  let all = Array.make dim 0. in
  Array.iter (fun v -> Array.iteri (fun t w -> all.(t) <- Float.max all.(t) w) v) pb.reviewers;
  let coi = conflicts pb in
  let conflicted = Hashtbl.create 16 in
  List.iter (fun (p, _) -> Hashtbl.replace conflicted p ()) pb.coi;
  let bound ~paper best =
    let p = pb.papers.(paper) in
    let num = ref 0. and den = ref 0. in
    Array.iteri
      (fun t w ->
        num := !num +. Float.min best.(t) w;
        den := !den +. w)
      p;
    if !den > 0. then !num /. !den else 0.
  in
  Array.mapi
    (fun paper _ ->
      if not (Hashtbl.mem conflicted paper) then bound ~paper all
      else
        let best = Array.make dim 0. in
        Array.iteri
          (fun r v ->
            if not (Hashtbl.mem coi (paper, r)) then
              Array.iteri (fun t w -> best.(t) <- Float.max best.(t) w) v)
          pb.reviewers;
        bound ~paper best)
    pb.papers

let within_bound ?(tol = 1e-12) ~ours ~bound () =
  let bad = ref None in
  Array.iteri
    (fun p c -> if c > bound.(p) +. tol && Option.is_none !bad then bad := Some p)
    ours;
  match !bad with
  | Some p ->
      Error
        (Printf.sprintf "paper %d: coverage %.12g beats its whole committee's %.12g"
           p ours.(p) bound.(p))
  | None -> Ok ()

(* The batch check: valid, every reported per-paper figure equal to the
   recomputed one, none above the committee bound. Returns the
   recomputed per-paper coverage. *)
let assignment ?exact pb ~reported groups =
  let* () = validity ?exact pb groups in
  let ours = coverages pb groups in
  let* () = agree ~what:"coverage" ~ours ~reported () in
  let* () = within_bound ~ours ~bound:(committee_bound pb) () in
  Ok ours

let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)
let minimum xs = Array.fold_left Float.min Float.infinity xs

(* serve-stream: the online service. One closed-loop client sends a
   stream of reviewer-join, paper-add, coi-add, bid-update,
   paper-withdraw and query events through Server.handle_line with the
   durable journal (fsync on) and the shipped configuration (50 ms event
   budget, a snapshot every 64 entries). The stream is cut in two halves
   with a restart between them; set-up is the recovery at that restart
   (Server.load_state, what `wgrap serve --resume` pays before its first
   event). *)

module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
module Event = Wgrap_serve.Event
module State = Wgrap_serve.State
module Durable = Wgrap_serve.Durable
module Server = Wgrap_serve.Server

let dim = 16
let n_reviewers = 60
let delta_p = 3
let delta_r = 120
let warmup_papers = 30
let blocks = 105
let recoveries = 51
let config = Server.default ~dim ~delta_p ~delta_r

(* {1 The stream and the benchmark's own model of it} *)

type model = {
  reviewers : float array array;
  papers : (int, float array) Hashtbl.t;  (** live papers *)
  withdrawn : (int, unit) Hashtbl.t;
  coi : (int * int, unit) Hashtbl.t;
}

type stream = {
  lines : string array;
  mutation : bool array;
  model : model;
  half : int;  (** lines before the restart *)
}

(* Every event is valid when it is sent, whatever the service answered
   before: bids and conflicts only name live papers and never a
   conflicted pair, withdrawn papers are never named again, ids never
   repeat, and capacity (60 x 120 slots) stays far above the live
   papers' demand. Each block of ten events after the warm-up holds six
   paper-adds and one each of coi-add, bid-update, paper-withdraw and
   query, in a seeded order, so every seed sends the same mix. *)
let generate ~seed =
  let rng = Rng.create seed in
  let vec () = Array.init dim (fun _ -> 0.05 +. Rng.uniform rng) in
  let m =
    {
      reviewers = Array.init n_reviewers (fun _ -> vec ());
      papers = Hashtbl.create 1024;
      withdrawn = Hashtbl.create 128;
      coi = Hashtbl.create 256;
    }
  in
  let live = ref [||] in
  let next_paper = ref 0 and next_id = ref 0 and out = ref [] in
  let emit ~mutation fmt =
    Printf.ksprintf
      (fun body ->
        incr next_id;
        out := (Printf.sprintf "%d %s" !next_id body, mutation) :: !out)
      fmt
  in
  let pick_live () = !live.(Rng.int rng (Array.length !live)) in
  let free_reviewer p =
    let rec go () =
      let r = Rng.int rng n_reviewers in
      if Hashtbl.mem m.coi (p, r) then go () else r
    in
    go ()
  in
  Array.iteri
    (fun r v -> emit ~mutation:true "reviewer-join %d %s" r (Event.encode_vec v))
    m.reviewers;
  let add () =
    let p = !next_paper in
    incr next_paper;
    let v = vec () in
    Hashtbl.replace m.papers p v;
    live := Array.append !live [| p |];
    emit ~mutation:true "paper-add %d %s" p (Event.encode_vec v)
  in
  for _ = 1 to warmup_papers do
    add ()
  done;
  for _ = 1 to blocks do
    let kinds = [| `Add; `Add; `Add; `Add; `Add; `Add; `Coi; `Bid; `Withdraw; `Query |] in
    Rng.shuffle rng kinds;
    Array.iter
      (function
        | `Add -> add ()
        | `Coi ->
            let p = pick_live () in
            let r = free_reviewer p in
            Hashtbl.replace m.coi (p, r) ();
            emit ~mutation:true "coi-add %d %d" p r
        | `Bid ->
            let p = pick_live () in
            let r = free_reviewer p in
            emit ~mutation:true "bid-update %d %d %.3f" p r (2. *. Rng.uniform rng)
        | `Withdraw ->
            let p = pick_live () in
            Hashtbl.remove m.papers p;
            Hashtbl.replace m.withdrawn p ();
            live := Array.of_list (List.filter (fun x -> x <> p) (Array.to_list !live));
            emit ~mutation:true "paper-withdraw %d" p
        | `Query -> emit ~mutation:false "query %d" (pick_live ()))
      kinds
  done;
  let all = Array.of_list (List.rev !out) in
  let mutation = Array.map snd all in
  (* The restart falls after half of the mutations, not half of the
     lines: where the queries fall depends on the seed, and with a
     snapshot every 64 journal entries the number of entries recovery
     replays would follow it. *)
  let mutations = Array.fold_left (fun n m -> if m then n + 1 else n) 0 mutation in
  let rec cut i seen =
    if seen = (mutations + 1) / 2 then i
    else cut (i + 1) (if mutation.(i) then seen + 1 else seen)
  in
  { lines = Array.map fst all; mutation; model = m; half = cut 0 0 }

(* The stream as the line protocol `wgrap serve` reads on stdin. *)
let write_events ~seed path =
  let s = generate ~seed in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Array.iter (fun l -> output_string oc (l ^ "\n")) s.lines)

(* {1 Checks} *)

let starts_with pre s =
  String.length s >= String.length pre && String.equal (String.sub s 0 (String.length pre)) pre

(* The final state against the benchmark's model: the live paper set,
   withdrawn papers gone, every group within delta_p, delta_r and the
   conflicts the stream sent, each query score equal to the coverage
   recomputed from the vectors the stream sent, and no paper above its
   committee bound. Returns the recomputed per-paper coverage. *)
let check_state m st =
  let ids = List.sort Int.compare (Hashtbl.fold (fun p _ acc -> p :: acc) m.papers []) in
  if State.n_papers st <> List.length ids then
    Emit.fail "service holds %d papers, the stream left %d live" (State.n_papers st)
      (List.length ids);
  Hashtbl.iter
    (fun p () ->
      if Option.is_some (State.group st p) then Emit.fail "withdrawn paper %d still has a group" p)
    m.withdrawn;
  let ids = Array.of_list ids in
  let answers =
    Array.map
      (fun p ->
        match State.query st p with
        | Some a -> a
        | None -> Emit.fail "live paper %d unknown to the service" p)
      ids
  in
  let pb =
    {
      Check.papers = Array.map (Hashtbl.find m.papers) ids;
      reviewers = m.reviewers;
      delta_p;
      delta_r;
      coi =
        (let row = Hashtbl.create (Array.length ids) in
         Array.iteri (fun i p -> Hashtbl.replace row p i) ids;
         Hashtbl.fold
           (fun (p, r) () acc ->
             match Hashtbl.find_opt row p with Some i -> (i, r) :: acc | None -> acc)
           m.coi []);
    }
  in
  Emit.ok "serve final state"
    (Check.assignment ~exact:false pb
       ~reported:(Array.map (fun a -> a.State.score) answers)
       (Array.map (fun a -> a.State.group) answers))

(* {1 Driving the stream} *)

type tally = {
  mutable ok : int;
  mutable failed : int;
  mutable acks : float list;  (** per-mutation request-to-ack ms *)
}

let new_tally () = { ok = 0; failed = 0; acks = [] }

let drive ~handle tally s ~from ~upto =
  for i = from to upto - 1 do
    let t0 = Timer.now () in
    let resp = handle s.lines.(i) in
    let ms = 1000. *. (Timer.now () -. t0) in
    if starts_with "ok " resp then begin
      tally.ok <- tally.ok + 1;
      if s.mutation.(i) then tally.acks <- ms :: tally.acks
    end
    else begin
      tally.failed <- tally.failed + 1;
      Printf.eprintf "serve-stream: %S -> %S\n%!" s.lines.(i) resp
    end
  done

let open_durable dir = Emit.ok "journal open" (Durable.open_ ~dir)

(* Recover the state directory [recoveries] times (recovery reads and
   never writes); every recovered state must equal the live one. *)
let recover ~dir ~live_crc =
  let times = ref [] and st = ref None in
  for _ = 1 to recoveries do
    let (s, _notes), dt = Timer.time (fun () -> Emit.ok "recovery" (Server.load_state config ~dir)) in
    if not (String.equal (State.crc s) live_crc) then
      Emit.fail "recovered state crc %s differs from the live %s" (State.crc s) live_crc;
    times := dt :: !times;
    st := Some s
  done;
  (Option.get !st, Probe.median (Array.of_list !times))

let fresh_dir work name =
  let dir = Filename.concat work name in
  if Sys.file_exists dir then Emit.fail "state directory %s already exists" dir;
  dir

(* One whole stream through Server.handle_line: first half, restart,
   second half, then verification. *)
type round = {
  tally : tally;
  recover_s : float;  (** median recovery at the restart *)
  stream_s : float;  (** both halves, recovery excluded *)
  cpu : float;  (** CPU seconds over the stream *)
  covs : float array;  (** recomputed per-paper coverage at the end *)
}

let run_plain s ~dir =
  let tally = new_tally () in
  let half = s.half in
  let d1 = open_durable dir in
  let srv = Emit.ok "server" (Server.create ~durable:d1 config) in
  let c0 = Probe.cpu_s () in
  let (), first = Timer.time (fun () -> drive ~handle:(Server.handle_line srv) tally s ~from:0 ~upto:half) in
  let cpu1 = Probe.cpu_s () -. c0 in
  Durable.close d1;
  let st, recover_s = recover ~dir ~live_crc:(State.crc (Server.state srv)) in
  let d2 = open_durable dir in
  let srv = Server.of_state ~durable:d2 config st in
  let c1 = Probe.cpu_s () in
  let (), second =
    Timer.time (fun () ->
        drive ~handle:(Server.handle_line srv) tally s ~from:half ~upto:(Array.length s.lines))
  in
  let cpu = cpu1 +. Probe.cpu_s () -. c1 in
  Durable.close d2;
  ignore (Emit.ok "Server.verify" (Server.verify config ~dir) : string);
  let covs = check_state s.model (Server.state srv) in
  { tally; recover_s; stream_s = first +. second; cpu; covs }

let plain ~seed ~seconds ~work =
  let s = generate ~seed in
  let rounds = ref [] and spent = ref 0. and k = ref 0 and peak = ref 0. in
  while !spent < seconds || !rounds = [] do
    incr k;
    Gc.compact ();
    let r = run_plain s ~dir:(fresh_dir work (Printf.sprintf "state-%d" !k)) in
    (* the peak of one stream, as a service process holds it *)
    if !k = 1 then peak := Probe.peak_rss_mb ();
    spent := !spent +. r.stream_s;
    let acks = Array.of_list r.tally.acks in
    if Probe.beyond acks 0.99 < 10 then
      Emit.fail "only %d of %d ack samples lie beyond p99" (Probe.beyond acks 0.99)
        (Array.length acks);
    rounds := r :: !rounds
  done;
  let med f = Probe.median (Array.of_list (List.map f !rounds)) in
  let acks r = Array.of_list r.tally.acks in
  {
    Emit.attempted = List.length !rounds * Array.length s.lines;
    failed = List.fold_left (fun n r -> n + r.tally.failed) 0 !rounds;
    metrics =
      [
        ("setup_s", med (fun r -> r.recover_s));
        ("solve_s", med (fun r -> r.stream_s));
        ("events_per_s", med (fun r -> float_of_int r.tally.ok /. r.stream_s));
        ("ack_p50_ms", med (fun r -> Probe.median (acks r)));
        ("ack_p99_ms", med (fun r -> Probe.percentile (acks r) 0.99));
        ("cpu_s", med (fun r -> r.cpu));
        ("coverage_mean", med (fun r -> Check.mean r.covs));
        ("coverage_min", med (fun r -> Check.minimum r.covs));
        ("peak_rss_mb", !peak);
      ];
  }

(* {1 The traced run} *)

(* Server.handle_line's mutation path rebuilt from public functions —
   parse, validate, plan under the event budget, journal append
   (fsynced), commit, snapshot on cadence — with a span around each. *)
type traced_server = {
  sp : Spans.t;
  st : State.t;
  d : Durable.t;
  mutable since_snapshot : int;
  mutable plans : (bool * float) list;  (** (paper-add, ms) *)
  mutable plan_mw : float;
  mutable degraded : int;
}

let traced_handle t raw =
  let layer name f = Spans.span t.sp name f in
  match layer "serve.parse" (fun () -> Event.parse ~dim raw) with
  | Error m -> "err " ^ m
  | Ok { Event.request = Event.Read (Event.Query p); id } -> (
      match layer "serve.query" (fun () -> State.query t.st p) with
      | Some _ -> Printf.sprintf "ok %d" id
      | None -> Printf.sprintf "err %d unknown paper" id)
  | Ok { Event.request = Event.Read _; id } -> Printf.sprintf "err %d unexpected read" id
  | Ok { Event.request = Event.Mutate req; id } -> (
      if id <= State.last_client t.st then Printf.sprintf "err %d id not increasing" id
      else
        match State.validate_req t.st req with
        | Error m -> Printf.sprintf "err %d %s" id m
        | Ok () -> (
            let deadline = Option.map Timer.deadline config.Server.event_budget in
            let (planned, d), ms =
              let t0 = Timer.now () in
              let x = layer "serve.plan" (fun () -> Probe.measure (fun () -> State.plan ?deadline t.st req)) in
              (x, 1000. *. (Timer.now () -. t0))
            in
            t.plan_mw <- t.plan_mw +. d.Probe.alloc_mw;
            let is_add = match req with Event.Paper_add _ -> true | _ -> false in
            t.plans <- (is_add, ms) :: t.plans;
            if planned.State.reasons <> [] then t.degraded <- t.degraded + 1;
            let seq = State.applied t.st + 1 in
            let entry = Event.Client { seq; id; req; ops = planned.State.ops } in
            match
              layer "persist.append" (fun () -> Durable.append t.d (Event.encode_entry entry))
            with
            | Error m -> Printf.sprintf "err %d %s" id m
            | Ok () -> (
                match layer "serve.commit" (fun () -> State.commit t.st entry) with
                | Error m -> Emit.fail "commit of journaled entry %d failed: %s" seq m
                | Ok () ->
                    t.since_snapshot <- t.since_snapshot + 1;
                    if t.since_snapshot >= config.Server.snapshot_every then begin
                      Emit.ok "snapshot"
                        (layer "persist.snapshot" (fun () -> Durable.snapshot t.d (State.encode t.st)));
                      t.since_snapshot <- 0
                    end;
                    Printf.sprintf "ok %d seq=%d" id seq)))

let durations sp name =
  Array.of_list
    (List.filter_map
       (fun s ->
         if String.equal s.Spans.name name then Some (1000. *. (s.Spans.stop -. s.Spans.start))
         else None)
       (Spans.all sp))

(* The traced run: the untraced stream once (the reference time), then
   the same stream through [traced_handle] in a second state directory,
   with the same restart and recovery in the middle. *)
let traced ~seed ~work ~spans =
  let s = generate ~seed in
  let reference = run_plain s ~dir:(fresh_dir work "state-plain") in
  let untraced = reference.stream_s in
  let dir = fresh_dir work "state-traced" in
  let sp = Spans.create () in
  let tally = new_tally () in
  let half = s.half in
  let mk st d =
    { sp; st; d; since_snapshot = 0; plans = []; plan_mw = 0.; degraded = 0 }
  in
  let t1 = mk (Emit.ok "state" (State.create ~dim ~delta_p ~delta_r ())) (open_durable dir) in
  Gc.compact ();
  let e0 = Timer.now () in
  drive ~handle:(traced_handle t1) tally s ~from:0 ~upto:half;
  let first = Timer.now () -. e0 in
  Durable.close t1.d;
  let journal_kb =
    float_of_int (Unix.stat (Durable.journal_path dir)).Unix.st_size /. 1024.
  in
  let snap_seq =
    match (Durable.load ~dir).Durable.snapshot with
    | None -> 0
    | Some img -> State.applied (Emit.ok "snapshot decode" (State.decode img))
  in
  let st, recover_s = recover ~dir ~live_crc:(State.crc t1.st) in
  let replayed = State.applied st - snap_seq in
  let t2 = mk st (open_durable dir) in
  let e1 = Timer.now () in
  drive ~handle:(traced_handle t2) tally s ~from:half ~upto:(Array.length s.lines);
  let e2e = first +. (Timer.now () -. e1) in
  Durable.close t2.d;
  ignore (Emit.ok "Server.verify" (Server.verify config ~dir) : string);
  ignore (check_state s.model t2.st : float array);
  if tally.failed > 0 then Emit.fail "%d events refused on the traced path" tally.failed;
  Spans.write sp spans;
  let plans = t1.plans @ t2.plans in
  let plan_ms = Array.of_list (List.map snd plans) in
  let add_ms = Array.of_list (List.filter_map (fun (a, ms) -> if a then Some ms else None) plans) in
  let append_ms = durations sp "persist.append" in
  let snapshot_ms = durations sp "persist.snapshot" in
  {
    Emit.attempted = 2 * Array.length s.lines;
    failed = reference.tally.failed;
    metrics =
      [
        ("serve.parse_us", 1000. *. Probe.median (durations sp "serve.parse"));
        ("serve.commit_ms", Probe.median (durations sp "serve.commit"));
        ("serve.plan_p50_ms", Probe.median plan_ms);
        ("serve.plan_p99_ms", Probe.percentile plan_ms 0.99);
        ("serve.plan_paper_add_ms", Probe.median add_ms);
        ("serve.plan_alloc_mw", t1.plan_mw +. t2.plan_mw);
        ("serve.plan_degraded", float_of_int (t1.degraded + t2.degraded));
        ("persist.append_p50_ms", Probe.median append_ms);
        ("persist.append_p99_ms", Probe.percentile append_ms 0.99);
        ("persist.snapshot_ms", if Array.length snapshot_ms = 0 then 0. else Probe.median snapshot_ms);
        ("persist.snapshots", float_of_int (Array.length snapshot_ms));
        ("persist.journal_kb", journal_kb);
        ("persist.recover_s", recover_s);
        ("persist.replayed", float_of_int replayed);
        ("trace.e2e_s", e2e);
        ("trace.untraced_s", untraced);
        ("trace.overhead_s", Spans.overhead sp);
        ("trace.residual_s", e2e -. Spans.children_total sp ~parent:0);
      ];
  }

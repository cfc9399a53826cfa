(* sharded-50k: the scale-out path. 50k reviewers x 300 papers x 500
   topics shaped like the xl preset (Zipf 1.1 topic skew), solved by
   Shard.Supervisor with 16 candidates per paper, 4 shards, 2 jobs and
   the default configuration (refinement on, 2 boundary rounds, no
   checkpoint directory). Set-up is the instance build over the
   generated vectors. *)

open Wgrap
module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
module Pool = Wgrap_par.Pool
module Synthetic = Dataset.Synthetic
module Supervisor = Shard.Supervisor
module Partition = Shard.Partition
module Merge = Shard.Merge

let preset = { Synthetic.xl_preset with Synthetic.preset_name = "sharded-50k"; n_papers = 300 }
let candidates = 16
let shards = 4
let jobs = 2

let problem_of inst =
  {
    Check.papers = inst.Instance.papers;
    reviewers = inst.Instance.reviewers;
    delta_p = inst.Instance.delta_p;
    delta_r = inst.Instance.delta_r;
    coi = Instance.coi_pairs inst;
  }

(* The input vectors, generated from the seed; the instance the
   generator builds around them is dropped — set-up builds its own. *)
let inputs ~seed =
  let g = Synthetic.instance_of_preset ~seed preset in
  (g.Instance.papers, g.Instance.reviewers)

let build (papers, reviewers) =
  Instance.create_exn ~papers ~reviewers ~delta_p:preset.Synthetic.delta_p
    ~delta_r:preset.Synthetic.delta_r ()

let ctx ~seed = Solver.Ctx.make ~seed ~candidates ~jobs ()

let check_provenance inst prov =
  let part = Partition.make ~shards inst in
  let n = part.Partition.shards in
  if List.length prov <> n then
    Emit.fail "%d provenance records for %d shards" (List.length prov) n;
  List.iteri
    (fun i (p : Summary.shard_provenance) ->
      if p.Summary.shard <> i then Emit.fail "provenance %d names shard %d" i p.Summary.shard;
      if p.Summary.shard_papers <> Array.length part.Partition.papers.(i) then
        Emit.fail "shard %d: provenance counts %d papers, partition has %d" i
          p.Summary.shard_papers (Array.length part.Partition.papers.(i));
      if p.Summary.attempts <> 1 then
        Emit.fail "shard %d took %d attempts" i p.Summary.attempts;
      match p.Summary.shard_status with
      | Summary.Shard_complete -> ()
      | _ ->
          Emit.fail "shard %d not complete: %s" i
            (Format.asprintf "%a" Summary.pp_shard_provenance p))
    prov;
  if List.fold_left (fun n p -> n + p.Summary.shard_papers) 0 prov <> Instance.n_papers inst
  then Emit.fail "provenance does not cover every paper"

let solve ~seed inst =
  match Supervisor.solve ~ctx:(ctx ~seed) ~shards inst with
  | Solver.Complete a, prov -> (a, prov)
  | Solver.Degraded (_, rs), _ ->
      Emit.fail "sharded solve degraded without a budget: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" Solver.pp_reason) rs))
  | Solver.Infeasible m, _ -> Emit.fail "sharded solve infeasible: %s" m

let check inst pb a =
  let reported =
    Array.init (Instance.n_papers inst) (fun p -> Assignment.paper_score inst a p)
  in
  Emit.ok "sharded-50k assignment" (Check.assignment pb ~reported a.Assignment.groups)

(* A round is one set-up and one solve on the instance it built, as in a
   `wgrap assign --shards` process. OCaml 5.1 never returns heap memory,
   and the solve's GC work depends on how big the heap already is, so
   extra rounds would not measure what a user's process pays: a run
   does one round (more only when --seconds asks for them), reads the
   peak RSS after it, and then builds the instance [setups - 1] more
   times for the set-up median. *)
let setups = 5

let plain ~seed ~seconds =
  let vectors = inputs ~seed in
  let setups_s = ref [] and solves = ref [] and cpus = ref [] in
  let first = ref None and covs = ref [||] and peak = ref 0. and n_papers = ref 0 in
  let spent = ref 0. and k = ref 0 in
  while !spent < seconds || !k = 0 do
    Gc.compact ();
    let inst, d = Probe.measure (fun () -> build vectors) in
    Gc.compact ();
    let (a, prov), e = Probe.measure (fun () -> solve ~seed inst) in
    spent := !spent +. d.Probe.wall_s +. e.Probe.wall_s;
    setups_s := d.Probe.wall_s :: !setups_s;
    solves := e.Probe.wall_s :: !solves;
    cpus := e.Probe.cpu_s :: !cpus;
    check_provenance inst prov;
    covs := check inst (problem_of inst) a;
    n_papers := Instance.n_papers inst;
    (match !first with
    | None ->
        first := Some a;
        peak := Probe.peak_rss_mb ()
    | Some a0 ->
        if not (Assignment.equal a0 a) then
          Emit.fail "the sharded solve gave two different assignments for one input");
    incr k
  done;
  for _ = !k + 1 to setups do
    Gc.compact ();
    let _inst, d = Probe.measure (fun () -> build vectors) in
    setups_s := d.Probe.wall_s :: !setups_s
  done;
  let solve_s = Probe.median (Array.of_list !solves) in
  {
    Emit.attempted = List.length !setups_s + !k;
    failed = 0;
    metrics =
      [
        ("setup_s", Probe.median (Array.of_list !setups_s));
        ("solve_s", solve_s);
        ("events_per_s", float_of_int !n_papers /. solve_s);
        ("ack_p50_ms", 1000. *. solve_s);
        ("ack_p99_ms", 1000. *. solve_s);
        ("cpu_s", Probe.median (Array.of_list !cpus));
        ("coverage_mean", Check.mean !covs);
        ("coverage_min", Check.minimum !covs);
        ("peak_rss_mb", !peak);
      ];
  }

(* What one shard task hands back: its assignment, the monotonic times
   around its sub-instance build and its solve, and its gain matrix's
   row storage. Workers record nothing shared; the coordinator turns
   these into spans afterwards. *)
type shard_run = {
  result : Assignment.t;
  t_start : float;
  t_built : float;
  t_solved : float;
  bytes : int;
}

(* The traced run: Supervisor.solve's path (partition, per-shard
   sub-instance and Solver.sdga_sra on the pool, merge, boundary SRA)
   rebuilt from the layers' public functions with the supervisor's own
   random streams, then compared against an untraced Supervisor.solve. *)
let traced ~seed ~spans =
  let vectors = inputs ~seed in
  Gc.compact ();
  let sp = Spans.create () in
  let layer name f = Spans.span sp name f in
  let heap0 = (Gc.stat ()).Gc.live_words in
  let t0 = Timer.now () in
  let inst = layer "core.instance" (fun () -> build vectors) in
  let instance_s = Timer.now () -. t0 in
  Gc.full_major ();
  let heap_mb =
    float_of_int ((Gc.stat ()).Gc.live_words - heap0) *. 8. /. 1048576.
  in
  let pb = problem_of inst in
  let coverage = Objective.coverage in
  Gc.compact ();
  let s0 = Timer.now () in
  let part = layer "shard.partition" (fun () -> Partition.make ~shards inst) in
  let n = part.Partition.shards in
  (* the supervisor's streams: solve, backoff, boundary, in that order *)
  let base = Rng.create seed in
  let solve_streams = Rng.split base n in
  let _backoff_streams = Rng.split base n in
  let boundary_rng = (Rng.split base 1).(0) in
  let pool = Pool.create ~jobs in
  let f0 = Timer.now () in
  let runs =
    Pool.run pool ~n (fun s ->
        let t_start = Timer.now () in
        let sub = Partition.sub_instance inst part s in
        let t_built = Timer.now () in
        let gains =
          Gain_matrix.create ~candidates (Objective.view (Objective.bind coverage sub))
        in
        let sctx =
          {
            Solver.Ctx.default with
            Solver.Ctx.rng = Some (Rng.of_words (Rng.words solve_streams.(s)));
            gains = Some gains;
            candidates;
            objective = coverage;
          }
        in
        let result = Solver.sdga_sra ~ctx:sctx sub in
        let t_solved = Timer.now () in
        (match Assignment.validate sub result with
        | Ok () -> ()
        | Error m -> failwith (Printf.sprintf "shard %d invalid: %s" s m));
        { result; t_start; t_built; t_solved; bytes = Gain_matrix.matrix_bytes gains })
  in
  let f1 = Timer.now () in
  let fan = Spans.record sp ~name:"shard.fanout" ~start:f0 ~stop:f1 () in
  Array.iter
    (fun r ->
      ignore
        (Spans.record sp ~parent:fan ~name:"shard.sub_instance" ~start:r.t_start
           ~stop:r.t_built ());
      ignore
        (Spans.record sp ~parent:fan ~name:"shard.solve" ~start:r.t_built
           ~stop:r.t_solved ()))
    runs;
  let merged, trimmed =
    layer "shard.merge" (fun () ->
        Emit.ok "merge" (Merge.merge inst part (Array.map (fun r -> r.result) runs)))
  in
  let boundary_mw = ref 0. and boundary_bytes = ref 0 in
  let final =
    layer "shard.boundary" (fun () ->
        let x, d =
          Probe.measure (fun () ->
              let gm = Gain_matrix.create ~candidates inst in
              layer "shard.boundary_prime" (fun () -> Gain_matrix.prime gm);
              let a =
                Sra.refine
                  ~params:{ Sra.default_params with Sra.max_rounds = 2 }
                  ~ctx:
                    {
                      Solver.Ctx.default with
                      Solver.Ctx.rng = Some boundary_rng;
                      gains = Some gm;
                      candidates;
                      objective = coverage;
                    }
                  inst merged
              in
              boundary_bytes := Gain_matrix.matrix_bytes gm;
              a)
        in
        boundary_mw := d.Probe.alloc_mw;
        x)
  in
  layer "core.validate" (fun () -> Emit.ok "validate" (Assignment.validate inst final));
  let solve_traced = Timer.now () -. s0 in
  let e2e = instance_s +. solve_traced in
  let covs = check inst pb final in
  let merged_covs = Check.coverages pb merged.Assignment.groups in
  Gc.compact ();
  let (reference, prov), untraced = Timer.time (fun () -> solve ~seed inst) in
  check_provenance inst prov;
  let ref_covs = check inst pb reference in
  let sum = Array.fold_left ( +. ) 0. in
  Spans.write sp spans;
  let shard_solve = Array.map (fun r -> r.t_solved -. r.t_built) runs in
  let fanout_s = f1 -. f0 in
  {
    Emit.attempted = 2;
    failed = 0;
    metrics =
      [
        ("core.instance_s", instance_s);
        ("core.instance_heap_mb", heap_mb);
        ("core.gain_bytes",
          float_of_int (Array.fold_left (fun n r -> n + r.bytes) !boundary_bytes runs));
        ("core.validate_s", Spans.total sp "core.validate");
        ("shard.partition_s", Spans.total sp "shard.partition");
        ("shard.sub_instance_s", Spans.total sp "shard.sub_instance");
        ("shard.solve_s", sum shard_solve);
        ("shard.solve_max_s", Array.fold_left Float.max 0. shard_solve);
        ("shard.fanout_s", fanout_s);
        ("par.efficiency", sum shard_solve /. (float_of_int jobs *. fanout_s));
        ("shard.merge_s", Spans.total sp "shard.merge");
        ("shard.trimmed_pairs", float_of_int trimmed);
        ("shard.boundary_prime_s", Spans.total sp "shard.boundary_prime");
        ("shard.boundary_s", Spans.total sp "shard.boundary");
        ("shard.boundary_alloc_mw", !boundary_mw);
        ("shard.boundary_gain", (sum covs -. sum merged_covs) /. float_of_int (Array.length covs));
        ("trace.e2e_s", e2e);
        ("trace.untraced_s", untraced);
        ("trace.overhead_s", Spans.overhead sp);
        ("trace.residual_s", e2e -. Spans.children_total sp ~parent:0);
        ("trace.same_assignment", if Assignment.equal final reference then 1. else 0.);
        ("trace.coverage_diff", Float.abs (sum covs -. sum ref_covs));
      ];
  }

(* conf-db08: a program chair's batch run on the paper's DB08
   conference. A Table 3-scale synthetic corpus is written to TSV; set-up
   loads it back, extracts topic vectors (ATM training + EM inference)
   and builds the instance; the solve is Solver.cra's primary link (SDGA
   + SRA on one dense gain matrix) with the coverage objective, one job
   and no budget, SRA capped at 60 rounds (see [chain]). *)

open Wgrap
module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
module Synthetic = Dataset.Synthetic
module Loader = Dataset.Loader
module Pipeline = Dataset.Pipeline
module Datasets = Dataset.Datasets

let delta_p = 3

let spec =
  match Datasets.find "DB08" with
  | Some s -> s
  | None -> failwith "conf-db08: dataset DB08 is not defined"

(* The input: a synthetic corpus at Table 3 scale, generated from the
   seed and written as the two TSV files a user would bring. *)
let write_inputs ~seed ~work =
  let corpus, _ = Synthetic.generate ~rng:(Rng.create seed) () in
  let authors_path = Filename.concat work "authors.tsv"
  and papers_path = Filename.concat work "papers.tsv" in
  Loader.save corpus ~authors_path ~papers_path;
  (authors_path, papers_path)

type built = { inst : Instance.t; problem : Check.problem }

(* Set-up as a user pays it: load the TSV corpus, extract topic vectors,
   build the instance. [layer] wraps each step (the traced run times
   them; the plain run passes the identity). *)
let setup ~(layer : Spans.wrap) ~seed (authors_path, papers_path) =
  let corpus =
    layer.wrap "dataset.load" (fun () ->
        Emit.ok "corpus load" (Loader.load ~authors_path ~papers_path))
  in
  let extracted =
    layer.wrap "topics.extract" (fun () ->
        let submissions = Datasets.submissions corpus spec in
        let committee = Datasets.committee corpus spec in
        Pipeline.extract ~rng:(Rng.create seed) ~corpus ~submissions ~committee ())
  in
  layer.wrap "core.instance" (fun () ->
      let clean, _quarantined = Pipeline.sanitize extracted in
      let n_p = Array.length clean.Pipeline.paper_vectors
      and n_r = Array.length clean.Pipeline.reviewer_vectors in
      let delta_r = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p in
      let coi = Pipeline.coi_pairs corpus clean in
      let inst = Pipeline.instance ~coi clean ~delta_p ~delta_r in
      {
        inst;
        problem =
          {
            Check.papers = clean.Pipeline.paper_vectors;
            reviewers = clean.Pipeline.reviewer_vectors;
            delta_p;
            delta_r;
            coi;
          };
      })

(* The solve. Solver.cra's primary link with the coverage objective,
   one job and no budget, called through the layers' public functions so
   the traced run can wrap each call: one dense gain matrix (primed:
   score matrix and Eq. 9 column sums), SDGA on it, SRA on it, then
   validation.

   One change from Solver.cra: SRA is capped at [sra_rounds]. Its own
   stopping rule (omega = 10 rounds without improvement) makes a DB08
   solve run anywhere from about 80 to 170 rounds depending on the seed,
   so the solve time would measure the seed more than the code. The cap
   sits below the shortest convergence seen, so every seed does the
   same amount of refinement; the traced run reports how many rounds
   the uncapped rule would have taken (core.sra_converge_rounds). *)
let sra_rounds = 60

let sra_params = { Sra.default_params with Sra.max_rounds = sra_rounds }

type solved = {
  sdga : Assignment.t;
  final : Assignment.t;
  round_ends : float list;  (** SRA's elapsed seconds at each round end, newest first *)
  sra_alloc_mw : float;
  sra_major_gcs : int;
}

let chain ~(layer : Spans.wrap) ~seed inst =
  let gm =
    layer.wrap "core.gain_prime" (fun () ->
        let gm = Gain_matrix.create (Objective.view (Objective.bind Objective.coverage inst)) in
        Gain_matrix.prime gm;
        gm)
  in
  let ctx = { Solver.Ctx.default with Solver.Ctx.gains = Some gm } in
  let sdga = layer.wrap "core.sdga" (fun () -> Sdga.solve ~ctx inst) in
  let round_ends = ref [] in
  let final, d =
    layer.wrap "core.sra" (fun () ->
        Probe.measure (fun () ->
            Sra.refine ~params:sra_params
              ~on_round:(fun ~round:_ ~elapsed ~best:_ -> round_ends := elapsed :: !round_ends)
              ~ctx:{ ctx with Solver.Ctx.rng = Some (Rng.create seed) }
              inst sdga))
  in
  layer.wrap "core.validate" (fun () ->
      Emit.ok "Assignment.validate" (Assignment.validate inst final));
  {
    sdga;
    final;
    round_ends = !round_ends;
    sra_alloc_mw = d.Probe.alloc_mw;
    sra_major_gcs = d.Probe.major;
  }

(* Recomputed validity and coverage, the committee bound, and SRA no
   worse than the SDGA start; returns the recomputed per-paper
   coverage. *)
let check b r =
  let a = r.final in
  let reported =
    Array.init (Instance.n_papers b.inst) (fun p -> Assignment.paper_score b.inst a p)
  in
  let covs =
    Emit.ok "conf-db08 assignment" (Check.assignment b.problem ~reported a.Assignment.groups)
  in
  (* SRA starts from SDGA's answer and never returns worse. *)
  let sum = Array.fold_left ( +. ) 0. in
  let sdga = sum (Check.coverages b.problem r.sdga.Assignment.groups) in
  if sum covs < sdga -. 1e-9 then
    Emit.fail "final coverage %.12g is below SDGA's %.12g" (sum covs) sdga;
  covs

(* A run solves at least [min_rounds] DB08 conferences, each from its own
   corpus: conference k of seed s is generated from seed s + 100000 k
   (conference 0 is the seed itself). The per-round SRA cost depends on
   the corpus by about +-10 %, so one conference per run would make the
   solve time measure the seed; the mean over three does not. *)
let min_rounds = 3

let corpus_seed ~seed k = seed + (100_000 * k)

let corpus_dir ~work k = Filename.concat work (Printf.sprintf "corpus-%d" k)

let plain ~seed ~seconds ~work =
  let setups = ref [] and solves = ref [] and cpus = ref [] in
  let means = ref [] and mins = ref [] and n_papers = ref 0 and peak = ref 0. in
  let spent = ref 0. and k = ref 0 in
  while !spent < seconds || !k < min_rounds do
    let cseed = corpus_seed ~seed !k in
    let dir = corpus_dir ~work !k in
    Unix.mkdir dir 0o755;
    let inputs = write_inputs ~seed:cseed ~work:dir in
    Gc.compact ();
    let b, d = Probe.measure (fun () -> setup ~layer:Spans.untraced ~seed:cseed inputs) in
    Gc.compact ();
    let r, e = Probe.measure (fun () -> chain ~layer:Spans.untraced ~seed:cseed b.inst) in
    spent := !spent +. d.Probe.wall_s +. e.Probe.wall_s;
    setups := d.Probe.wall_s :: !setups;
    solves := e.Probe.wall_s :: !solves;
    cpus := e.Probe.cpu_s :: !cpus;
    let covs = check b r in
    means := Check.mean covs :: !means;
    mins := Check.minimum covs :: !mins;
    n_papers := Instance.n_papers b.inst;
    (* OCaml 5.1 never returns heap memory: read the peak after the first
       conference, where a user's process peaks *)
    if !k = 0 then peak := Probe.peak_rss_mb ();
    incr k
  done;
  let mean l = Check.mean (Array.of_list l) in
  let solve_s = mean !solves in
  {
    Emit.attempted = 2 * !k;
    failed = 0;
    metrics =
      [
        ("setup_s", Probe.median (Array.of_list !setups));
        ("solve_s", solve_s);
        (* a batch acknowledges every paper at once, when the validated
           assignment returns *)
        ("events_per_s", float_of_int !n_papers /. solve_s);
        ("ack_p50_ms", 1000. *. solve_s);
        ("ack_p99_ms", 1000. *. solve_s);
        ("cpu_s", mean !cpus);
        ("coverage_mean", mean !means);
        ("coverage_min", mean !mins);
        ("peak_rss_mb", !peak);
      ];
  }

(* The input files of the first [min_rounds] conferences, one directory
   each. *)
let write_all_inputs ~seed ~dir =
  for k = 0 to min_rounds - 1 do
    let d = corpus_dir ~work:dir k in
    Unix.mkdir d 0o755;
    ignore (write_inputs ~seed:(corpus_seed ~seed k) ~work:d : string * string)
  done

(* The traced run: the same set-up and solve with a span around each
   layer call, then the untraced solve on the same instance (its
   assignment must be the traced one) and SRA under its own stopping
   rule from the same SDGA start, for the convergence length. *)
let traced ~seed ~work ~spans =
  let inputs = write_inputs ~seed ~work in
  let sp = Spans.create () in
  let extract_mw = ref 0. in
  let layer =
    {
      Spans.wrap =
        (fun name f ->
          if String.equal name "topics.extract" then begin
            let x, d = Probe.measure (fun () -> Spans.span sp name f) in
            extract_mw := d.Probe.alloc_mw;
            x
          end
          else Spans.span sp name f);
    }
  in
  let t0 = Timer.now () in
  let b = setup ~layer ~seed inputs in
  let e_setup = Timer.now () -. t0 in
  Gc.compact ();
  let s0 = Timer.now () in
  let r = chain ~layer ~seed b.inst in
  let solve_traced = Timer.now () -. s0 in
  let e2e = e_setup +. solve_traced in
  let covs = check b r in
  Gc.compact ();
  let reference, untraced = Timer.time (fun () -> chain ~layer:Spans.untraced ~seed b.inst) in
  let ref_covs = check b reference in
  let converge = ref 0 in
  ignore
    (Sra.refine
       ~on_round:(fun ~round:_ ~elapsed:_ ~best:_ -> incr converge)
       ~ctx:(Solver.Ctx.make ~seed ()) b.inst r.sdga
      : Assignment.t);
  Spans.write sp spans;
  let sum = Array.fold_left ( +. ) 0. in
  (* per-round wall time from the cumulative elapsed the observer sees *)
  let ends = Array.of_list (List.rev r.round_ends) in
  let steps = Array.mapi (fun i e -> if i = 0 then e else e -. ends.(i - 1)) ends in
  {
    Emit.attempted = 2;
    failed = 0;
    metrics =
      [
        ("dataset.load_s", Spans.total sp "dataset.load");
        ("topics.extract_s", Spans.total sp "topics.extract");
        ("topics.extract_alloc_mw", !extract_mw);
        ("core.instance_s", Spans.total sp "core.instance");
        ("core.gain_prime_s", Spans.total sp "core.gain_prime");
        ("core.sdga_s", Spans.total sp "core.sdga");
        ("core.sra_s", Spans.total sp "core.sra");
        ("core.sra_round_ms", 1000. *. Probe.median steps);
        ("core.sra_alloc_mw", r.sra_alloc_mw);
        ("core.sra_major_gcs", float_of_int r.sra_major_gcs);
        ("core.sra_rounds", float_of_int (Array.length steps));
        ("core.sra_converge_rounds", float_of_int !converge);
        ("core.validate_s", Spans.total sp "core.validate");
        ("trace.e2e_s", e2e);
        ("trace.untraced_s", untraced);
        ("trace.overhead_s", Spans.overhead sp);
        ("trace.residual_s", e2e -. Spans.children_total sp ~parent:0);
        ("trace.same_assignment", if Assignment.equal r.final reference.final then 1. else 0.);
        ("trace.coverage_diff", Float.abs (sum covs -. sum ref_covs));
      ];
  }

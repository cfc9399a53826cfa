(* The metric catalogue and the one-line JSON result.

   Every run prints every metric of its kind — all end-to-end metrics
   untraced, all per-layer metrics traced — so the result shape is the
   same on every workload. A per-layer metric of a layer the workload
   never calls reads 0: no work was done there. The names and units
   here must match BENCHMARK.json; run.py checks that they do. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("solve_s", "s");
    ("events_per_s", "1/s");
    ("ack_p50_ms", "ms");
    ("ack_p99_ms", "ms");
    ("cpu_s", "s");
    ("coverage_mean", "ratio");
    ("coverage_min", "ratio");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    (* conf-db08 *)
    ("dataset.load_s", "s");
    ("topics.extract_s", "s");
    ("topics.extract_alloc_mw", "Mword");
    ("core.instance_s", "s");
    ("core.gain_prime_s", "s");
    ("core.sdga_s", "s");
    ("core.sra_s", "s");
    ("core.sra_round_ms", "ms");
    ("core.sra_alloc_mw", "Mword");
    ("core.sra_major_gcs", "count");
    ("core.sra_rounds", "count");
    ("core.sra_converge_rounds", "count");
    ("core.validate_s", "s");
    (* sharded-50k *)
    ("core.instance_heap_mb", "MiB");
    ("core.gain_bytes", "bytes");
    ("shard.partition_s", "s");
    ("shard.sub_instance_s", "s");
    ("shard.solve_s", "s");
    ("shard.solve_max_s", "s");
    ("shard.fanout_s", "s");
    ("par.efficiency", "ratio");
    ("shard.merge_s", "s");
    ("shard.trimmed_pairs", "count");
    ("shard.boundary_prime_s", "s");
    ("shard.boundary_s", "s");
    ("shard.boundary_alloc_mw", "Mword");
    ("shard.boundary_gain", "ratio");
    (* serve-stream *)
    ("serve.parse_us", "us");
    ("serve.commit_ms", "ms");
    ("serve.plan_p50_ms", "ms");
    ("serve.plan_p99_ms", "ms");
    ("serve.plan_paper_add_ms", "ms");
    ("serve.plan_alloc_mw", "Mword");
    ("serve.plan_degraded", "count");
    ("persist.append_p50_ms", "ms");
    ("persist.append_p99_ms", "ms");
    ("persist.snapshot_ms", "ms");
    ("persist.snapshots", "count");
    ("persist.journal_kb", "KiB");
    ("persist.recover_s", "s");
    ("persist.replayed", "count");
    (* the traced run itself, every workload *)
    ("trace.e2e_s", "s");
    ("trace.untraced_s", "s");
    ("trace.overhead_s", "s");
    ("trace.residual_s", "s");
    ("trace.same_assignment", "bool");
    ("trace.coverage_diff", "ratio");
  ]

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** the workload's own figures *)
}

exception Check_failed of string

(* Stop the run: a check on the program's output did not hold. *)
let fail fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt

let ok what = function Ok x -> x | Error m -> fail "%s: %s" what m

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else fail "metric value %h is not a finite number" v

(* The result line. Metrics the workload reported that the catalogue
   does not name are a programming error; catalogue metrics the
   workload did not report read 0 on the traced run, and are an error
   on the untraced one (every end-to-end metric applies to every
   workload). *)
let line ~trace ~correct o =
  let catalogue = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        invalid_arg ("Emit.line: metric outside the catalogue: " ^ name))
    o.metrics;
  let value name =
    match List.assoc_opt name o.metrics with
    | Some v -> v
    | None when trace -> 0.
    | None -> invalid_arg ("Emit.line: end-to-end metric not reported: " ^ name)
  in
  let fields =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (value name)) unit)
      catalogue
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct o.attempted o.failed (String.concat ", " fields)

(* The result line of a run whose output failed a check. *)
let failed_line () =
  "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"

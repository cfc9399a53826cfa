(* wgrap's benchmark, one workload per process:

     wgrap_perf.exe --workload conf-db08|sharded-50k|serve-stream
                    --seed N --seconds S --trace 0|1 --work DIR --spans FILE

   prints progress on stderr and, as the last line of stdout, one JSON
   object {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
   the end-to-end metrics, --trace 1 the per-layer ones; a traced run
   writes its spans, one JSON object per line, to FILE.

     wgrap_perf.exe --workload W --seed N --inputs DIR

   writes the workload's generated inputs to DIR instead (existing
   directory) and exits: the corpus TSVs for conf-db08, the sparse
   vector TSVs for sharded-50k, the event stream for serve-stream. Exits 1 when a
   check on the program's output fails, 2 on bad arguments. Normally
   started through run.py, which builds it first. *)

let usage () =
  prerr_endline
    "usage: wgrap_perf --workload conf-db08|sharded-50k|serve-stream --seed N \
     --seconds S --trace 0|1 --work DIR --spans FILE";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int "seed" in
  (match List.assoc_opt "inputs" kv with
  | None -> ()
  | Some dir ->
      (match workload with
      | "conf-db08" -> Conf_db08.write_all_inputs ~seed ~dir
      | "sharded-50k" ->
          ignore
            (Dataset.Synthetic.write_preset_tsv ~seed ~dir Sharded_50k.preset : string * string)
      | "serve-stream" -> Serve_stream.write_events ~seed (Filename.concat dir "events.txt")
      | _ -> usage ());
      exit 0);
  let work = get "work" and spans = get "spans" in
  let seconds = float_of_int (int "seconds") in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let run =
    match (workload, trace) with
    | "conf-db08", false -> fun () -> Conf_db08.plain ~seed ~seconds ~work
    | "conf-db08", true -> fun () -> Conf_db08.traced ~seed ~work ~spans
    | "sharded-50k", false -> fun () -> Sharded_50k.plain ~seed ~seconds
    | "sharded-50k", true -> fun () -> Sharded_50k.traced ~seed ~spans
    | "serve-stream", false -> fun () -> Serve_stream.plain ~seed ~seconds ~work
    | "serve-stream", true -> fun () -> Serve_stream.traced ~seed ~work ~spans
    | _ -> usage ()
  in
  match run () with
  | o -> print_endline (Emit.line ~trace ~correct:true o)
  | exception Emit.Check_failed m ->
      Printf.eprintf "wgrap_perf %s: CHECK FAILED: %s\n%!" workload m;
      print_endline (Emit.failed_line ());
      exit 1

(* Process-level measurements, read from this process only: each
   workload runs in a process of its own, so peak RSS and CPU time never
   include another workload's usage. *)

module Timer = Wgrap_util.Timer

(* One "Key:   <n> kB" field of /proc/self/status, in kB. *)
let status_kb key =
  let prefix = key ^ ":" in
  let plen = String.length prefix in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line
              when String.length line > plen
                   && String.equal (String.sub line 0 plen) prefix -> (
                match
                  String.split_on_char ' '
                    (String.trim (String.sub line plen (String.length line - plen)))
                with
                | n :: _ -> int_of_string_opt n
                | [] -> None)
            | _ -> scan ()
          in
          scan ())

(* VmHWM — the process's resident high-water mark — in MiB. *)
let peak_rss_mb () =
  match status_kb "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "VmHWM unavailable in /proc/self/status"

(* User + system CPU seconds of the whole process, all domains. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated by this domain so far (minor + direct major, without
   double-counting promotions) and major collections so far. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_gcs () = (Gc.quick_stat ()).Gc.major_collections

(* Elapsed wall seconds, CPU seconds, allocated megawords and major
   collections over one call. *)
type delta = { wall_s : float; cpu_s : float; alloc_mw : float; major : int }

let measure f =
  let wall = Timer.now () and cpu = cpu_s () and mw = alloc_words () and gcs = major_gcs () in
  let x = f () in
  ( x,
    {
      wall_s = Timer.now () -. wall;
      cpu_s = cpu_s () -. cpu;
      alloc_mw = (alloc_words () -. mw) /. 1e6;
      major = major_gcs () - gcs;
    } )

(* Median of a non-empty sample, interpolated like Python's
   statistics.median. *)
let median xs =
  match Array.length xs with
  | 0 -> invalid_arg "Probe.median: empty sample"
  | _ -> Wgrap_util.Stats.median xs

(* Nearest-rank percentile of a non-empty sample ([q] in (0, 1]). *)
let percentile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Probe.percentile: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Samples strictly above the value returned by [percentile xs q]. *)
let beyond xs q =
  let p = percentile xs q in
  Array.fold_left (fun n x -> if x > p then n + 1 else n) 0 xs

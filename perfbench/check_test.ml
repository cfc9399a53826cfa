(* Tests of the benchmark's output checks themselves: a 3-paper instance
   whose coverage is worked out by hand must pass, and hand-built
   assignments that break one rule each must be rejected.

   Topics t0..t2; delta_p = 2, delta_r = 2; reviewer 1 conflicts with
   paper 2.

     p0 = (0.5, 0.5, 0)    r0 = (0.4, 0.1, 0)
     p1 = (0.2, 0.3, 0.5)  r1 = (0.1, 0.6, 0.2)
     p2 = (1, 0, 0)        r2 = (0, 0, 0.9)
                           r3 = (0.8, 0.2, 0)

   The good assignment p0 <- {r0, r1}, p1 <- {r1, r2}, p2 <- {r3, r0}:
     p0: group max (0.4, 0.6, 0.2); min with p0 = 0.4 + 0.5 + 0   = 0.9
     p1: group max (0.1, 0.6, 0.9); min with p1 = 0.1 + 0.3 + 0.5 = 0.9
     p2: group max (0.8, 0.2, 0);   min with p2 = 0.8             = 0.8
   each over a paper mass of 1. Loads r0 = 2, r1 = 2, r2 = 1, r3 = 1. *)

let pb =
  {
    Check.papers = [| [| 0.5; 0.5; 0. |]; [| 0.2; 0.3; 0.5 |]; [| 1.; 0.; 0. |] |];
    reviewers =
      [| [| 0.4; 0.1; 0. |]; [| 0.1; 0.6; 0.2 |]; [| 0.; 0.; 0.9 |]; [| 0.8; 0.2; 0. |] |];
    delta_p = 2;
    delta_r = 2;
    coi = [ (2, 1) ];
  }

let good = [| [ 0; 1 ]; [ 1; 2 ]; [ 3; 0 ] |]
let by_hand = [| 0.9; 0.9; 0.8 |]
let failures = ref 0

let expect name cond =
  if cond then Printf.printf "ok %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let accepted groups reported = Result.is_ok (Check.assignment pb ~reported groups)

(* Rejected, and for the reason named by [word] in the message. *)
let rejected_for word groups reported =
  match Check.assignment pb ~reported groups with
  | Ok _ -> false
  | Error m ->
      let n = String.length m and k = String.length word in
      let rec go i = i + k <= n && (String.equal (String.sub m i k) word || go (i + 1)) in
      go 0

let () =
  let ours = Check.coverages pb good in
  expect "hand-worked coverage"
    (Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-12) ours by_hand);
  expect "hand-worked instance accepted" (accepted good by_hand);
  expect "committee bound holds on the hand-worked instance"
    (Result.is_ok (Check.within_bound ~ours ~bound:(Check.committee_bound pb) ()));
  expect "COI pair rejected"
    (rejected_for "conflicted" [| [ 0; 1 ]; [ 0; 2 ]; [ 3; 1 ] |] by_hand);
  expect "over-cap reviewer rejected"
    (rejected_for "cap 2" [| [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ] |] by_hand);
  expect "short group rejected" (rejected_for "want 2" [| [ 0; 1 ]; [ 2 ]; [ 3; 0 ] |] by_hand);
  expect "duplicate reviewer rejected"
    (rejected_for "duplicate" [| [ 0; 0 ]; [ 1; 2 ]; [ 3; 2 ] |] by_hand);
  expect "coverage off by 1e-6 rejected"
    (rejected_for "recomputed" good [| 0.9; 0.9 +. 1e-6; 0.8 |]);
  expect "coverage off by 1e-10 accepted" (accepted good [| 0.9; 0.9 +. 1e-10; 0.8 |]);
  expect "coverage above the committee bound rejected"
    (Result.is_error
       (Check.within_bound ~ours:[| 0.9; 0.9; 0.9 |] ~bound:(Check.committee_bound pb) ()));
  if !failures > 0 then exit 1

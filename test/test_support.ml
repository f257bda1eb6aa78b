module Dyn = Taco_support.Dyn_array
module Prng = Taco_support.Prng
module Util = Taco_support.Util
module Cache = Taco_support.Cache

let test_dyn_int_push () =
  let t = Dyn.Int.create () in
  for x = 0 to 99 do
    Dyn.Int.push t x
  done;
  Alcotest.(check int) "length" 100 (Dyn.Int.length t);
  Alcotest.(check int) "get 42" 42 (Dyn.Int.get t 42);
  Alcotest.(check (array int)) "to_array" (Array.init 100 Fun.id) (Dyn.Int.to_array t)

let test_dyn_int_ensure () =
  let t = Dyn.Int.create () in
  Dyn.Int.push t 7;
  Dyn.Int.ensure t 5;
  Alcotest.(check int) "length after ensure" 5 (Dyn.Int.length t);
  Alcotest.(check (array int)) "zero fill" [| 7; 0; 0; 0; 0 |] (Dyn.Int.to_array t);
  Dyn.Int.ensure t 3;
  Alcotest.(check int) "ensure never shrinks" 5 (Dyn.Int.length t)

let test_dyn_int_bounds () =
  let t = Dyn.Int.create () in
  Dyn.Int.push t 1;
  Alcotest.check_raises "get out of range" (Invalid_argument "Dyn_array.Int.get")
    (fun () -> ignore (Dyn.Int.get t 1));
  Alcotest.check_raises "set out of range" (Invalid_argument "Dyn_array.Int.set")
    (fun () -> Dyn.Int.set t 3 0)

let test_dyn_int_sort () =
  let t = Dyn.Int.of_array [| 5; 3; 9; 1 |] in
  Dyn.Int.sort t;
  Alcotest.(check (array int)) "sorted" [| 1; 3; 5; 9 |] (Dyn.Int.to_array t)

let test_dyn_float_roundtrip () =
  let t = Dyn.Float.of_array [| 1.5; -2.25 |] in
  Dyn.Float.push t 3.75;
  Alcotest.(check (array (float 0.))) "roundtrip" [| 1.5; -2.25; 3.75 |]
    (Dyn.Float.to_array t);
  Dyn.Float.clear t;
  Alcotest.(check int) "cleared" 0 (Dyn.Float.length t)

let test_prng_deterministic () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_bounds () =
  let p = Prng.create 5 in
  for _ = 1 to 1000 do
    let x = Prng.int p 7 in
    if x < 0 || x >= 7 then Alcotest.fail "int out of bounds";
    let f = Prng.float p in
    if f < 0. || f >= 1. then Alcotest.fail "float out of bounds"
  done

let test_prng_split_independent () =
  let p = Prng.create 9 in
  let q = Prng.split p in
  let a1 = Prng.int p 1000000 in
  let b1 = Prng.int q 1000000 in
  Alcotest.(check bool) "streams differ" true (a1 <> b1 || Prng.int p 1000000 <> Prng.int q 1000000)

let test_sample_without_replacement () =
  let p = Prng.create 11 in
  let s = Prng.sample_without_replacement p ~n:100 ~k:30 in
  Alcotest.(check int) "size" 30 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "already sorted" sorted s;
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 30 (List.length distinct);
  Array.iter (fun x -> if x < 0 || x >= 100 then Alcotest.fail "out of range") s

let test_sample_full_range () =
  let p = Prng.create 13 in
  let s = Prng.sample_without_replacement p ~n:10 ~k:10 in
  Alcotest.(check (array int)) "k = n takes everything" (Array.init 10 Fun.id) s

let test_binary_search () =
  let a = [| 1; 3; 5; 7; 9; 11 |] in
  Alcotest.(check (option int)) "found" (Some 2) (Util.binary_search a 0 6 5);
  Alcotest.(check (option int)) "absent" None (Util.binary_search a 0 6 6);
  Alcotest.(check (option int)) "outside slice" None (Util.binary_search a 0 2 5);
  Alcotest.(check (option int)) "in slice" (Some 4) (Util.binary_search a 3 6 9)

let test_lower_bound () =
  let a = [| 2; 4; 4; 8 |] in
  Alcotest.(check int) "before" 0 (Util.lower_bound a 0 4 1);
  Alcotest.(check int) "first equal" 1 (Util.lower_bound a 0 4 4);
  Alcotest.(check int) "between" 3 (Util.lower_bound a 0 4 5);
  Alcotest.(check int) "after" 4 (Util.lower_bound a 0 4 100)

let test_sort_paired () =
  let keys = [| 9; 3; 7; 1 |] and payload = [| 9.; 3.; 7.; 1. |] in
  Util.sort_paired keys payload 0 4;
  Alcotest.(check (array int)) "keys" [| 1; 3; 7; 9 |] keys;
  Alcotest.(check (array (float 0.))) "payload follows" [| 1.; 3.; 7.; 9. |] payload

let test_sort_paired_slice () =
  let keys = [| 9; 3; 7; 1 |] and payload = [| 9.; 3.; 7.; 1. |] in
  Util.sort_paired keys payload 1 3;
  Alcotest.(check (array int)) "only the slice" [| 9; 3; 7; 1 |] keys

let test_median () =
  Alcotest.(check (float 0.)) "odd" 3. (Util.median [ 5.; 1.; 3. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Util.median [ 4.; 1.; 2.; 3. ])

let test_dedup_subsets () =
  Alcotest.(check (list int)) "dedup keeps order" [ 3; 1; 2 ]
    (Util.dedup_stable [ 3; 1; 3; 2; 1 ]);
  Alcotest.(check int) "subset count" 8 (List.length (Util.subsets [ 1; 2; 3 ]))

let prop_binary_search_agrees =
  Helpers.qcheck_case "binary_search agrees with linear search"
    QCheck.(pair (list_of_size Gen.(1 -- 30) (0 -- 50)) (0 -- 50))
    (fun (xs, x) ->
      let a = Array.of_list (List.sort_uniq compare xs) in
      let n = Array.length a in
      let expected = Array.exists (( = ) x) a in
      let got = Util.binary_search a 0 n x <> None in
      expected = got)

let prop_sample_distinct =
  Helpers.qcheck_case "sample_without_replacement yields distinct sorted values"
    QCheck.(pair (1 -- 200) (0 -- 200))
    (fun (n, seed) ->
      let p = Prng.create seed in
      let k = min n (1 + (seed mod n)) in
      let s = Prng.sample_without_replacement p ~n ~k in
      Array.length s = k
      && List.length (List.sort_uniq compare (Array.to_list s)) = k
      && Array.for_all (fun x -> x >= 0 && x < n) s)

(* --- Cache ------------------------------------------------------------ *)

let outcome =
  Alcotest.testable
    (fun ppf o ->
      Fmt.string ppf (match o with Cache.Hit -> "hit" | Coalesced -> "coalesced" | Miss -> "miss"))
    ( = )

let lookup ?valid c key v =
  Result.get_ok (Cache.find_or_build c ?valid key (fun () -> Ok v))

let check_stats c ~hits ~misses ~entries ~evictions ~coalesced =
  let s = Cache.stats c in
  Alcotest.(check (list int))
    "hits, misses, entries, evictions, coalesced"
    [ hits; misses; entries; evictions; coalesced ]
    [ s.Cache.hits; s.Cache.misses; s.Cache.entries; s.Cache.evictions; s.Cache.coalesced ]

let test_cache_fifo () =
  let c = Cache.create ~name:"test_fifo" ~capacity:2 in
  ignore (lookup c "a" 1);
  ignore (lookup c "b" 2);
  ignore (lookup c "c" 3);
  check_stats c ~hits:0 ~misses:3 ~entries:2 ~evictions:1 ~coalesced:0;
  (* "a" went first; rebuilding it evicts "b", the next oldest. *)
  Alcotest.(check (pair int outcome)) "oldest was evicted" (10, Cache.Miss) (lookup c "a" 10);
  Alcotest.(check (pair int outcome)) "newest survives" (3, Cache.Hit) (lookup c "c" 30);
  Alcotest.(check (pair int outcome)) "next oldest evicted" (20, Cache.Miss) (lookup c "b" 20);
  check_stats c ~hits:1 ~misses:5 ~entries:2 ~evictions:3 ~coalesced:0;
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Cache.create: capacity must be positive") (fun () ->
      ignore (Cache.create ~name:"test_zero" ~capacity:0 : int Cache.t))

(* All domains meet at a spin barrier, then ask for one key whose build
   sleeps long enough for the rest to queue behind it. *)
let test_cache_single_flight () =
  let n = 4 in
  let c = Cache.create ~name:"test_flight" ~capacity:4 in
  let builds = Atomic.make 0 and ready = Atomic.make 0 in
  let build () =
    Atomic.incr builds;
    Unix.sleepf 0.2;
    Ok 42
  in
  let domains =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < n do
              Domain.cpu_relax ()
            done;
            Result.get_ok (Cache.find_or_build c "k" build)))
  in
  let results = List.map Domain.join domains in
  Alcotest.(check int) "one build" 1 (Atomic.get builds);
  Alcotest.(check (list int)) "every domain got the value" (List.init n (fun _ -> 42))
    (List.map fst results);
  Alcotest.(check int) "one miss" 1 (List.length (List.filter (fun (_, o) -> o = Cache.Miss) results));
  check_stats c ~hits:(n - 1) ~misses:1 ~entries:1 ~evictions:0 ~coalesced:(n - 1)

let test_cache_failed_build () =
  let c = Cache.create ~name:"test_fail" ~capacity:4 in
  Alcotest.(check (result (pair int outcome) string)) "error passes through" (Error "no")
    (Cache.find_or_build c "k" (fun () -> Error "no"));
  Alcotest.check_raises "exception propagates" Exit (fun () ->
      ignore (Cache.find_or_build c "k" (fun () -> raise Exit)));
  check_stats c ~hits:0 ~misses:2 ~entries:0 ~evictions:0 ~coalesced:0;
  (* A waiter queued behind a failing build is woken and builds itself. *)
  let fail_with f key =
    let started = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          try
            Cache.find_or_build c key (fun () ->
                Atomic.set started true;
                Unix.sleepf 0.1;
                f ())
          with Exit -> Error "raised")
    in
    while not (Atomic.get started) do
      Domain.cpu_relax ()
    done;
    let waiter = Cache.find_or_build c key (fun () -> Ok 7) in
    Alcotest.(check (result (pair int outcome) string)) "waiter builds" (Ok (7, Cache.Miss)) waiter;
    Domain.join d
  in
  Alcotest.(check (result (pair int outcome) string)) "failing builder" (Error "no")
    (fail_with (fun () -> Error "no") "e");
  Alcotest.(check (result (pair int outcome) string)) "raising builder" (Error "raised")
    (fail_with (fun () -> raise Exit) "x");
  check_stats c ~hits:0 ~misses:6 ~entries:2 ~evictions:0 ~coalesced:0

let test_cache_validity () =
  let c = Cache.create ~name:"test_valid" ~capacity:4 in
  ignore (lookup c "k" 1);
  let valid v = v >= 2 in
  Alcotest.(check (pair int outcome)) "invalid hit rebuilds" (2, Cache.Miss) (lookup ~valid c "k" 2);
  check_stats c ~hits:0 ~misses:2 ~entries:1 ~evictions:0 ~coalesced:0;
  Alcotest.(check (pair int outcome)) "replacement hits" (2, Cache.Hit) (lookup ~valid c "k" 3);
  Alcotest.(check (pair int outcome)) "for every caller" (2, Cache.Hit) (lookup c "k" 4)

let test_cache_clear () =
  let c = Cache.create ~name:"test_clear" ~capacity:1 in
  ignore (lookup c "a" 1);
  ignore (lookup c "a" 1);
  ignore (lookup c "b" 2);
  check_stats c ~hits:1 ~misses:2 ~entries:1 ~evictions:1 ~coalesced:0;
  Cache.clear c;
  check_stats c ~hits:0 ~misses:0 ~entries:0 ~evictions:0 ~coalesced:0;
  Alcotest.(check (pair int outcome)) "cleared entry rebuilds" (3, Cache.Miss) (lookup c "b" 3)

let () =
  Alcotest.run "support"
    [
      ( "dyn_array",
        [
          Alcotest.test_case "int push/get/to_array" `Quick test_dyn_int_push;
          Alcotest.test_case "int ensure zero-fills" `Quick test_dyn_int_ensure;
          Alcotest.test_case "int bounds checking" `Quick test_dyn_int_bounds;
          Alcotest.test_case "int sort" `Quick test_dyn_int_sort;
          Alcotest.test_case "float roundtrip and clear" `Quick test_dyn_float_roundtrip;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_prng_deterministic;
          Alcotest.test_case "bounded outputs" `Quick test_prng_bounds;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "floyd sampling" `Quick test_sample_without_replacement;
          Alcotest.test_case "sampling the full range" `Quick test_sample_full_range;
          prop_sample_distinct;
        ] );
      ( "util",
        [
          Alcotest.test_case "binary_search" `Quick test_binary_search;
          Alcotest.test_case "lower_bound" `Quick test_lower_bound;
          Alcotest.test_case "sort_paired" `Quick test_sort_paired;
          Alcotest.test_case "sort_paired slice only" `Quick test_sort_paired_slice;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "dedup and subsets" `Quick test_dedup_subsets;
          prop_binary_search_agrees;
        ] );
      ( "cache",
        [
          Alcotest.test_case "FIFO eviction at capacity 2" `Quick test_cache_fifo;
          Alcotest.test_case "racing domains build once" `Quick test_cache_single_flight;
          Alcotest.test_case "failed build caches nothing" `Quick test_cache_failed_build;
          Alcotest.test_case "invalid hit is replaced" `Quick test_cache_validity;
          Alcotest.test_case "clear resets counters" `Quick test_cache_clear;
        ] );
    ]

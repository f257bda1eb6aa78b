(* Tests for the observability layer: the Trace span/counter buffer
   (including the disabled-is-free discipline), Exec.Compile cache
   accounting (hits/misses/entries/evictions across optimizer configs,
   capacity-bounded eviction, cache_clear), and the profiled execution
   mode's work counters. *)

module Imp = Taco_lower.Imp
module Opt = Taco_lower.Opt
module Compile = Taco_exec.Compile
module Trace = Taco_support.Trace
module Cache = Taco_support.Cache

let v n = Imp.Var n

let i n = Imp.Int_lit n

let kernel ?(params = []) ?(name = "t") body =
  { Imp.k_name = name; k_params = params; k_body = body; k_returns = [] }

(* A kernel the optimizer changes, so [~opt:Opt.none] and [~opt:Opt.all]
   compile to structurally different kernels and occupy distinct cache
   entries. *)
let foldable name =
  kernel ~name
    [
      Imp.Decl (Imp.Int, "x", Imp.Binop (Imp.Add, i 1, i 2));
      Imp.Decl (Imp.Int, "y", Imp.Binop (Imp.Mul, v "x", i 3));
    ]

(* ------------------------------------------------------------------ *)
(* Cache accounting                                                    *)
(* ------------------------------------------------------------------ *)

let test_cache_accounting_across_configs () =
  Compile.cache_clear ();
  let k = foldable "trace_cache_cfg" in
  let _ = Compile.compile ~opt:Opt.none k in
  let _ = Compile.compile ~opt:Opt.all k in
  let s = Compile.cache_stats () in
  Alcotest.(check int) "distinct opt configs miss separately" 2 s.Compile.misses;
  Alcotest.(check int) "two entries" 2 s.Compile.entries;
  Alcotest.(check int) "no hits yet" 0 s.Compile.hits;
  let _ = Compile.compile ~opt:Opt.none k in
  let _ = Compile.compile ~opt:Opt.all k in
  let s = Compile.cache_stats () in
  Alcotest.(check int) "both configs hit on recompile" 2 s.Compile.hits;
  Alcotest.(check int) "still two entries" 2 s.Compile.entries;
  Alcotest.(check int) "no evictions at default capacity" 0 s.Compile.evictions

let test_cache_clear_resets_accounting () =
  Compile.cache_clear ();
  let k = foldable "trace_cache_clear" in
  let _ = Compile.compile k in
  let _ = Compile.compile k in
  Compile.cache_clear ();
  let s = Compile.cache_stats () in
  Alcotest.(check int) "cleared hits" 0 s.Compile.hits;
  Alcotest.(check int) "cleared misses" 0 s.Compile.misses;
  Alcotest.(check int) "cleared entries" 0 s.Compile.entries;
  Alcotest.(check int) "cleared evictions" 0 s.Compile.evictions;
  let _ = Compile.compile k in
  let s = Compile.cache_stats () in
  Alcotest.(check int) "recompile after clear misses again" 1 s.Compile.misses

(* Compile's own cache has a fixed 512-entry capacity, so eviction is
   exercised on a capacity-2 instance of the same cache module, filled
   with uncached compiles. *)
let test_cache_eviction_fifo () =
  let cache = Cache.create ~name:"trace_evict" ~capacity:2 in
  let compile k =
    Cache.find_or_build cache k.Imp.k_name (fun () -> Ok (Compile.compile ~cache:false k))
    |> Result.get_ok |> fst
  in
  let k1 = foldable "trace_evict_1" in
  let k2 = foldable "trace_evict_2" in
  let k3 = foldable "trace_evict_3" in
  let _ = compile k1 in
  let _ = compile k2 in
  let _ = compile k3 in
  let s = Cache.stats cache in
  Alcotest.(check int) "capacity bounds entries" 2 s.Cache.entries;
  Alcotest.(check int) "oldest entry evicted" 1 s.Cache.evictions;
  (* k1 was inserted first, so it was the FIFO victim: recompiling it
     misses, while k3 (newest) still hits. *)
  let _ = compile k3 in
  let s = Cache.stats cache in
  Alcotest.(check int) "newest entry survives" 1 s.Cache.hits;
  let _ = compile k1 in
  let s = Cache.stats cache in
  Alcotest.(check int) "evicted entry misses" 4 s.Cache.misses

(* ------------------------------------------------------------------ *)
(* Trace buffer                                                        *)
(* ------------------------------------------------------------------ *)

(* [Fun.protect] so a failing assertion cannot leave tracing enabled for
   the rest of the suite. *)
let with_tracing f =
  Trace.clear ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.clear ())
    f

let test_disabled_tracing_records_nothing () =
  Trace.disable ();
  Trace.clear ();
  (* Drive the instrumented pipeline end to end: optimizer, compile,
     run. None of it may touch the trace buffer while disabled. *)
  let k = foldable "trace_disabled" in
  let c = Compile.compile ~cache:false ~profile:true k in
  ignore (Compile.run c ~args:[] : string -> Compile.arg);
  Trace.with_span "should_not_record" (fun () -> ());
  Trace.add "should_not_count" 7;
  Alcotest.(check int) "no events recorded while disabled" 0 (Trace.event_count ());
  Alcotest.(check int) "no open spans" 0 (Trace.open_spans ());
  Alcotest.(check int) "counters untouched" 0 (Trace.counter_total "should_not_count")

let test_span_balance_and_nesting () =
  with_tracing (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner" (fun () -> ());
          Alcotest.(check int) "outer still open inside" 1 (Trace.open_spans ()));
      Alcotest.(check int) "all spans closed" 0 (Trace.open_spans ());
      Alcotest.(check int) "two B/E pairs" 4 (Trace.event_count ());
      let json = Trace.to_chrome_json () in
      let has needle =
        let rec go i =
          i + String.length needle <= String.length json
          && (String.sub json i (String.length needle) = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "json has traceEvents" true (has "\"traceEvents\"");
      Alcotest.(check bool) "json has begin events" true (has "\"ph\":\"B\"");
      Alcotest.(check bool) "json has end events" true (has "\"ph\":\"E\""))

let test_span_closed_on_exception () =
  with_tracing (fun () ->
      (try Trace.with_span "raises" (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "span closed despite exception" 0 (Trace.open_spans ());
      Alcotest.(check int) "B and E both recorded" 2 (Trace.event_count ()))

let test_counters_accumulate () =
  with_tracing (fun () ->
      Trace.add "widgets" 2;
      Trace.add "widgets" 3;
      Alcotest.(check int) "counter totals accumulate" 5 (Trace.counter_total "widgets"))

let test_compile_emits_cache_counters () =
  with_tracing (fun () ->
      Compile.cache_clear ();
      let k = foldable "trace_compile_counters" in
      let _ = Compile.compile k in
      let _ = Compile.compile k in
      Alcotest.(check int) "one miss counted" 1 (Trace.counter_total "compile.cache.miss");
      Alcotest.(check int) "one hit counted" 1 (Trace.counter_total "compile.cache.hit"))

(* ------------------------------------------------------------------ *)
(* Profiled execution                                                  *)
(* ------------------------------------------------------------------ *)

let profiled_kernel () =
  kernel ~name:"trace_profiled"
    [
      Imp.Alloc (Imp.Float, "w", i 8);
      Imp.For
        ( "j",
          i 0,
          i 8,
          [ Imp.Store ("w", v "j", Imp.Float_lit 1.) ] );
    ]

let test_profile_counters () =
  let c = Compile.compile ~cache:false ~profile:true (profiled_kernel ()) in
  ignore (Compile.run c ~args:[] : string -> Compile.arg);
  match Compile.profile_stats c with
  | None -> Alcotest.fail "profiled kernel reports no stats"
  | Some s ->
      Alcotest.(check int) "loop iterations" 8 s.Compile.iterations;
      Alcotest.(check int) "one allocation" 1 s.Compile.allocs;
      Alcotest.(check int) "allocated elements" 8 s.Compile.alloc_elems;
      Alcotest.(check int) "zeroed bytes (8 B/elem)" 64 s.Compile.zero_bytes;
      Alcotest.(check int) "stores counted" 8 s.Compile.scalar_ops;
      ignore (Compile.run c ~args:[] : string -> Compile.arg);
      (match Compile.profile_stats c with
      | None -> Alcotest.fail "stats vanished"
      | Some s2 ->
          Alcotest.(check int) "counters accumulate across runs" 16 s2.Compile.iterations);
      Compile.profile_reset c;
      (match Compile.profile_stats c with
      | None -> Alcotest.fail "stats vanished after reset"
      | Some s3 -> Alcotest.(check int) "reset zeroes counters" 0 s3.Compile.iterations)

(* One statement of every kind the profiler counts: a While, an If in a
   ParallelFor, Realloc, Memset, Fill and both Sort drains. *)
let control_kernel () =
  let b x = Imp.Bool_lit x in
  {
    Imp.k_name = "trace_control";
    k_params = [ { Imp.p_name = "y"; p_dtype = Imp.Float; p_array = true; p_output = true } ];
    k_body =
      [
        Imp.Alloc (Imp.Float, "w", i 4);
        Imp.Memset ("w", i 4);
        Imp.Fill ("w", i 2, Imp.Float_lit 1.5);
        Imp.Alloc (Imp.Int, "c", i 2);
        Imp.Realloc ("c", i 6);
        Imp.Decl (Imp.Int, "k", i 0);
        Imp.While
          ( Imp.Binop (Imp.Lt, v "k", i 6),
            [
              Imp.Store ("c", v "k", Imp.Binop (Imp.Sub, i 5, v "k"));
              Imp.Assign ("k", Imp.Binop (Imp.Add, v "k", i 1));
            ] );
        Imp.Sort ("c", i 0, i 6, None);
        Imp.Alloc (Imp.Bool, "seen", i 8);
        Imp.Store ("seen", i 1, b true);
        Imp.Store ("seen", i 5, b true);
        Imp.Alloc (Imp.Int, "m", i 2);
        Imp.Store ("m", i 0, i 5);
        Imp.Store ("m", i 1, i 1);
        Imp.Sort ("m", i 0, i 2, Some { Imp.seen = "seen"; extent = i 8 });
        Imp.ParallelFor
          ( "p",
            i 0,
            i 8,
            [
              Imp.If
                ( Imp.Binop (Imp.Lt, v "p", i 2),
                  [ Imp.Store ("y", v "p", Imp.Load ("w", v "p")) ],
                  [ Imp.Store ("y", v "p", Imp.Float_lit 2.5) ] );
            ],
            { Imp.par_private = []; par_stage = None } );
      ];
    k_returns = [];
  }

let test_profile_control_counters () =
  let run ~profile domains =
    let c = Compile.compile ~cache:false ~opt:Opt.none ~profile (control_kernel ()) in
    let y = Array.make 8 0. in
    let r = Compile.run ~domains c ~args:[ ("y", Compile.Afloat_array y) ] in
    let ints name =
      match r name with Compile.Aint_array a -> a | _ -> Alcotest.fail "expected an int array"
    in
    (Compile.profile_stats c, (Array.map Int64.bits_of_float y, ints "c", ints "m"))
  in
  let counters s =
    [
      ("iterations", s.Compile.iterations);
      ("scalar_ops", s.Compile.scalar_ops);
      ("allocs", s.Compile.allocs);
      ("alloc_elems", s.Compile.alloc_elems);
      ("zero_bytes", s.Compile.zero_bytes);
      ("reallocs", s.Compile.reallocs);
      ("sorts", s.Compile.sorts);
      ("mask_scans", s.Compile.mask_scans);
    ]
  in
  let expected =
    [
      ("iterations", 14) (* 6 While + 8 ParallelFor *);
      ("scalar_ops", 25) (* decl, 12 in the While, 4 stores, 8 in the If *);
      ("allocs", 4);
      ("alloc_elems", 16);
      ("zero_bytes", 8 * 22) (* 16 allocated, 4 memset, 2 filled *);
      ("reallocs", 1);
      ("sorts", 1);
      ("mask_scans", 1);
    ]
  in
  let _, plain = run ~profile:false 4 in
  let b = Int64.bits_of_float in
  Alcotest.(check bool) "results" true
    (plain
    = ( Array.map b [| 1.5; 1.5; 2.5; 2.5; 2.5; 2.5; 2.5; 2.5 |],
        [| 0; 1; 2; 3; 4; 5 |],
        [| 1; 5 |] ));
  List.iter
    (fun domains ->
      let what = Printf.sprintf "domains=%d" domains in
      match run ~profile:true domains with
      | None, _ -> Alcotest.fail (what ^ ": no stats")
      | Some s, got ->
          Alcotest.(check (list (pair string int))) (what ^ ": counters") expected (counters s);
          Alcotest.(check bool) (what ^ ": bit-identical results") true (got = plain))
    [ 1; 4 ]

let test_unprofiled_reports_none () =
  let c = Compile.compile ~cache:false (profiled_kernel ()) in
  ignore (Compile.run c ~args:[] : string -> Compile.arg);
  Alcotest.(check bool) "unprofiled kernel has no stats" true
    (Compile.profile_stats c = None)

let () =
  Alcotest.run "trace"
    [
      ( "cache",
        [
          Alcotest.test_case "accounting across opt configs" `Quick
            test_cache_accounting_across_configs;
          Alcotest.test_case "cache_clear resets accounting" `Quick
            test_cache_clear_resets_accounting;
          Alcotest.test_case "FIFO eviction at capacity" `Quick test_cache_eviction_fifo;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled tracing records nothing" `Quick
            test_disabled_tracing_records_nothing;
          Alcotest.test_case "span balance and nesting" `Quick
            test_span_balance_and_nesting;
          Alcotest.test_case "span closed on exception" `Quick
            test_span_closed_on_exception;
          Alcotest.test_case "counters accumulate" `Quick test_counters_accumulate;
          Alcotest.test_case "compile emits cache counters" `Quick
            test_compile_emits_cache_counters;
        ] );
      ( "profile",
        [
          Alcotest.test_case "profiled run counters" `Quick test_profile_counters;
          Alcotest.test_case "control-flow counters" `Quick test_profile_control_counters;
          Alcotest.test_case "unprofiled reports none" `Quick test_unprofiled_reports_none;
        ] );
    ]

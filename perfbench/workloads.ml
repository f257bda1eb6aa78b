(* The three workloads: set-up, the untraced measurement that gives the
   end-to-end metrics, and the traced replay that gives the per-layer
   ones. *)

open Taco
module Service = Taco_service.Service
module Ops = Taco_ops.Ops
module P = Pipeline
module C = Catalog

let now = Spans.now_ns

let deadline_after seconds = now () + int_of_float (seconds *. 1e9)

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few, for the report *)
  lat : (string, float list ref) Hashtbl.t;  (** item@backend -> latencies, ms *)
  mutable keys : (string * Compile.backend) list;  (** first-seen order *)
  mutable all : float list;
}

let tally () = { attempted = 0; failed = 0; failures = []; lat = Hashtbl.create 32; keys = []; all = [] }

let key name backend = name ^ "@" ^ P.backend_name backend

let note_failure t what =
  t.failed <- t.failed + 1;
  if List.length t.failures < 8 then t.failures <- t.failures @ [ what ]

(* One attempted request. A failed one (an error, a wrong output, or a
   native request that ran on closures) counts in [failed] and leaves
   no latency behind. *)
let record t ~name ~backend ~ms verdict =
  t.attempted <- t.attempted + 1;
  match verdict with
  | Error e -> note_failure t (key name backend ^ ": " ^ e)
  | Ok () ->
      let k = key name backend in
      (match Hashtbl.find_opt t.lat k with
      | Some l -> l := ms :: !l
      | None ->
          Hashtbl.add t.lat k (ref [ ms ]);
          t.keys <- t.keys @ [ (k, backend) ]);
      t.all <- ms :: t.all

(* The verdict on one output: right backend, then right values. *)
let verdict ~requested ~actual check =
  if requested = `Native && actual <> `Native then Error "native request ran on closures"
  else if requested = `Closure && actual <> `Closure then Error "closure request ran natively"
  else check ()

let medians t backend =
  List.filter_map
    (fun (k, b) -> if b = backend then Some (k, Num.median !(Hashtbl.find t.lat k)) else None)
    t.keys

(* CPU time of this process (every domain) and of its waited-for
   children (the C compiler), in seconds. With paravirtual steal-time
   accounting the kernel leaves out the time the hypervisor gives to
   other guests, which wall-clock time does not. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let gc_snapshot () =
  Gc.minor ();
  Gc.quick_stat ()

(* GC work per request between two snapshots. Snapshots force a minor
   collection, which folds the worker domains' counts in. *)
let gc_per_request (g0 : Gc.stat) (g1 : Gc.stat) n =
  let n = float_of_int (max 1 n) in
  [
    ("gc.minor_words_per_req", (g1.Gc.minor_words -. g0.Gc.minor_words) /. n);
    ("gc.promoted_words_per_req", (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. n);
    ( "gc.minor_collections_per_req",
      float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections) /. n );
    ( "gc.major_collections_per_req",
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) /. n );
  ]

let ratio hits lookups = if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups

(* A measured phase: its tally, wall time, and the counters read from
   the layers' public stats functions around it. *)
type phase = {
  tally : tally;
  elapsed_s : float;
  cpu_s : float;
  counters : (string * float) list;
}

(* The bounded end-to-end metric of one measured phase: CPU time per
   completed request. It includes the benchmark's own work between
   requests (checking each result, a few percent). *)
let e2e ph =
  let completed = ph.tally.attempted - ph.tally.failed in
  [ ("cpu_ms", 1e3 *. ph.cpu_s /. float_of_int (max 1 completed), "ms") ]

(* Wall-clock metrics of one measured phase: closure_ms and native_ms
   are the geometric mean over items of each item's median latency,
   p50_ms and p99_ms pool every request. They are reported, not
   bounded: on a small shared host they move with the time the
   hypervisor steals, by more than any bound allows. *)
let wall ph =
  let t = ph.tally in
  let completed = float_of_int (t.attempted - t.failed) in
  [
    ("closure_ms", Num.geomean (List.map snd (medians t `Closure)), "ms");
    ("native_ms", Num.geomean (List.map snd (medians t `Native)), "ms");
    ("rps", completed /. ph.elapsed_s, "1/s");
    ("p50_ms", Num.median t.all, "ms");
    ("p99_ms", Num.percentile t.all 99., "ms");
  ]

(* Service counters over a phase, and the latency split the service
   reports per response (queue wait, then processing). *)
let service_counters (s0 : Service.stats) (s1 : Service.stats) ~waits ~runs =
  [
    ("service.wait_ms_p50", Num.median waits);
    ("service.wait_ms_p99", Num.percentile waits 99.);
    ("service.run_ms_p50", Num.median runs);
    ("service.peak_queue", float_of_int s1.Service.peak_queue);
    ("service.shed", float_of_int (s1.Service.shed - s0.Service.shed));
    ("service.rejected", float_of_int (s1.Service.rejected - s0.Service.rejected));
  ]

(* Latencies of the passes run with spans and of those run without,
   for the tracing overhead. Traced phases alternate whole passes, so
   both halves see the same items under the same machine load. *)
type split = { with_spans : tally; without : tally }

let split () = { with_spans = tally (); without = tally () }

(* Passes alternate: even ones record spans. *)
let spans_on ~traced pass =
  let on = traced && pass mod 2 = 0 in
  Spans.enabled := on;
  on

let record_split sp ~spans ~name ~backend ~ms =
  record (if spans then sp.with_spans else sp.without) ~name ~backend ~ms (Ok ())

(* Overhead of tracing: median time of the same item with spans over
   without, geometric mean over items, in percent. *)
let split_overhead sp =
  let pairs =
    List.filter_map
      (fun (k, _) ->
        match (Hashtbl.find_opt sp.without.lat k, Hashtbl.find_opt sp.with_spans.lat k) with
        | Some u, Some t -> Some (Num.median !t /. Num.median !u)
        | _ -> None)
      sp.with_spans.keys
  in
  100. *. (Num.geomean pairs -. 1.)

let merge_into dst src =
  dst.attempted <- dst.attempted + src.attempted;
  dst.failed <- dst.failed + src.failed;
  dst.failures <- List.filteri (fun q _ -> q < 8) (dst.failures @ src.failures)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  setup_s : float;
  reference_s : float;
  total : tally;  (** every output checked in the run *)
  end_to_end : (string * float * string) list;  (** untraced run *)
  wall : (string * float * string) list;  (** wall-clock metrics, untraced phase *)
  per_layer : (string * float) list;  (** traced run *)
  table : string list;
  notes : string list;
  items : (string * float list) list;  (** latencies by item@backend, measured phase *)
}

let items t = List.map (fun (k, _) -> (k, List.rev !(Hashtbl.find t.lat k))) t.keys

let timed f =
  let t0 = now () in
  let v = f () in
  (v, float_of_int (now () - t0) /. 1e9)

(* Set-up is timed in CPU seconds, like cpu_ms and for the same reason:
   it does not move with steal time. *)
let cpu_timed f =
  let c0 = cpu_s () in
  let v = f () in
  (v, cpu_s () -. c0)

(* ------------------------------------------------------------------ *)
(* cold_compile                                                        *)
(* ------------------------------------------------------------------ *)

type cold = { c_entries : C.entry list; c_svc : Service.t }

let cold_setup ~seed =
  let entries = C.cold (C.shapes ~seed) in
  let svc = Service.create ~domains:1 () in
  (* Warm-up: one request per backend, which also probes the compiler. *)
  let spmv = List.find (fun e -> e.C.shape.P.name = "spmv") entries in
  List.iter
    (fun b -> ignore (Service.eval svc (P.request spmv.C.shape b)))
    [ `Closure; `Native ];
  { c_entries = entries; c_svc = svc }

(* One pass: every shape under both backends. Closure requests cost
   milliseconds and native ones hundreds (cc), so each pass sends
   [closure_repeats] closure requests per shape for one native one,
   giving both medians enough samples in the same run. The closure
   requests go round robin over the shapes in runs of [closure_repeats]
   between consecutive native ones, so they sample the whole pass, not
   one stretch of it. *)
let closure_repeats = 24

let cold_requests st =
  let shapes = Array.of_list st.c_entries in
  let m = Array.length shapes in
  List.concat
    (List.init m (fun j ->
         List.init closure_repeats (fun r -> (shapes.(((j * closure_repeats) + r) mod m), `Closure))
         @ [ (shapes.(j), `Native) ]))

(* One request at a time through the service, with the compiled-kernel
   and plan caches cleared before each, in full passes over the
   catalogue: a new pass starts while time is left, and every pass
   completes, so each run measures the same request mix. *)
let cold_untraced st ~seconds =
  let t = tally () in
  let reqs = Array.of_list (cold_requests st) in
  let waits = ref [] and runs = ref [] in
  let ch = ref 0 and cl = ref 0 and coal = ref 0 and ph = ref 0 and pl = ref 0 in
  let b0 = Compile.backend_stats () and s0 = Service.stats st.c_svc in
  let g0 = gc_snapshot () in
  let deadline = deadline_after seconds in
  let t_start = now () in
  let c_start = cpu_s () in
  let i = ref 0 in
  while !i mod Array.length reqs <> 0 || (!i = 0 || now () < deadline) do
    let e, backend = reqs.(!i mod Array.length reqs) in
    Compile.cache_clear ();
    Autoschedule.cache_clear ();
    let before = Service.stats st.c_svc in
    let t0 = now () in
    let r = Service.eval st.c_svc (P.request e.C.shape backend) in
    let ms = Num.ms_of_ns (now () - t0) in
    let after = Service.stats st.c_svc in
    let cs = Compile.cache_stats () and ps = Autoschedule.cache_stats () in
    ch := !ch + cs.Compile.hits;
    cl := !cl + cs.Compile.hits + cs.Compile.misses;
    coal := !coal + cs.Compile.coalesced;
    ph := !ph + ps.Plan_cache.hits;
    pl := !pl + ps.Plan_cache.hits + ps.Plan_cache.misses;
    let actual = if after.Service.exec_native > before.Service.exec_native then `Native else `Closure in
    record t ~name:e.C.shape.P.name ~backend ~ms
      (match r with
      | Error d -> Error (Diag.to_string d)
      | Ok resp ->
          waits := Int64.to_float resp.Service.wait_ns /. 1e6 :: !waits;
          runs := Int64.to_float resp.Service.run_ns /. 1e6 :: !runs;
          verdict ~requested:backend ~actual (fun () ->
              Check.check (Lazy.force e.C.reference) resp.Service.tensor));
    incr i
  done;
  let elapsed_s = float_of_int (now () - t_start) /. 1e9 in
  let cpu = cpu_s () -. c_start in
  let g1 = gc_snapshot () in
  let b1 = Compile.backend_stats () and s1 = Service.stats st.c_svc in
  {
    tally = t;
    elapsed_s;
    cpu_s = cpu;
    counters =
      [
        ("plan_cache.hit_ratio", ratio !ph !pl);
        ("compile.cache_hit_ratio", ratio !ch !cl);
        ("compile.coalesced", float_of_int !coal);
        ("native.downgrades", float_of_int (b1.Compile.downgrades - b0.Compile.downgrades));
      ]
      @ service_counters s0 s1 ~waits:!waits ~runs:!runs
      @ gc_per_request g0 g1 t.attempted;
  }

(* Replay results carry the per-request counts the layers report. *)
type replay_counts = {
  mutable considered : int list;
  mutable imp_nodes : int list;
  mutable fires : int list;
  mutable c_bytes : int list;
  mutable assemble_ns : int list;
}

let counts () = { considered = []; imp_nodes = []; fires = []; c_bytes = []; assemble_ns = [] }

let mean_int l = Num.mean (List.map float_of_int l)

(* Replay one request and check it; [Some ms] when it passed. *)
let replay_one t cnt ~rid (e : C.entry) backend =
  match P.replay ~rid e.C.shape backend with
  | exception Failure msg ->
      record t ~name:e.C.shape.P.name ~backend ~ms:0. (Error msg);
      None
  | r ->
      (* The request span itself, not the probes after it. *)
      let ms = Num.ms_of_ns r.P.r_request_ns in
      Option.iter (fun c -> cnt.considered <- c :: cnt.considered) r.P.r_considered;
      cnt.imp_nodes <- r.P.r_imp_nodes :: cnt.imp_nodes;
      cnt.fires <- r.P.r_fires :: cnt.fires;
      Option.iter (fun b -> cnt.c_bytes <- b :: cnt.c_bytes) r.P.r_c_bytes;
      Option.iter (fun raw -> cnt.assemble_ns <- (r.P.r_run_ns - raw) :: cnt.assemble_ns) r.P.r_raw_ns;
      let v =
        verdict ~requested:backend ~actual:r.P.r_backend (fun () ->
            Check.check (Lazy.force e.C.reference) r.P.r_result)
      in
      record t ~name:e.C.shape.P.name ~backend ~ms v;
      if v = Ok () then Some ms else None

let replay_metrics cnt =
  [
    ("autoschedule.considered", mean_int cnt.considered);
    ("lower.imp_nodes", mean_int cnt.imp_nodes);
    ("opt.fires", mean_int cnt.fires);
    ("codegen_c.c_bytes", mean_int cnt.c_bytes);
    ("tensor.assemble_us", mean_int cnt.assemble_ns /. 1e3);
  ]

(* The same requests, replayed layer by layer, caches cleared before
   each, passes alternating with and without spans. *)
let cold_replay st ~seconds =
  let t = tally () and cnt = counts () and sp = split () in
  let reqs = Array.of_list (cold_requests st) in
  let n = Array.length reqs in
  let deadline = deadline_after seconds in
  let i = ref 0 in
  (* At least two passes: one with spans and one without. *)
  while !i mod n <> 0 || (!i < 2 * n || now () < deadline) do
    let spans = spans_on ~traced:true (!i / n) in
    let e, backend = reqs.(!i mod n) in
    Compile.cache_clear ();
    Autoschedule.cache_clear ();
    (match replay_one t cnt ~rid:(!i + 1) e backend with
    | Some ms -> record_split sp ~spans ~name:e.C.shape.P.name ~backend ~ms
    | None -> ());
    incr i
  done;
  Spans.enabled := true;
  (t, replay_metrics cnt, sp)

(* ------------------------------------------------------------------ *)
(* serve_mix                                                           *)
(* ------------------------------------------------------------------ *)

type serve = {
  s_mix : (C.entry * Compile.backend) array;
  s_svc : Service.t;
  s_rng : Random.State.t;  (** the order of each pass over the mix *)
}

let window = 2

let serve_setup ~seed =
  let mix = Array.of_list (C.serve (C.shapes ~seed)) in
  let svc = Service.create ~domains:2 () in
  (* Warm the plan and compiled-kernel caches (two native builds). *)
  Array.iter (fun (e, b) -> ignore (Service.eval svc (P.request e.C.shape b))) mix;
  { s_mix = mix; s_svc = svc; s_rng = Random.State.make [| seed; 0x5e7e |] }

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Closed loop from the main domain with [window] requests outstanding,
   in passes over the mix, each in a new seeded order so that every
   entry runs beside every other one. With [traced], passes over the mix
   alternate with and without spans around each submit and await. A
   request's latency runs from submit to the return of await. *)
let serve_loop st ~seconds ~traced =
  let t = tally () and sp = split () in
  let n = Array.length st.s_mix in
  let q = Queue.create () in
  let waits = ref [] and runs = ref [] in
  let native_done = ref 0 in
  let wrap name rid f =
    if spans_on ~traced (rid / n) then begin
      Spans.set_rid rid;
      Spans.with_span name f
    end
    else f ()
  in
  let order = Array.init n Fun.id in
  let submit i =
    if i mod n = 0 then shuffle st.s_rng order;
    let e, backend = st.s_mix.(order.(i mod n)) in
    let t0 = now () in
    match wrap "service.submit" i (fun () -> Service.submit st.s_svc (P.request e.C.shape backend)) with
    | Ok ticket -> Queue.push (i, e, backend, t0, ticket) q
    | Error d -> record t ~name:e.C.shape.P.name ~backend ~ms:0. (Error (Diag.to_string d))
  in
  let cs0 = Compile.cache_stats () and ps0 = Autoschedule.cache_stats () in
  let b0 = Compile.backend_stats () and s0 = Service.stats st.s_svc in
  let g0 = gc_snapshot () in
  let deadline = deadline_after seconds in
  let t_start = now () in
  let c_start = cpu_s () in
  let next = ref 0 in
  while !next < window do
    submit !next;
    incr next
  done;
  while not (Queue.is_empty q) do
    let i, e, backend, t0, ticket = Queue.pop q in
    let r = wrap "service.await" i (fun () -> Service.await ticket) in
    let ms = Num.ms_of_ns (now () - t0) in
    if now () < deadline then begin
      submit !next;
      incr next
    end;
    let v =
      match r with
      | Error d -> Error (Diag.to_string d)
      | Ok resp ->
          waits := Int64.to_float resp.Service.wait_ns /. 1e6 :: !waits;
          runs := Int64.to_float resp.Service.run_ns /. 1e6 :: !runs;
          if backend = `Native then incr native_done;
          (* Per-request backends are checked in aggregate below. *)
          Check.check (Lazy.force e.C.reference) resp.Service.tensor
    in
    record t ~name:e.C.shape.P.name ~backend ~ms v;
    if v = Ok () then
      record_split sp ~spans:(traced && (i / n) mod 2 = 0) ~name:e.C.shape.P.name ~backend ~ms
  done;
  Spans.enabled := true;
  let elapsed_s = float_of_int (now () - t_start) /. 1e9 in
  let cpu = cpu_s () -. c_start in
  let g1 = gc_snapshot () in
  let cs1 = Compile.cache_stats () and ps1 = Autoschedule.cache_stats () in
  let b1 = Compile.backend_stats () and s1 = Service.stats st.s_svc in
  (* The service counts which executor ran each request; every native
     request must have run natively. A shortfall is counted as failed. *)
  let ran_native = s1.Service.exec_native - s0.Service.exec_native in
  let downgraded = s1.Service.backend_downgraded - s0.Service.backend_downgraded in
  if ran_native <> !native_done || downgraded > 0 then
    for _ = 1 to max downgraded (abs (!native_done - ran_native)) do
      note_failure t "native request ran on closures"
    done;
  let d f = f cs1 - f cs0 in
  let hits = d (fun c -> c.Compile.hits) and misses = d (fun c -> c.Compile.misses) in
  let phits = ps1.Plan_cache.hits - ps0.Plan_cache.hits in
  let plookups = phits + ps1.Plan_cache.misses - ps0.Plan_cache.misses in
  ( {
    tally = t;
    elapsed_s;
    cpu_s = cpu;
    counters =
      [
        ("plan_cache.hit_ratio", ratio phits plookups);
        ("compile.cache_hit_ratio", ratio hits (hits + misses));
        ("compile.coalesced", float_of_int (d (fun c -> c.Compile.coalesced)));
        ("native.downgrades", float_of_int (b1.Compile.downgrades - b0.Compile.downgrades));
      ]
      @ service_counters s0 s1 ~waits:!waits ~runs:!runs
      @ gc_per_request g0 g1 t.attempted;
  },
    sp )

(* Replay every mix entry [reps] times, layer by layer, caches warm. *)
let serve_replay st ~reps =
  let t = tally () and cnt = counts () in
  Array.iteri
    (fun j (e, backend) ->
      for r = 1 to reps do
        ignore (replay_one t cnt ~rid:(1_000_000 + (j * reps) + r) e backend)
      done)
    st.s_mix;
  (t, replay_metrics cnt)

(* ------------------------------------------------------------------ *)
(* kernel_run                                                          *)
(* ------------------------------------------------------------------ *)

type kernels = {
  k_runners : (C.item * Compile.backend * C.runner) array;
  k_adj : Tensor.t;
}

let kernel_setup ~seed =
  let items, adj = C.items ~seed in
  let names = List.map (fun it -> it.C.name) items in
  if names <> Layers.items then failwith "kernel_run: item list and metric names disagree";
  let runners =
    List.concat_map
      (fun it -> List.map (fun b -> (it, b, it.C.prepare b)) [ `Closure; `Native ])
      items
  in
  (* One warm run each, so lazy first-run work lands in set-up. *)
  List.iter (fun (_, _, r) -> ignore (r.C.run ())) runners;
  { k_runners = Array.of_list runners; k_adj = adj }

type kernel_extra = {
  iterations : (string, int) Hashtbl.t;
  raw : (string, float list ref) Hashtbl.t;  (** item@backend -> raw-run ms *)
}

(* Round robin over (item, backend) runners, in full passes (a new pass
   starts while time is left). The executor a run used is read from the
   backend counters around it. With [traced], passes alternate with and
   without spans; in a traced pass each run gets a span named after its
   layer, followed by probes: the raw (unassembled) run, and for the
   graph items built on a transpose, Ops.transpose. *)
let kernel_loop st ~seconds ~traced =
  let t = tally () and sp = split () in
  let extra = { iterations = Hashtbl.create 8; raw = Hashtbl.create 16 } in
  let n = Array.length st.k_runners in
  let b0 = Compile.backend_stats () in
  let g0 = gc_snapshot () in
  let deadline = deadline_after seconds in
  let t_start = now () in
  let c_start = cpu_s () in
  let i = ref 0 in
  (* At least two passes, so that a traced loop has one with spans and
     one without. *)
  while !i mod n <> 0 || (!i < 2 * n || now () < deadline) do
    let it, backend, runner = st.k_runners.(!i mod n) in
    let graph = List.mem it.C.name Layers.graph_algos in
    let span_name = if graph then "graph." ^ it.C.name else "exec.run" in
    let spans = spans_on ~traced (!i / n) in
    if spans then Spans.set_rid (!i + 1);
    let before = Compile.backend_stats () in
    let t0 = now () in
    let out =
      if spans then Spans.with_span "request" (fun () -> Spans.with_span span_name runner.C.run)
      else runner.C.run ()
    in
    let ms = Num.ms_of_ns (now () - t0) in
    let after = Compile.backend_stats () in
    let actual =
      if
        after.Compile.native_runs > before.Compile.native_runs
        && after.Compile.closure_runs = before.Compile.closure_runs
        && after.Compile.downgrades = before.Compile.downgrades
      then `Native
      else `Closure
    in
    Option.iter (fun k -> Hashtbl.replace extra.iterations it.C.name k) (it.C.iterations out);
    let v = verdict ~requested:backend ~actual (fun () -> it.C.check out) in
    record t ~name:it.C.name ~backend ~ms v;
    if v = Ok () then record_split sp ~spans ~name:it.C.name ~backend ~ms;
    if spans then begin
      Option.iter
        (fun raw ->
          let t0 = now () in
          Spans.with_span "probe.run_raw" raw;
          let k = key it.C.name backend in
          let ms = Num.ms_of_ns (now () - t0) in
          match Hashtbl.find_opt extra.raw k with
          | Some l -> l := ms :: !l
          | None -> Hashtbl.add extra.raw k (ref [ ms ]))
        runner.C.raw;
      if it.C.name = "bfs" || it.C.name = "bellman_ford" then
        ignore (Spans.with_span "ops.transpose" (fun () -> Ops.transpose st.k_adj))
    end;
    incr i
  done;
  Spans.enabled := true;
  let elapsed_s = float_of_int (now () - t_start) /. 1e9 in
  let cpu = cpu_s () -. c_start in
  let g1 = gc_snapshot () in
  let b1 = Compile.backend_stats () in
  ( {
      tally = t;
      elapsed_s;
    cpu_s = cpu;
      counters =
        ("native.downgrades", float_of_int (b1.Compile.downgrades - b0.Compile.downgrades))
        :: gc_per_request g0 g1 t.attempted;
    },
    extra,
    sp )

(* Per-item run times, graph iteration counts, and result assembly
   (time-to-result minus the raw run) from the traced loop. *)
let kernel_metrics t extra =
  let item_metrics =
    List.concat_map
      (fun it ->
        List.concat_map
          (fun b ->
            let k = it ^ "@" ^ b in
            let l = match Hashtbl.find_opt t.lat k with Some l -> !l | None -> [] in
            [
              (Printf.sprintf "exec.run_ms.%s.%s" it b, if l = [] then 0. else Num.median l);
              (Printf.sprintf "exec.run_ms_p90.%s.%s" it b, if l = [] then 0. else Num.percentile l 90.);
            ])
          Layers.backends)
      Layers.items
  in
  let graph_metrics =
    List.concat_map
      (fun a ->
        let iters = Option.value ~default:0 (Hashtbl.find_opt extra.iterations a) in
        ("graph.iterations." ^ a, float_of_int iters)
        :: List.map
             (fun b ->
               let m = List.assoc (Printf.sprintf "exec.run_ms.%s.%s" a b) item_metrics in
               (Printf.sprintf "graph.ms_per_iter.%s.%s" a b, if iters > 0 then m /. float_of_int iters else 0.))
             Layers.backends)
      Layers.graph_algos
  in
  let assemble =
    Hashtbl.fold
      (fun k raw acc ->
        match Hashtbl.find_opt t.lat k with
        | Some full -> (Num.median !full -. Num.median !raw) :: acc
        | None -> acc)
      extra.raw []
  in
  (("tensor.assemble_us", 1e3 *. Num.mean assemble) :: item_metrics) @ graph_metrics

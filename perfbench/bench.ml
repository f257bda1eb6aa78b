(* perfbench: the request-path benchmark.

     bench.exe --workload W --seed N --seconds S --trace T
               [--setup-only] [--out DIR]

   with W one of cold_compile, serve_mix, kernel_run and T 0 or 1.

   Prints a human-readable report, then one JSON line: with --trace 0
   the end-to-end metrics of an untraced run, with --trace 1 the
   per-layer metrics of a traced run (which spends half its time on an
   untraced reference phase to measure the tracing overhead). Exits 1
   when any output is wrong, 2 on bad usage or a pinned variable set in
   the environment. run.py builds this program and drives it. *)

open Taco
module Service = Taco_service.Service
module W = Workloads
module C = Catalog

(* Variables that change what is measured: OCAMLRUNPARAM moves GC
   sizing (served throughput by ~1.7x), the others swap the compiler,
   keep artifacts on disk, or add logging to the request path. *)
let pinned = [ "OCAMLRUNPARAM"; "TACO_CC"; "TACO_NATIVE_KEEP"; "TACO_LOG"; "TACO_EVENTS" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload {cold_compile|serve_mix|kernel_run} --seed N --seconds S \
     --trace {0|1} [--setup-only] [--out DIR]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
  out : string option;
}

let parse_args () =
  let a = ref { workload = ""; seed = 1; seconds = 10.; trace = false; setup_only = false; out = None } in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        a := { !a with workload = w };
        go rest
    | "--seed" :: s :: rest ->
        a := { !a with seed = (match int_of_string_opt s with Some n -> n | None -> usage ()) };
        go rest
    | "--seconds" :: s :: rest ->
        a := { !a with seconds = (match float_of_string_opt s with Some x when x > 0. -> x | _ -> usage ()) };
        go rest
    | "--trace" :: t :: rest ->
        a := { !a with trace = (match t with "0" -> false | "1" -> true | _ -> usage ()) };
        go rest
    | "--setup-only" :: rest ->
        a := { !a with setup_only = true };
        go rest
    | "--out" :: d :: rest ->
        a := { !a with out = Some d };
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !a

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        nan (String.split_on_char '\n' status)

let environment () =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("compiler_id", if Native.available () then Native.compiler_id () else "none");
  ]

(* ------------------------------------------------------------------ *)
(* Running one workload                                                *)
(* ------------------------------------------------------------------ *)

let fail_self_test what = function
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "perfbench: correctness gate self-test failed (%s): %s\n" what e;
      exit 1

(* Every run first proves its gate: a correct output passes, perturbed
   copies of it fail, and a native request served by closures fails. *)
let self_test check good =
  fail_self_test "perturbed output" (Check.self_test check good);
  match W.verdict ~requested:`Native ~actual:`Closure (fun () -> Ok ()) with
  | Ok () -> fail_self_test "backend" (Error "a downgraded native run passes")
  | Error _ -> ()

let fill_per_layer values =
  List.map (fun (name, _, _) -> (name, Option.value ~default:0. (List.assoc_opt name values))) Layers.metrics

type outcome = Setup of float | Done of W.result

(* The wall-clock metrics of the untraced phase, as per-layer ones. *)
let wall_layer ph = List.map (fun (n, v, _) -> ("wall." ^ n, v)) (W.wall ph)

let run_cold a =
  let st, setup_s = W.cpu_timed (fun () -> W.cold_setup ~seed:a.seed) in
  if a.setup_only then Setup setup_s
  else begin
    let (), reference_s =
      W.timed (fun () -> List.iter (fun e -> ignore (Lazy.force e.C.reference)) st.W.c_entries)
    in
    let e = List.hd st.W.c_entries in
    let reference = Lazy.force e.C.reference in
    self_test (Check.check reference) (Check.tensor_of_reference reference);
    let total = W.tally () in
    let result =
      if not a.trace then begin
        let ph = W.cold_untraced st ~seconds:a.seconds in
        W.merge_into total ph.W.tally;
        let n = List.length ph.W.tally.W.all in
        {
          W.setup_s;
          reference_s;
          total;
          end_to_end = W.e2e ph;
          wall = W.wall ph;
          items = W.items ph.W.tally;
          per_layer = [];
          table = [];
          notes =
            [
              Printf.sprintf
                "%d cold requests in %.1f s; p99 has %d sample(s) beyond it (one request at a \
                 time: read it as the slowest shape's cold latency)"
                n ph.W.elapsed_s (Num.beyond ph.W.tally.W.all 99.);
            ];
        }
      end
      else begin
        (* The served path (for the counters), then the layer-by-layer
           replay, passes alternating with and without spans. *)
        let ph = W.cold_untraced st ~seconds:(a.seconds /. 2.) in
        let tr, counts, sp = W.cold_replay st ~seconds:(a.seconds /. 2.) in
        List.iter (W.merge_into total) [ ph.W.tally; tr ];
        let overhead = W.split_overhead sp in
        {
          W.setup_s;
          reference_s;
          total;
          end_to_end = [];
          wall = W.wall ph;
          items = W.items ph.W.tally;
          per_layer =
            fill_per_layer
              ((("trace.overhead_pct", overhead) :: wall_layer ph)
              @ ph.W.counters @ counts @ Layers.of_spans ());
          table = Layers.table ();
          notes =
            [
              Printf.sprintf
                "tracing overhead %.1f%%: layer-by-layer replay, passes with spans vs \
                 without, same (shape, backend) pairs"
                overhead;
            ];
        }
      end
    in
    Service.shutdown st.W.c_svc;
    Done result
  end

let run_serve a =
  let st, setup_s = W.cpu_timed (fun () -> W.serve_setup ~seed:a.seed) in
  if a.setup_only then Setup setup_s
  else begin
    let (), reference_s =
      W.timed (fun () -> Array.iter (fun (e, _) -> ignore (Lazy.force e.C.reference)) st.W.s_mix)
    in
    let e, _ = st.W.s_mix.(0) in
    let reference = Lazy.force e.C.reference in
    self_test (Check.check reference) (Check.tensor_of_reference reference);
    let total = W.tally () in
    let result =
      if not a.trace then begin
        let ph, _ = W.serve_loop st ~seconds:a.seconds ~traced:false in
        W.merge_into total ph.W.tally;
        let all = ph.W.tally.W.all in
        {
          W.setup_s;
          reference_s;
          total;
          end_to_end = W.e2e ph;
          wall = W.wall ph;
          items = W.items ph.W.tally;
          per_layer = [];
          table = [];
          notes =
            [
              Printf.sprintf
                "closed loop, %d outstanding, 2 workers: %d requests in %.1f s; p99 has %d \
                 samples beyond it"
                W.window (List.length all) ph.W.elapsed_s (Num.beyond all 99.);
            ];
        }
      end
      else begin
        let ph, _ = W.serve_loop st ~seconds:(a.seconds /. 2.) ~traced:false in
        let tph, sp = W.serve_loop st ~seconds:(a.seconds /. 2.) ~traced:true in
        let rt, counts = W.serve_replay st ~reps:5 in
        List.iter (W.merge_into total) [ ph.W.tally; tph.W.tally; rt ];
        let overhead = W.split_overhead sp in
        {
          W.setup_s;
          reference_s;
          total;
          end_to_end = [];
          wall = W.wall ph;
          items = W.items ph.W.tally;
          per_layer =
            fill_per_layer
              ((("trace.overhead_pct", overhead) :: wall_layer ph)
              @ ph.W.counters @ counts @ Layers.of_spans ());
          table = Layers.table ();
          notes =
            [
              Printf.sprintf
                "tracing overhead %.1f%%: closed loop, passes with submit/await spans vs \
                 without; the request rows are a warm layer-by-layer replay of the mix"
                overhead;
            ];
        }
      end
    in
    Service.shutdown st.W.s_svc;
    Done result
  end

let run_kernels a =
  let st, setup_s = W.cpu_timed (fun () -> W.kernel_setup ~seed:a.seed) in
  if a.setup_only then Setup setup_s
  else begin
    let (), reference_s = W.timed C.force_references in
    let it, _, runner = st.W.k_runners.(0) in
    (match runner.C.run () with
    | C.Tensor_out good -> self_test (fun t -> it.C.check (C.Tensor_out t)) good
    | _ -> fail_self_test "kernel_run" (Error "the first item does not produce a tensor"));
    let total = W.tally () in
    if not a.trace then begin
      let ph, _, _ = W.kernel_loop st ~seconds:a.seconds ~traced:false in
      W.merge_into total ph.W.tally;
      let all = ph.W.tally.W.all in
      Done
        {
          W.setup_s;
          reference_s;
          total;
          end_to_end = W.e2e ph;
          wall = W.wall ph;
          items = W.items ph.W.tally;
          per_layer = [];
          table = [];
          notes =
            [
              Printf.sprintf "%d runs in %.1f s; p99 has %d sample(s) beyond it" (List.length all)
                ph.W.elapsed_s (Num.beyond all 99.);
            ];
        }
    end
    else begin
      let ph, _, _ = W.kernel_loop st ~seconds:(a.seconds /. 2.) ~traced:false in
      let tph, extra, sp = W.kernel_loop st ~seconds:(a.seconds /. 2.) ~traced:true in
      W.merge_into total ph.W.tally;
      W.merge_into total tph.W.tally;
      let overhead = W.split_overhead sp in
      Done
        {
          W.setup_s;
          reference_s;
          total;
          end_to_end = [];
          wall = W.wall ph;
          items = W.items ph.W.tally;
          per_layer =
            fill_per_layer
              ((("trace.overhead_pct", overhead) :: wall_layer ph)
              @ ph.W.counters @ W.kernel_metrics tph.W.tally extra @ Layers.of_spans ());
          table = Layers.table ();
          notes =
            [
              Printf.sprintf
                "tracing overhead %.1f%%: passes with spans vs without, median run time of the \
                 same items"
                overhead;
            ];
        }
    end
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
         ms)
  ^ "}"

(* The request-path metrics by the names they carry in the workload
   descriptions: each workload measures some of them directly. *)
let named_metrics workload ~setup_s ~failed_ratio ~rss wall =
  let v name = List.assoc_opt name (List.map (fun (n, v, _) -> (n, v)) wall) in
  let on w name = if workload = w then v name else None in
  [
    ("setup_s", Some setup_s, "s");
    ("cold_closure_ms", on "cold_compile" "closure_ms", "ms");
    ("cold_native_ms", on "cold_compile" "native_ms", "ms");
    ("serve_rps", on "serve_mix" "rps", "req/s");
    ("serve_p50_ms", on "serve_mix" "p50_ms", "ms");
    ("serve_p99_ms", on "serve_mix" "p99_ms", "ms");
    ("run_closure_ms", on "kernel_run" "closure_ms", "ms");
    ("run_native_ms", on "kernel_run" "native_ms", "ms");
    ("failed_ratio", Some failed_ratio, "ratio");
    ("peak_rss_mb", Some rss, "MB");
  ]

let write_report a (r : W.result) ~metrics ~env =
  match a.out with
  | None -> ()
  | Some dir ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let base =
        Printf.sprintf "%s/%s-seed%d%s" dir a.workload a.seed (if a.trace then "-trace" else "")
      in
      if a.trace then Spans.write_chrome (base ^ ".trace.json");
      Out_channel.with_open_text (base ^ ".json") (fun oc ->
          Printf.fprintf oc
            "{\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b,\n\
            \ \"environment\": {%s},\n\
            \ \"attempted\": %d, \"failed\": %d, \"failures\": [%s],\n\
            \ \"reference_s\": %s,\n\
            \ \"metrics\": %s,\n\
            \ \"items_ms\": {%s}}\n"
            a.workload a.seed (number a.seconds) a.trace
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (Spans.json_string v)) env))
            r.W.total.W.attempted r.W.total.W.failed
            (String.concat ", " (List.map Spans.json_string r.W.total.W.failures))
            (number r.W.reference_s) (json_metrics metrics)
            (String.concat ",\n  "
               (List.map
                  (fun (k, l) -> Printf.sprintf "%S: [%s]" k (String.concat ", " (List.map number l)))
                  r.W.items)))

let () =
  let a = parse_args () in
  (match List.filter (fun v -> Sys.getenv_opt v <> None) pinned with
  | [] -> ()
  | set ->
      Printf.eprintf "perfbench: refusing to run with %s set; unset it to measure the pinned environment\n"
        (String.concat ", " set);
      exit 2);
  let run =
    match a.workload with
    | "cold_compile" -> run_cold
    | "serve_mix" -> run_serve
    | "kernel_run" -> run_kernels
    | _ -> usage ()
  in
  match run a with
  | Setup s -> Printf.printf "{\"setup_s\": %s}\n" (number s)
  | Done r ->
      let env = environment () in
      let rss = peak_rss_mb () in
      let t = r.W.total in
      let failed_ratio = float_of_int t.W.failed /. float_of_int (max 1 t.W.attempted) in
      Printf.printf "== perfbench %s  seed=%d  seconds=%s  trace=%d\n" a.workload a.seed
        (number a.seconds) (if a.trace then 1 else 0);
      Printf.printf "environment: %s\n"
        (String.concat "  " (List.map (fun (k, v) -> k ^ "=" ^ v) env));
      Printf.printf "set-up %.3f s CPU, references %.3f s; %d outputs checked, %d failed\n"
        r.W.setup_s r.W.reference_s t.W.attempted t.W.failed;
      List.iter (fun f -> Printf.printf "  FAILED %s\n" f) t.W.failures;
      List.iter (fun n -> Printf.printf "note: %s\n" n) r.W.notes;
      let metrics =
        if a.trace then begin
          print_endline "per-layer self time (traced run):";
          List.iter print_endline r.W.table;
          print_endline "per-layer metrics:";
          List.iter
            (fun (n, u, _) -> Printf.printf "  %-36s %14.4f %s\n" n (List.assoc n r.W.per_layer) u)
            Layers.metrics;
          List.map (fun (n, u, _) -> (n, List.assoc n r.W.per_layer, u)) Layers.metrics
        end
        else begin
          print_endline
            "request-path metrics, wall clock, reported without a bound (n/a: measured by another \
             workload):";
          List.iter
            (fun (n, v, u) ->
              match v with
              | Some v -> Printf.printf "  %-16s %14.4f %s\n" n v u
              | None -> Printf.printf "  %-16s %14s %s\n" n "n/a" u)
            (named_metrics a.workload ~setup_s:r.W.setup_s ~failed_ratio ~rss r.W.wall);
          print_endline "end-to-end metrics (untraced run; the bounded ones):";
          let ms = (("setup_s", r.W.setup_s, "s") :: r.W.end_to_end) @ [ ("peak_rss_mb", rss, "MB") ] in
          List.iter (fun (n, v, u) -> Printf.printf "  %-16s %14.4f %s\n" n v u) ms;
          ms
        end
      in
      write_report a r ~metrics ~env;
      let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
      if not finite then print_endline "some metric is not a finite number";
      let correct = t.W.failed = 0 && finite in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct
        t.W.attempted t.W.failed (json_metrics metrics);
      if not correct then exit 1

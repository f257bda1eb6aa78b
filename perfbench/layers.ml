(* Per-layer metrics: names, units, directions, and how spans map to
   layers. Every traced run reports every metric below; a layer a
   workload bypasses reports 0 there. *)

(* The kernel_run items, in catalogue order. *)
let items =
  [ "spgemm_ws"; "mttkrp_ws"; "add4_merge"; "add4_ws"; "spgemm_par"; "pagerank"; "bfs"; "bellman_ford"; "triangles" ]

let graph_algos = [ "pagerank"; "bfs"; "bellman_ford"; "triangles" ]

let backends = [ "closure"; "native" ]

(* (name, unit, better) *)
let metrics =
  [
    ("parser.parse_us", "us", "lower");
    ("schedule.us", "us", "lower");
    ("stats.collect_us", "us", "lower");
    ("autoschedule.search_us", "us", "lower");
    ("autoschedule.considered", "count", "lower");
    ("plan_cache.hit_ratio", "ratio", "higher");
    ("lower.lower_us", "us", "lower");
    ("lower.imp_nodes", "count", "lower");
    ("opt.optimize_us", "us", "lower");
    ("opt.fires", "count", "lower");
    ("codegen_c.emit_us", "us", "lower");
    ("codegen_c.c_bytes", "bytes", "lower");
    ("compile.build_us", "us", "lower");
    ("compile.cache_hit_ratio", "ratio", "higher");
    ("compile.coalesced", "count", "higher");
    ("native.cc_ms", "ms", "lower");
    ("native.dlopen_us", "us", "lower");
    ("native.downgrades", "count", "lower");
    ("exec.run_us", "us", "lower");
    ("tensor.assemble_us", "us", "lower");
    ("ops.transpose_us", "us", "lower");
    ("service.wait_ms_p50", "ms", "lower");
    ("service.wait_ms_p99", "ms", "lower");
    ("service.run_ms_p50", "ms", "lower");
    ("service.peak_queue", "count", "lower");
    ("service.shed", "count", "lower");
    ("service.rejected", "count", "lower");
    ("gc.minor_words_per_req", "words", "lower");
    ("gc.promoted_words_per_req", "words", "lower");
    ("gc.minor_collections_per_req", "count", "lower");
    ("gc.major_collections_per_req", "count", "lower");
    ("trace.overhead_pct", "%", "lower");
    ("wall.closure_ms", "ms", "lower");
    ("wall.native_ms", "ms", "lower");
    ("wall.rps", "1/s", "higher");
    ("wall.p50_ms", "ms", "lower");
    ("wall.p99_ms", "ms", "lower");
  ]
  @ List.concat_map
      (fun a ->
        ("graph.iterations." ^ a, "count", "lower")
        :: List.map (fun b -> (Printf.sprintf "graph.ms_per_iter.%s.%s" a b, "ms", "lower")) backends)
      graph_algos
  @ List.concat_map
      (fun it ->
        List.concat_map
          (fun b ->
            [
              (Printf.sprintf "exec.run_ms.%s.%s" it b, "ms", "lower");
              (Printf.sprintf "exec.run_ms_p90.%s.%s" it b, "ms", "lower");
            ])
          backends)
      items

(* Span name -> layer (the module family it times). *)
let layer_of_span name =
  match String.index_opt name '.' with
  | None -> name
  | Some i -> (
      match String.sub name 0 i with
      | "codegen_c" -> "lower"
      | "native" -> "exec"
      | "probe" -> "probe"
      | p -> p)

let layer_order = [ "frontend"; "ir"; "stats"; "lower"; "exec"; "tensor"; "service"; "graph"; "ops" ]

(* Per-call mean self time of the spans named [names], summed over the
   names (a layer split across several spans). *)
let self_us tbl names =
  List.fold_left
    (fun acc n ->
      match Hashtbl.find_opt tbl n with
      | Some (self, _) -> acc +. (Num.us_of_ns (List.fold_left ( + ) 0 self) /. float_of_int (List.length self))
      | None -> acc)
    0. names

(* The span-derived per-layer metrics. *)
let of_spans () =
  let tbl = Spans.by_name () in
  [
    ("parser.parse_us", self_us tbl [ "frontend.parse" ]);
    ("schedule.us", self_us tbl [ "ir.concretize"; "ir.schedule" ]);
    ("stats.collect_us", self_us tbl [ "stats.collect" ]);
    ("autoschedule.search_us", self_us tbl [ "ir.autoschedule" ]);
    ("lower.lower_us", self_us tbl [ "lower.lower" ]);
    ("opt.optimize_us", self_us tbl [ "lower.opt" ]);
    ("codegen_c.emit_us", self_us tbl [ "codegen_c.emit" ]);
    ("compile.build_us", self_us tbl [ "exec.compile" ]);
    ("native.cc_ms", self_us tbl [ "native.cc" ] /. 1e3);
    ("native.dlopen_us", self_us tbl [ "native.dlopen" ]);
    ("exec.run_us", self_us tbl [ "exec.run" ]);
    ("ops.transpose_us", self_us tbl [ "ops.transpose" ]);
  ]

let rows tbl =
  let rows = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name (self, _) ->
      let layer = layer_of_span name in
      let calls, ns, names = Option.value ~default:(0, 0, []) (Hashtbl.find_opt rows layer) in
      Hashtbl.replace rows layer
        (calls + List.length self, ns + List.fold_left ( + ) 0 self, name :: names))
    tbl;
  rows

(* The per-layer table. Rows on the request path (spans under a
   [request] root) show each layer's call count, total self time and
   share of the request spans' time; spans outside it (client-side
   service calls, probes) follow without a share. *)
let table () =
  let inside = rows (Spans.by_name ~under:"request" ()) in
  let outside = rows (Spans.by_name ~outside:"request" ()) in
  let root_ns =
    match Hashtbl.find_opt inside "request" with Some (_, ns, _) -> ns | None -> 0
  in
  let total_ns = Hashtbl.fold (fun _ (_, ns, _) acc -> acc + ns) inside 0 in
  let line rows ~share layer =
    match Hashtbl.find_opt rows layer with
    | None -> None
    | Some (calls, ns, names) ->
        Some
          (Printf.sprintf "  %-9s %7d %12.3f %8s   %s" layer calls (Num.ms_of_ns ns)
             (if share && total_ns > 0 then
                Printf.sprintf "%.1f%%" (100. *. float_of_int ns /. float_of_int total_ns)
              else "-")
             (String.concat " " (List.sort_uniq compare names)))
  in
  let order = layer_order @ [ "probe" ] in
  (Printf.sprintf "  %-9s %7s %12s %8s   %s" "layer" "calls" "self_ms" "share" "spans"
  :: List.filter_map (line inside ~share:true) (order @ [ "request" ]))
  @ (if Hashtbl.length outside = 0 then []
     else "  outside the request spans:" :: List.filter_map (line outside ~share:false) order)
  @ [ Printf.sprintf "  (request self time is benchmark glue; %d request spans' self time: %.3f ms)"
        (match Hashtbl.find_opt inside "request" with Some (c, _, _) -> c | None -> 0)
        (Num.ms_of_ns root_ns) ]

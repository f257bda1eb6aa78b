(* Requests as text, and the request path replayed one layer at a time.

   A shape is one request the service can serve: a statement, schedule
   directives, a result format and named operand tensors. The replay
   below runs the path the service runs for it, but as separate calls
   into each layer's public functions, with a benchmark span around
   each: Parser -> Schedule (or Stats + Autoschedule) -> Lower -> Opt ->
   Compile (Codegen_c / cc / dlopen for native builds) -> Kernel run ->
   result assembly. *)

open Taco
module Service = Taco_service.Service
module Parser = Taco_frontend.Parser

type shape = {
  name : string;
  expr : string;
  directives : Service.directive list;
  result : Format.t;
  domains : int option;
  semiring : string option;
  inputs : (string * Tensor.t) list;
}

let shape ?(directives = []) ?domains ?semiring ~result name expr inputs =
  { name; expr; directives; result; domains; semiring; inputs }

let backend_name = function `Closure -> "closure" | `Native -> "native"

let request (s : shape) backend =
  Service.request ~directives:s.directives ~result_format:s.result ?domains:s.domains
    ~backend ?semiring:s.semiring ~expr:s.expr ~inputs:s.inputs ()

let get what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

let get_diag what = function Ok x -> x | Error d -> failwith (what ^ ": " ^ Diag.to_string d)

let is_auto s = List.mem Service.Auto s.directives

let semiring s = Option.map (fun n -> Option.get (Semiring.of_string n)) s.semiring

(* The tensor environment the parser needs, from the statement text:
   the result gets the shape's result format, operands their tensors'. *)
let env s =
  List.map
    (fun (name, order) ->
      let format =
        match List.assoc_opt name s.inputs with
        | Some t -> Tensor.format t
        | None -> s.result
      in
      (name, Tensor_var.make name ~order ~format))
    (Parser.scan_tensors s.expr)

let parse s =
  let env = env s in
  (env, get_diag "parse" (Parser.parse_statement ~tensors:env s.expr))

let apply_directive env sched = function
  | Service.Auto -> sched
  | Service.Reorder (a, b) -> get "reorder" (Schedule.reorder (ivar a) (ivar b) sched)
  | Service.Parallelize v -> get_diag "parallelize" (Taco.parallelize (ivar v) sched)
  | Service.Precompute { expr; over; workspace = w } ->
      let e = get_diag "precompute" (Parser.parse_expr ~tensors:env expr) in
      let cexpr = get "precompute" (Schedule.expr_of_index_notation e) in
      let over = List.map ivar over in
      let ws =
        Tensor_var.workspace w ~order:(List.length over) ~format:(Format.dense (List.length over))
      in
      get "precompute" (Schedule.precompute_simple ~expr:cexpr ~over ~workspace:ws sched)

let concretize stmt = get "concretize" (Schedule.of_index_notation stmt)

let schedule s env sched = List.fold_left (apply_directive env) sched s.directives

let bindings env s = List.map (fun (n, t) -> (List.assoc n env, t)) s.inputs

(* The unscheduled statement, for the Cin_eval reference. *)
let unscheduled s =
  let env, stmt = parse s in
  (Schedule.stmt (concretize stmt), bindings env s)

(* Compile through the public facade, as a library user would: for the
   kernel_run items, which are compiled once in set-up. *)
let compile s backend =
  let env, stmt = parse s in
  let sched = schedule s env (concretize stmt) in
  let name = "bench_" ^ s.name in
  let c =
    if is_auto s then
      fst (get_diag "auto_compile" (Taco.auto_compile ~name ?semiring:(semiring s) ~backend sched))
    else get_diag "compile" (Taco.compile ~name ?semiring:(semiring s) ~backend sched)
  in
  (c, bindings env s)

(* ------------------------------------------------------------------ *)
(* Layer-by-layer replay                                               *)
(* ------------------------------------------------------------------ *)

let mode_of s =
  if Format.is_all_dense s.result then Lower.Compute
  else Lower.Assemble { emit_values = true; sorted = true }

let mode_tag = function
  | Lower.Compute -> "compute"
  | Lower.Assemble { emit_values; sorted } -> Printf.sprintf "assemble:%b:%b" emit_values sorted

(* The plan-cache key the facade builds for a stats-driven search:
   statement x tensor formats x lowering mode x stats buckets
   (x semiring), so replayed searches share entries with served ones. *)
let plan_key stmt mode stats sr =
  let formats =
    Cin.tensors stmt
    |> List.map (fun tv -> Tensor_var.name tv ^ ":" ^ Format.to_string (Tensor_var.format tv))
    |> List.sort compare |> String.concat ";"
  in
  let buckets =
    stats |> List.map (fun (n, st) -> n ^ "=" ^ Stats.bucket st) |> List.sort compare
    |> String.concat ";"
  in
  let base = Cin.to_string stmt ^ "|" ^ formats ^ "|" ^ mode_tag mode ^ "|" ^ buckets in
  match sr with None -> base | Some sr -> base ^ "|" ^ sr.Semiring.name

type replayed = {
  r_result : Tensor.t;
  r_backend : Compile.backend;  (** the backend that actually ran *)
  r_considered : int option;  (** autoschedule search states, for [Auto] shapes *)
  r_imp_nodes : int;  (** lowered kernel size *)
  r_fires : int;  (** optimizer rewrites *)
  r_c_bytes : int option;  (** emitted C for native requests *)
  r_request_ns : int;  (** the whole request span *)
  r_run_ns : int;  (** run incl. result assembly *)
  r_raw_ns : int option;  (** run without assembly (assemble-mode kernels) *)
}

let span = Spans.with_span

let time f =
  let t0 = Spans.now_ns () in
  let v = f () in
  (v, Spans.now_ns () - t0)

(* One request, replayed. The [request] span is the time-to-result; the
   raw-run probe after it (assemble-mode kernels only) reruns the kernel
   without reading back the result, so assembly time can be separated
   without distorting the request span. *)
let replay ~rid (s : shape) backend =
  Spans.set_rid rid;
  let sr = semiring s in
  let mode = mode_of s in
  let name = "serve_" ^ (fst (List.hd (Parser.scan_tensors s.expr))) in
  let t_root = Spans.now_ns () in
  let root = Spans.enter "request" in
  let env, stmt = span "frontend.parse" (fun () -> parse s) in
  let sched = span "ir.concretize" (fun () -> concretize stmt) in
  let sched = span "ir.schedule" (fun () -> schedule s env sched) in
  let sched, considered =
    if not (is_auto s) then (sched, None)
    else begin
      let stats =
        span "stats.collect" (fun () ->
            List.map (fun (n, t) -> (n, Stats.of_tensor t)) s.inputs)
      in
      let cstmt = Schedule.stmt sched in
      let key = plan_key cstmt mode stats sr in
      let lowerable st =
        Result.map (fun (_ : Lower.kernel_info) -> ()) (Lower.lower ~name ?semiring:sr ~mode st)
      in
      let plan, explain =
        span "ir.autoschedule" (fun () ->
            get "autoschedule" (Autoschedule.search ~stats ~key ~lowerable cstmt))
      in
      let s' = Schedule.of_stmt plan.Autoschedule.p_stmt in
      let s' =
        match plan.Autoschedule.p_par with
        | None -> s'
        | Some v -> ( match Schedule.parallelize v s' with Ok p -> p | Error _ -> s')
      in
      (s', Some explain.Autoschedule.e_considered)
    end
  in
  let info =
    span "lower.lower" (fun () ->
        get "lower"
          (Lower.lower ~name ?semiring:sr ?parallel:(Schedule.parallel sched) ~mode
             (Schedule.stmt sched)))
  in
  let optimized, passes =
    span "lower.opt" (fun () -> get "opt" (Opt.optimize_stats info.Lower.kernel))
  in
  let misses () = (Compile.cache_stats ()).Compile.misses in
  let m0 = misses () in
  let c0 = Spans.now_ns () in
  let cspan = Spans.enter "exec.compile" in
  let kern =
    Kernel.prepare ~opt:Opt.none ~backend { info with Lower.kernel = optimized }
  in
  let miss = misses () > m0 in
  (* A fresh native build reports its emit / cc / dlopen durations; lay
     them out back to back from the start of the compile span. *)
  (match Kernel.native_phases kern with
  | Some p when miss ->
      let at = ref c0 in
      List.iter
        (fun (n, d) ->
          let d = Int64.to_int d in
          Spans.record n ~start:!at ~stop:(!at + d);
          at := !at + d)
        [
          ("codegen_c.emit", p.Native.emit_ns);
          ("native.cc", p.Native.cc_ns);
          ("native.dlopen", p.Native.dlopen_ns);
        ]
  | _ -> ());
  Spans.leave cspan;
  let inputs = bindings env s in
  let dims = get_diag "dims" (Taco.infer_result_dims (Schedule.stmt sched) ~inputs) in
  let run () =
    match mode with
    | Lower.Assemble _ -> Kernel.run_assemble ?domains:s.domains kern ~inputs ~dims
    | Lower.Compute -> Kernel.run_dense ?domains:s.domains kern ~inputs ~dims
  in
  let result, run_ns = span "exec.run" (fun () -> time run) in
  Spans.leave root;
  let request_ns = Spans.now_ns () - t_root in
  let raw_ns =
    match mode with
    | Lower.Compute -> None
    | Lower.Assemble _ ->
        Some
          (snd
             (span "probe.run_raw" (fun () ->
                  time (fun () -> Kernel.run_assemble_raw ?domains:s.domains kern ~inputs ~dims))))
  in
  let c_bytes =
    match backend with
    | `Native -> Some (String.length (Codegen_c.emit_exec optimized))
    | `Closure -> None
  in
  {
    r_result = result;
    r_backend = Kernel.backend kern;
    r_considered = considered;
    r_imp_nodes = Imp.node_count info.Lower.kernel;
    r_fires = List.fold_left (fun acc p -> acc + p.Opt.ps_fires) 0 passes;
    r_c_bytes = c_bytes;
    r_request_ns = request_ns;
    r_run_ns = run_ns;
    r_raw_ns = raw_ns;
  }

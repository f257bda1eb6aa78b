(* Inputs and the request / kernel catalogues, all generated from the
   workload seed. The program only ever sees the generated tensors. *)

open Taco
module Service = Taco_service.Service
module Prng = Taco_support.Prng
module Graph = Taco_graph.Graph
module P = Pipeline

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let sparse prng dims ~nnz fmt = Gen.random (Prng.split prng) ~dims ~nnz fmt

let dense prng dims =
  Tensor.of_dense (Gen.random_dense (Prng.split prng) dims) (Format.dense (Array.length dims))

(* An n-node adjacency with [deg] distinct out-edges per node on
   average and no self loops; [weight] gives each edge's value. With
   [symmetric] every edge is mirrored (for undirected workloads). *)
let adjacency prng ~n ~deg ?(symmetric = false) weight =
  let prng = Prng.split prng in
  let seen = Hashtbl.create (2 * n * deg) in
  let coo = Coo.create [| n; n |] in
  let add i j =
    if i <> j && not (Hashtbl.mem seen (i, j)) then begin
      Hashtbl.add seen (i, j) ();
      Coo.push coo [| i; j |] (weight ())
    end
  in
  let edges = if symmetric then n * deg / 2 else n * deg in
  for _ = 1 to edges do
    let i = Prng.int prng n and j = Prng.int prng n in
    add i j;
    if symmetric then add j i
  done;
  Tensor.pack coo Format.csr

(* ------------------------------------------------------------------ *)
(* Request shapes (cold_compile, serve_mix)                            *)
(* ------------------------------------------------------------------ *)

(* Small operands: n = 300 with about 8 nonzeros per row. *)
let n = 300

let per_row = 8

let fig2 =
  [
    Service.Reorder ("k", "j");
    Service.Precompute { expr = "B(i,k) * C(k,j)"; over = [ "j" ]; workspace = "w" };
  ]

let mttkrp_ws =
  [
    Service.Reorder ("j", "k");
    Service.Reorder ("j", "l");
    Service.Precompute { expr = "B(i,k,l) * C(l,j)"; over = [ "j" ]; workspace = "w" };
  ]

(* A request shape and the reference its result is checked against. *)
type entry = { shape : P.shape; reference : Check.reference Lazy.t }

type shapes = {
  spgemm_ws : entry;
  spgemm_auto : entry;
  spgemm_par : entry;
  spadd2 : entry;
  spadd3 : entry;
  spadd4 : entry;
  mttkrp_ws : entry;
  mttkrp_auto : entry;
  spmv : entry;
  spmv_min_plus : entry;
  sddmm_auto : entry;
  ttv : entry;
}

(* Cin_eval on the unscheduled statement: affordable for the additions
   and SpMV at this size; the contractions use the plain references. *)
let by_cin_eval shape =
  lazy
    (let stmt, inputs = P.unscheduled shape in
     Check.cin_eval stmt ~result_format:shape.P.result ~inputs)

let shapes ~seed =
  let prng = Prng.create seed in
  let mat () = sparse prng [| n; n |] ~nnz:(n * per_row) Format.csr in
  let b = mat () and c = mat () and d = mat () and e = mat () in
  let x = dense prng [| n |] in
  let t3 = sparse prng [| n; 40; 40 |] ~nnz:(n * per_row) (Format.csf 3) in
  let fc = dense prng [| 40; 16 |] and fd = dense prng [| 40; 16 |] in
  let tc = dense prng [| 40 |] in
  let sc = dense prng [| n; 16 |] and sd = dense prng [| 16; n |] in
  let gemm = "A(i,j) = B(i,k) * C(k,j)" and bc = [ ("B", b); ("C", c) ] in
  let gemm_ref = lazy (Check.spgemm b c) in
  let mttkrp = "A(i,j) = B(i,k,l) * C(l,j) * D(k,j)" in
  let mttkrp_in = [ ("B", t3); ("C", fc); ("D", fd) ] in
  let mttkrp_ref = lazy (Check.mttkrp t3 fc fd) in
  let csr = Format.csr and dm = Format.dense_matrix and dv = Format.dense_vector in
  let spmv = P.shape ~result:dv "spmv" "y(i) = B(i,j) * x(j)" [ ("B", b); ("x", x) ] in
  let add k =
    let names = List.filteri (fun q _ -> q < k) [ "B"; "C"; "D"; "E" ] in
    let rhs = String.concat " + " (List.map (fun t -> t ^ "(i,j)") names) in
    let shape =
      P.shape ~result:csr (Printf.sprintf "spadd%d" k) ("A(i,j) = " ^ rhs)
        (List.combine names (List.filteri (fun q _ -> q < k) [ b; c; d; e ]))
    in
    { shape; reference = by_cin_eval shape }
  in
  {
    spgemm_ws = { shape = P.shape ~directives:fig2 ~result:csr "spgemm_ws" gemm bc; reference = gemm_ref };
    spgemm_auto =
      { shape = P.shape ~directives:[ Service.Auto ] ~result:csr "spgemm_auto" gemm bc; reference = gemm_ref };
    spgemm_par =
      {
        shape =
          P.shape
            ~directives:(fig2 @ [ Service.Parallelize "i" ])
            ~domains:2 ~result:csr "spgemm_par" gemm bc;
        reference = gemm_ref;
      };
    spadd2 = add 2;
    spadd3 = add 3;
    spadd4 = add 4;
    mttkrp_ws =
      { shape = P.shape ~directives:mttkrp_ws ~result:dm "mttkrp_ws" mttkrp mttkrp_in; reference = mttkrp_ref };
    mttkrp_auto =
      {
        shape = P.shape ~directives:[ Service.Auto ] ~result:dm "mttkrp_auto" mttkrp mttkrp_in;
        reference = mttkrp_ref;
      };
    spmv = { shape = spmv; reference = by_cin_eval spmv };
    spmv_min_plus =
      {
        shape =
          P.shape ~semiring:"min_plus" ~result:dv "spmv_min_plus" "y(i) = B(i,j) * x(j)"
            [ ("B", b); ("x", x) ];
        reference = lazy (Check.spmv_min_plus b x);
      };
    sddmm_auto =
      {
        shape =
          P.shape ~directives:[ Service.Auto ] ~result:csr "sddmm_auto"
            "A(i,j) = B(i,j) * C(i,k) * D(k,j)"
            [ ("B", b); ("C", sc); ("D", sd) ];
        reference = lazy (Check.sddmm b sc sd);
      };
    ttv =
      {
        shape = P.shape ~result:dm "ttv" "A(i,j) = B(i,j,k) * c(k)" [ ("B", t3); ("c", tc) ];
        reference = lazy (Check.ttv t3 tc);
      };
  }

(* The cold-compile catalogue. Fused merges of five or more operands are
   left out on purpose: one cold native request costs seconds of cc at
   five operands and minutes at seven, which would swamp every other
   shape; the 2/3/4-operand rows show the growth. *)
let cold s =
  [
    s.spgemm_ws;
    s.spgemm_auto;
    s.spadd2;
    s.spadd3;
    s.spadd4;
    s.mttkrp_ws;
    s.mttkrp_auto;
    s.spmv;
    s.spmv_min_plus;
    s.sddmm_auto;
    s.ttv;
    s.spgemm_par;
  ]

(* The served mix: ten (shape, backend) pairs, two of them autoscheduled
   (plan-cache hits once warm), one min-plus, one parallelized over two
   domains and two native. *)
let serve s =
  [
    (s.spgemm_ws, `Closure);
    (s.spgemm_auto, `Closure);
    (s.spadd2, `Closure);
    (s.spmv, `Closure);
    (s.spmv_min_plus, `Closure);
    (s.mttkrp_ws, `Closure);
    (s.mttkrp_auto, `Closure);
    (s.spgemm_par, `Closure);
    (s.spgemm_ws, `Native);
    (s.spmv, `Native);
  ]

(* ------------------------------------------------------------------ *)
(* kernel_run items                                                    *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Tensor_out of Tensor.t
  | Ranks of (float array * int)
  | Levels of (int array * int)
  | Dists of (float array * int)
  | Count of float

(* An item compiled for one backend: [run] is the time-to-result call;
   [raw], for assemble-mode kernels, runs the same kernel without
   reading back the result. *)
type runner = { run : unit -> outcome; raw : (unit -> unit) option }

type item = {
  name : string;
  prepare : Compile.backend -> runner;  (** compile (or warm the kernel caches) *)
  check : outcome -> (unit, string) result;
  iterations : outcome -> int option;
}

let expect_tensor reference = function
  | Tensor_out t -> Check.check (Lazy.force reference) t
  | _ -> Error "expected a tensor result"

(* A runner for a statement compiled for [backend]; a native request
   compiled for closures is refused here, in set-up. *)
let runner_of ~name ?domains backend c inputs =
  if Taco.backend_of c <> backend then
    failwith (Printf.sprintf "%s: requested %s, compiled for closures" name (P.backend_name backend));
  let kern = Taco.kernel c in
  let raw =
    match (Kernel.info kern).Lower.mode with
    | Lower.Compute -> None
    | Lower.Assemble _ ->
        let dims =
          P.get_diag "dims" (Taco.infer_result_dims (Schedule.stmt (Taco.schedule_of c)) ~inputs)
        in
        Some (fun () -> Kernel.run_assemble_raw ?domains kern ~inputs ~dims)
  in
  { run = (fun () -> Tensor_out (P.get_diag "run" (Taco.run ?domains c ~inputs))); raw }

let tensor_item (s : P.shape) (reference : Check.reference Lazy.t) =
  let prepare backend =
    let c, inputs = P.compile s backend in
    runner_of ~name:s.P.name ?domains:s.P.domains backend c inputs
  in
  { name = s.P.name; prepare; check = expect_tensor reference; iterations = (fun _ -> None) }

(* Fig. 13's workspace addition, which result reuse expresses in
   concrete index notation rather than through a schedule directive:
   forall i (forall j A = w) where (forall j w = B0 ; forall j w += B1 ; ...). *)
let add_ws_item ~name ops (reference : Check.reference Lazy.t) =
  let vi = ivar "i" and vj = ivar "j" in
  let a = Taco.tensor "A" Format.csr in
  let w = Taco.workspace "w" Format.dense_vector in
  let vars = List.mapi (fun q _ -> Taco.tensor (Printf.sprintf "B%d" q) Format.csr) ops in
  let acc tv = Cin.Access (Cin.access tv [ vi; vj ]) in
  let producer =
    List.fold_left
      (fun st tv -> Cin.Sequence (st, Cin.Forall (vj, Cin.accumulate (Cin.access w [ vj ]) (acc tv))))
      (Cin.Forall (vj, Cin.assign (Cin.access w [ vj ]) (acc (List.hd vars))))
      (List.tl vars)
  in
  let consumer = Cin.Forall (vj, Cin.assign (Cin.access a [ vi; vj ]) (Cin.Access (Cin.access w [ vj ]))) in
  let stmt = Cin.Forall (vi, Cin.Where (consumer, producer)) in
  let inputs = List.combine vars ops in
  let prepare backend =
    let c = P.get_diag "compile" (Taco.compile ~name:("bench_" ^ name) ~backend (Schedule.of_stmt stmt)) in
    runner_of ~name backend c inputs
  in
  { name; prepare; check = expect_tensor reference; iterations = (fun _ -> None) }

let references : (unit -> unit) list ref = ref []

let graph_item ~name ~run ~check ~iterations =
  let prepare backend =
    (* The first call compiles and caches the algorithm's kernels. *)
    ignore (run backend);
    { run = (fun () -> run backend); raw = None }
  in
  { name; prepare; check; iterations }

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Paper-scale kernels: Fig. 11 SpGEMM (1000^2, 32 per row), Fig. 12
   MTTKRP, Fig. 13 four-operand addition (2000^2) as fused merge and as
   workspace, the parallelized SpGEMM, and the graph algorithms on 1500
   nodes of average degree 8. References are lazy: {!force_references}
   computes them once, after set-up is timed. Also returns the directed
   adjacency, whose transpose bfs builds through Ops on every call. *)
let items ~seed =
  let prng = Prng.create (seed + 7919) in
  let m = 1000 in
  let b = sparse prng [| m; m |] ~nnz:(m * 32) Format.csr in
  let c = sparse prng [| m; m |] ~nnz:(m * 32) Format.csr in
  let gemm = "A(i,j) = B(i,k) * C(k,j)" in
  let spgemm_ws = P.shape ~directives:fig2 ~result:Format.csr "spgemm_ws" gemm [ ("B", b); ("C", c) ] in
  let spgemm_par =
    P.shape
      ~directives:(fig2 @ [ Service.Parallelize "i" ])
      ~domains:2 ~result:Format.csr "spgemm_par" gemm
      [ ("B", b); ("C", c) ]
  in
  let t3 = sparse prng [| m; 200; 200 |] ~nnz:(m * 64) (Format.csf 3) in
  let fc = dense prng [| 200; 16 |] and fd = dense prng [| 200; 16 |] in
  let mttkrp =
    P.shape ~directives:mttkrp_ws ~result:Format.dense_matrix "mttkrp_ws"
      "A(i,j) = B(i,k,l) * C(l,j) * D(k,j)"
      [ ("B", t3); ("C", fc); ("D", fd) ]
  in
  let q = 2000 in
  let ops = List.map (fun r -> sparse prng [| q; q |] ~nnz:(q * r) Format.csr) [ 4; 8; 12; 16 ] in
  let add4 =
    P.shape ~result:Format.csr "add4_merge" "A(i,j) = B(i,j) + C(i,j) + D(i,j) + E(i,j)"
      (List.combine [ "B"; "C"; "D"; "E" ] ops)
  in
  let g = 1500 and src = 0 in
  let adj = adjacency prng ~n:g ~deg:8 (fun () -> 1.) in
  let wprng = Prng.split prng in
  let weighted = adjacency prng ~n:g ~deg:8 (fun () -> 0.1 +. Prng.float wprng) in
  let undirected = adjacency prng ~n:g ~deg:8 ~symmetric:true (fun () -> 1.) in
  let gemm_ref = lazy (Check.spgemm b c) in
  let add_ref = lazy (Check.spadd ops) in
  let mttkrp_ref = lazy (Check.mttkrp t3 fc fd) in
  let ranks_ref = lazy (Check.pagerank adj) in
  let levels_ref = lazy (Check.bfs adj ~src) in
  let dists_ref = lazy (Check.bellman_ford weighted ~src) in
  let tri_ref = lazy (Check.triangles undirected) in
  references :=
    [
      (fun () -> ignore (Lazy.force gemm_ref));
      (fun () -> ignore (Lazy.force add_ref));
      (fun () -> ignore (Lazy.force mttkrp_ref));
      (fun () -> ignore (Lazy.force ranks_ref));
      (fun () -> ignore (Lazy.force levels_ref));
      (fun () -> ignore (Lazy.force dists_ref));
      (fun () -> ignore (Lazy.force tri_ref));
    ];
  (* Triangle counting is one masked product, not a fixpoint: 1 step. *)
  let iters = function
    | Ranks (_, k) | Levels (_, k) | Dists (_, k) -> Some k
    | Count _ -> Some 1
    | Tensor_out _ -> None
  in
  ( [
    tensor_item spgemm_ws gemm_ref;
    tensor_item mttkrp mttkrp_ref;
    tensor_item add4 add_ref;
    add_ws_item ~name:"add4_ws" ops add_ref;
    tensor_item spgemm_par gemm_ref;
    graph_item ~name:"pagerank"
      ~run:(fun backend -> Ranks (ok_or_fail "pagerank" (Graph.pagerank ~backend adj)))
      ~check:(function
        | Ranks (r, _) -> Check.check_floats ~rtol:1e-6 ~what:"ranks" r (Lazy.force ranks_ref)
        | _ -> Error "expected ranks")
      ~iterations:iters;
    graph_item ~name:"bfs"
      ~run:(fun backend -> Levels (ok_or_fail "bfs" (Graph.bfs ~backend adj ~src)))
      ~check:(function
        | Levels (l, _) -> Check.check_ints ~what:"levels" l (Lazy.force levels_ref)
        | _ -> Error "expected levels")
      ~iterations:iters;
    graph_item ~name:"bellman_ford"
      ~run:(fun backend -> Dists (ok_or_fail "bellman_ford" (Graph.bellman_ford ~backend weighted ~src)))
      ~check:(function
        | Dists (d, _) -> Check.check_floats ~what:"distances" d (Lazy.force dists_ref)
        | _ -> Error "expected distances")
      ~iterations:iters;
    graph_item ~name:"triangles"
      ~run:(fun backend -> Count (ok_or_fail "triangles" (Graph.triangle_count ~backend undirected)))
      ~check:(function
        | Count k when k = Lazy.force tri_ref -> Ok ()
        | Count k -> Error (Printf.sprintf "%.0f triangles, expected %.0f" k (Lazy.force tri_ref))
        | _ -> Error "expected a count")
      ~iterations:iters;
  ],
    adj )

let force_references () = List.iter (fun f -> f ()) !references

open Taco_ir
open Taco_ir.Var
module F = Taco_tensor.Format
module T = Taco_tensor.Tensor
module I = Index_notation

let vi = Helpers.vi and vj = Helpers.vj and vk = Helpers.vk and vl = Helpers.vl

let a = Helpers.csr_tv "A"
let b = Helpers.csr_tv "B"
let c = Helpers.csr_tv "C"
let d = Helpers.csr_tv "D"
let b3 = Tensor_var.make "B" ~order:3 ~format:(F.csf 3)
let w = Helpers.ws_vec "w"
let v_ws = Tensor_var.workspace "v" ~order:1 ~format:F.dense_vector
let acc = Cin.access

let mul x y = Cin.Mul (x, y)
let av tv vars = Cin.Access (acc tv vars)

(* ------------------------------------------------------------------ *)
(* Case study 1: sparse matrix multiplication (paper §II-III)          *)
(* ------------------------------------------------------------------ *)

let matmul_ikj =
  Cin.foralls [ vi; vk; vj ]
    (Cin.accumulate (acc a [ vi; vj ]) (mul (av b [ vi; vk ]) (av c [ vk; vj ])))

let test_matmul_structure () =
  let result =
    Helpers.get
      (Workspace.precompute matmul_ikj
         ~expr:(mul (av b [ vi; vk ]) (av c [ vk; vj ]))
         ~over:[ vj ] ~workspace:w)
  in
  Alcotest.(check string) "paper §IV form"
    "∀i ((∀j A(i,j) = w(j)) where (∀k,j w(j) += B(i,k) * C(k,j)))"
    (Cin.to_string result)

let test_matmul_semantics () =
  let result =
    Helpers.get
      (Workspace.precompute matmul_ikj
         ~expr:(mul (av b [ vi; vk ]) (av c [ vk; vj ]))
         ~over:[ vj ] ~workspace:w)
  in
  let ins =
    [
      (b, Helpers.random_tensor 61 [| 5; 6 |] 0.4 F.csr);
      (c, Helpers.random_tensor 62 [| 6; 4 |] 0.4 F.csr);
    ]
  in
  Helpers.check_dense "workspace preserves matmul"
    (Helpers.eval_cin matmul_ikj ins) (Helpers.eval_cin result ins)

(* ------------------------------------------------------------------ *)
(* Case study 2: MTTKRP (paper §VII)                                   *)
(* ------------------------------------------------------------------ *)

let mttkrp =
  Cin.foralls [ vi; vk; vl; vj ]
    (Cin.accumulate (acc a [ vi; vj ])
       (mul (mul (av b3 [ vi; vk; vl ]) (av c [ vl; vj ])) (av d [ vk; vj ])))

let test_mttkrp_first_transform () =
  let result =
    Helpers.get
      (Workspace.precompute mttkrp
         ~expr:(mul (av b3 [ vi; vk; vl ]) (av c [ vl; vj ]))
         ~over:[ vj ] ~workspace:w)
  in
  Alcotest.(check string) "hoists l out of the consumer"
    "∀i,k ((∀j A(i,j) += w(j) * D(k,j)) where (∀l,j w(j) += B(i,k,l) * C(l,j)))"
    (Cin.to_string result)

let test_mttkrp_second_transform () =
  let first =
    Helpers.get
      (Workspace.precompute mttkrp
         ~expr:(mul (av b3 [ vi; vk; vl ]) (av c [ vl; vj ]))
         ~over:[ vj ] ~workspace:w)
  in
  let second =
    Helpers.get
      (Workspace.precompute first
         ~expr:(mul (av w [ vj ]) (av d [ vk; vj ]))
         ~over:[ vj ] ~workspace:v_ws)
  in
  Alcotest.(check string) "paper §VII final form"
    "∀i ((∀j A(i,j) = v(j)) where (∀k ((∀j v(j) += w(j) * D(k,j)) where (∀l,j w(j) += B(i,k,l) * C(l,j)))))"
    (Cin.to_string second)

let test_mttkrp_semantics () =
  let first =
    Helpers.get
      (Workspace.precompute mttkrp
         ~expr:(mul (av b3 [ vi; vk; vl ]) (av c [ vl; vj ]))
         ~over:[ vj ] ~workspace:w)
  in
  let second =
    Helpers.get
      (Workspace.precompute first
         ~expr:(mul (av w [ vj ]) (av d [ vk; vj ]))
         ~over:[ vj ] ~workspace:v_ws)
  in
  let ins =
    [
      (b3, Helpers.random_tensor 63 [| 4; 5; 6 |] 0.15 (F.csf 3));
      (c, Helpers.random_tensor 64 [| 6; 3 |] 0.5 F.csr);
      (d, Helpers.random_tensor 65 [| 5; 3 |] 0.5 F.csr);
    ]
  in
  let oracle = Helpers.eval_cin mttkrp ins in
  Helpers.check_dense "first transform" oracle (Helpers.eval_cin first ins);
  Helpers.check_dense "second transform" oracle (Helpers.eval_cin second ins)

(* ------------------------------------------------------------------ *)
(* Case study 3: sparse addition with result reuse (paper §V-B)        *)
(* ------------------------------------------------------------------ *)

let add_stmt =
  Cin.foralls [ vi; vj ]
    (Cin.assign (acc a [ vi; vj ]) (Cin.Add (av b [ vi; vj ], av c [ vi; vj ])))

let test_add_whole_rhs () =
  let result =
    Helpers.get
      (Workspace.precompute add_stmt
         ~expr:(Cin.Add (av b [ vi; vj ], av c [ vi; vj ]))
         ~over:[ vj ] ~workspace:w)
  in
  Alcotest.(check string) "first transform"
    "∀i ((∀j A(i,j) = w(j)) where (∀j w(j) = B(i,j) + C(i,j)))"
    (Cin.to_string result)

let test_add_result_reuse () =
  let first =
    Helpers.get
      (Workspace.precompute add_stmt
         ~expr:(Cin.Add (av b [ vi; vj ], av c [ vi; vj ]))
         ~over:[ vj ] ~workspace:w)
  in
  let reused =
    Helpers.get
      (Workspace.precompute first ~expr:(av b [ vi; vj ]) ~over:[ vj ] ~workspace:w)
  in
  Alcotest.(check string) "sequence statement"
    "∀i ((∀j A(i,j) = w(j)) where (∀j w(j) = B(i,j) ; ∀j w(j) += C(i,j)))"
    (Cin.to_string reused);
  let ins =
    [
      (b, Helpers.random_tensor 66 [| 5; 5 |] 0.3 F.csr);
      (c, Helpers.random_tensor 67 [| 5; 5 |] 0.3 F.csr);
    ]
  in
  Helpers.check_dense "reuse preserves semantics"
    (Helpers.eval_cin add_stmt ins) (Helpers.eval_cin reused ins)

let test_add_addend_without_reuse () =
  (* Fresh workspace on an addend nests a where (§V-B's "without result
     reuse" form). *)
  let first =
    Helpers.get
      (Workspace.precompute add_stmt
         ~expr:(Cin.Add (av b [ vi; vj ], av c [ vi; vj ]))
         ~over:[ vj ] ~workspace:w)
  in
  let nested =
    Helpers.get
      (Workspace.precompute first ~expr:(av b [ vi; vj ]) ~over:[ vj ] ~workspace:v_ws)
  in
  Alcotest.(check string) "nested wheres"
    "∀i ((∀j A(i,j) = w(j)) where ((∀j w(j) = v(j) + C(i,j)) where (∀j v(j) = B(i,j))))"
    (Cin.to_string nested);
  let ins =
    [
      (b, Helpers.random_tensor 68 [| 5; 5 |] 0.3 F.csr);
      (c, Helpers.random_tensor 69 [| 5; 5 |] 0.3 F.csr);
    ]
  in
  Helpers.check_dense "nested form preserves semantics"
    (Helpers.eval_cin add_stmt ins) (Helpers.eval_cin nested ins)

let test_vector_add_reuse () =
  (* ∀i a(i) = b(i) + c(i)  ⇒  ∀i a(i) = b(i) ; ∀i a(i) += c(i). *)
  let av_t = Helpers.dense_vec_tv "a" in
  let bv = Helpers.dense_vec_tv "bvec" in
  let cv = Helpers.dense_vec_tv "cvec" in
  let s = Cin.forall vi (Cin.assign (acc av_t [ vi ]) (Cin.Add (av bv [ vi ], av cv [ vi ]))) in
  let reused =
    Helpers.get (Workspace.precompute s ~expr:(av bv [ vi ]) ~over:[ vi ] ~workspace:av_t)
  in
  Alcotest.(check string) "paper §V-B vector example"
    "∀i a(i) = bvec(i) ; ∀i a(i) += cvec(i)" (Cin.to_string reused)

(* ------------------------------------------------------------------ *)
(* Preconditions and errors                                            *)
(* ------------------------------------------------------------------ *)

let test_rejects_wrong_order_workspace () =
  let w2 = Tensor_var.workspace "w2" ~order:2 ~format:F.dense_matrix in
  ignore
    (Helpers.get_err "order mismatch"
       (Workspace.precompute matmul_ikj
          ~expr:(mul (av b [ vi; vk ]) (av c [ vk; vj ]))
          ~over:[ vj ] ~workspace:w2))

let test_rejects_missing_expr () =
  ignore
    (Helpers.get_err "expr not found"
       (Workspace.precompute matmul_ikj ~expr:(av d [ vi; vj ]) ~over:[ vj ] ~workspace:w))

let test_rejects_sequence_input () =
  let seq =
    Cin.forall vi
      (Cin.sequence
         (Cin.assign (acc w [ vi ]) (av b [ vi; vi ]))
         (Cin.accumulate (acc w [ vi ]) (av c [ vi; vi ])))
  in
  ignore
    (Helpers.get_err "contains sequence"
       (Workspace.precompute seq ~expr:(av b [ vi; vi ]) ~over:[ vi ] ~workspace:v_ws))

let test_rejects_non_factor () =
  (* B+C is not a factor of B*C+D... give rhs = B*C + D and ask for C+D. *)
  let s =
    Cin.foralls [ vi; vj ]
      (Cin.assign (acc a [ vi; vj ])
         (Cin.Add (mul (av b [ vi; vj ]) (av c [ vi; vj ]), av d [ vi; vj ])))
  in
  ignore
    (Helpers.get_err "not a factor or addend"
       (Workspace.precompute s
          ~expr:(Cin.Add (av c [ vi; vj ], av d [ vi; vj ]))
          ~over:[ vj ] ~workspace:w))

let test_rejects_used_workspace_name () =
  ignore
    (Helpers.get_err "workspace name in use"
       (Workspace.precompute matmul_ikj
          ~expr:(mul (av b [ vi; vk ]) (av c [ vk; vj ]))
          ~over:[ vj ]
          ~workspace:(Tensor_var.workspace "B" ~order:1 ~format:F.dense_vector)))

let test_rejects_addend_reduction () =
  (* ∀ij a(i) += B(i,j) + C(i,i): precomputing the addend B over i only
     would move the j reduction into an addend producer. *)
  let avec = Helpers.dense_vec_tv "a" in
  let s =
    Cin.foralls [ vi; vj ]
      (Cin.accumulate (acc avec [ vi ]) (Cin.Add (av b [ vi; vj ], av c [ vi; vi ])))
  in
  ignore
    (Helpers.get_err "+ does not distribute over +"
       (Workspace.precompute s ~expr:(av b [ vi; vj ]) ~over:[ vi ] ~workspace:v_ws))

(* ------------------------------------------------------------------ *)
(* Scheduling API                                                      *)
(* ------------------------------------------------------------------ *)

let test_schedule_precompute_renames () =
  let stmt = I.assign a [ vi; vj ] (I.sum vk (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ]))) in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let sched = Helpers.get (Schedule.reorder vk vj sched) in
  let jc = Index_var.make "jc" and jp = Index_var.make "jp" in
  let e = mul (av b [ vi; vk ]) (av c [ vk; vj ]) in
  let sched = Helpers.get (Schedule.precompute ~expr:e ~vars:[ (vj, jc, jp) ] ~workspace:w sched) in
  Alcotest.(check string) "fig 2 renaming"
    "∀i ((∀jc A(i,jc) = w(jc)) where (∀k,jp w(jp) += B(i,k) * C(k,jp)))"
    (Cin.to_string (Schedule.stmt sched))

let test_schedule_full_fig2_pipeline () =
  let tensors = [ ("A", a); ("B", b); ("C", c) ] in
  let stmt =
    Helpers.getd
      (Taco_frontend.Parser.parse_statement ~tensors "A(i,j) = sum(k, B(i,k) * C(k,j))")
  in
  let sched = Helpers.get (Schedule.of_index_notation stmt) in
  let sched = Helpers.get (Schedule.reorder vk vj sched) in
  let e = Helpers.get (Schedule.expr_of_index_notation (I.Mul (I.access b [ vi; vk ], I.access c [ vk; vj ]))) in
  let sched = Helpers.get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
  let ins =
    [
      (b, Helpers.random_tensor 71 [| 6; 7 |] 0.3 F.csr);
      (c, Helpers.random_tensor 72 [| 7; 5 |] 0.3 F.csr);
    ]
  in
  let plain = Helpers.get (Concretize.run stmt) in
  Helpers.check_dense "pipeline preserves semantics"
    (Helpers.eval_cin plain ins)
    (Helpers.eval_cin (Schedule.stmt sched) ins)

(* ------------------------------------------------------------------ *)
(* Heuristics (§V-C)                                                   *)
(* ------------------------------------------------------------------ *)

let test_heuristic_avoid_insert () =
  let suggestions = Heuristics.suggest matmul_ikj in
  Alcotest.(check bool) "suggests a workspace for the sparse result" true
    (List.exists (fun s -> s.Heuristics.reason = Heuristics.Avoid_insert) suggestions)

let test_heuristic_hoist () =
  let suggestions = Heuristics.suggest mttkrp in
  Alcotest.(check bool) "suggests hoisting B*C" true
    (List.exists (fun s -> s.Heuristics.reason = Heuristics.Hoist_invariant) suggestions)

let test_heuristic_merge () =
  (* Four sparse operands merged at j into a sparse result. *)
  let e_ws = Helpers.csr_tv "E" in
  let s =
    Cin.foralls [ vi; vj ]
      (Cin.assign (acc a [ vi; vj ])
         (Cin.Add
            (Cin.Add (av b [ vi; vj ], av c [ vi; vj ]),
             Cin.Add (av d [ vi; vj ], av e_ws [ vi; vj ]))))
  in
  let suggestions = Heuristics.suggest s in
  Alcotest.(check bool) "suggests simplifying the merge" true
    (List.exists (fun sg -> sg.Heuristics.reason = Heuristics.Simplify_merge) suggestions)

let test_heuristic_none_for_dense () =
  let ad = Helpers.dense_mat_tv "Ad" in
  let s =
    Cin.foralls [ vi; vj ]
      (Cin.assign (acc ad [ vi; vj ]) (av b [ vi; vj ]))
  in
  Alcotest.(check int) "no suggestions" 0 (List.length (Heuristics.suggest s))

let test_heuristics_apply_all_preserves () =
  let transformed, applied = Heuristics.apply_all matmul_ikj in
  Alcotest.(check bool) "applied at least one" true (List.length applied >= 1);
  let ins =
    [
      (b, Helpers.random_tensor 73 [| 5; 6 |] 0.4 F.csr);
      (c, Helpers.random_tensor 74 [| 6; 4 |] 0.4 F.csr);
    ]
  in
  Helpers.check_dense "apply_all preserves semantics"
    (Helpers.eval_cin matmul_ikj ins) (Helpers.eval_cin transformed ins)

let test_heuristics_apply_all_repeatable () =
  (* Workspaces are named by a digest of the statement, so a repeated
     transformation yields the same statement. *)
  let first, _ = Heuristics.apply_all matmul_ikj in
  let second, _ = Heuristics.apply_all matmul_ikj in
  Alcotest.(check bool) "equal statements" true (Cin.equal_stmt first second)

(* Property: precompute of a random factor over j preserves semantics. *)
let prop_precompute_preserves =
  Helpers.qcheck_case ~count:25 "precompute preserves semantics (random inputs)"
    QCheck.(pair (0 -- 10000) (0 -- 2))
    (fun (seed, which) ->
      let expr =
        match which with
        | 0 -> mul (av b [ vi; vk ]) (av c [ vk; vj ])
        | 1 -> av c [ vk; vj ]
        | _ -> av b [ vi; vk ]
      in
      let over = match which with 2 -> [ vk ] | _ -> [ vj ] in
      let ws =
        Tensor_var.workspace "wq" ~order:(List.length over) ~format:F.dense_vector
      in
      match Workspace.precompute matmul_ikj ~expr ~over ~workspace:ws with
      | Error _ -> true (* precondition failures are fine; semantics checked on success *)
      | Ok result ->
          let ins =
            [
              (b, Helpers.random_tensor seed [| 4; 5 |] 0.5 F.csr);
              (c, Helpers.random_tensor (seed + 1) [| 5; 3 |] 0.5 F.csr);
            ]
          in
          Taco_tensor.Dense.equal ~eps:1e-9
            (Helpers.eval_cin matmul_ikj ins) (Helpers.eval_cin result ins))

(* Random precompute targets on the MTTKRP nest: every accepted
   transformation preserves the reference semantics. *)
let prop_mttkrp_precompute =
  Helpers.qcheck_case ~count:30 "random precompute on MTTKRP preserves semantics"
    QCheck.(pair (0 -- 10000) (pair (0 -- 4) bool))
    (fun (seed, (which, over_two)) ->
      let expr =
        match which with
        | 0 -> mul (av b3 [ vi; vk; vl ]) (av c [ vl; vj ])
        | 1 -> av c [ vl; vj ]
        | 2 -> av d [ vk; vj ]
        | 3 -> mul (mul (av b3 [ vi; vk; vl ]) (av c [ vl; vj ])) (av d [ vk; vj ])
        | _ -> av b3 [ vi; vk; vl ]
      in
      let over = if over_two then [ vk; vj ] else [ vj ] in
      let ws =
        Tensor_var.workspace "wq" ~order:(List.length over)
          ~format:(F.dense (List.length over))
      in
      match Workspace.precompute mttkrp ~expr ~over ~workspace:ws with
      | Error _ -> true
      | Ok result ->
          let ins =
            [
              (b3, Helpers.random_tensor seed [| 4; 5; 6 |] 0.15 (F.csf 3));
              (c, Helpers.random_tensor (seed + 1) [| 6; 3 |] 0.5 F.csr);
              (d, Helpers.random_tensor (seed + 2) [| 5; 3 |] 0.5 F.csr);
            ]
          in
          Taco_tensor.Dense.equal ~eps:1e-9 (Helpers.eval_cin mttkrp ins)
            (Helpers.eval_cin result ins))

let () =
  Alcotest.run "workspace"
    [
      ( "matmul",
        [
          Alcotest.test_case "paper structure" `Quick test_matmul_structure;
          Alcotest.test_case "semantics preserved" `Quick test_matmul_semantics;
        ] );
      ( "mttkrp",
        [
          Alcotest.test_case "first transform (hoist)" `Quick test_mttkrp_first_transform;
          Alcotest.test_case "second transform (sparse result)" `Quick test_mttkrp_second_transform;
          Alcotest.test_case "semantics preserved" `Quick test_mttkrp_semantics;
        ] );
      ( "addition",
        [
          Alcotest.test_case "whole-rhs precompute" `Quick test_add_whole_rhs;
          Alcotest.test_case "result reuse sequence" `Quick test_add_result_reuse;
          Alcotest.test_case "addend without reuse" `Quick test_add_addend_without_reuse;
          Alcotest.test_case "vector add reuse (§V-B)" `Quick test_vector_add_reuse;
        ] );
      ( "preconditions",
        [
          Alcotest.test_case "workspace order" `Quick test_rejects_wrong_order_workspace;
          Alcotest.test_case "expression not found" `Quick test_rejects_missing_expr;
          Alcotest.test_case "sequence input" `Quick test_rejects_sequence_input;
          Alcotest.test_case "non-factor expression" `Quick test_rejects_non_factor;
          Alcotest.test_case "workspace name in use" `Quick test_rejects_used_workspace_name;
          Alcotest.test_case "addend reduction" `Quick test_rejects_addend_reduction;
        ] );
      ( "scheduling api",
        [
          Alcotest.test_case "renaming triplets" `Quick test_schedule_precompute_renames;
          Alcotest.test_case "fig 2 pipeline with parser" `Quick test_schedule_full_fig2_pipeline;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "avoid expensive inserts" `Quick test_heuristic_avoid_insert;
          Alcotest.test_case "hoist loop invariant code" `Quick test_heuristic_hoist;
          Alcotest.test_case "simplify merges" `Quick test_heuristic_merge;
          Alcotest.test_case "quiet on dense copies" `Quick test_heuristic_none_for_dense;
          Alcotest.test_case "apply_all preserves semantics" `Quick test_heuristics_apply_all_preserves;
          Alcotest.test_case "apply_all is repeatable" `Quick test_heuristics_apply_all_repeatable;
        ] );
      ("properties", [ prop_precompute_preserves; prop_mttkrp_precompute ]);
    ]

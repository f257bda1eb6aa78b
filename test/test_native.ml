(* The native C execution backend: kernels compiled by the system C
   compiler into shared objects must be bit-identical to the closure
   executor on the paper's three workspace kernels (sequential and
   parallelized), join the single-flight compilation cache, and
   downgrade to closures — counted, never a client error — when the
   compiler is broken.

   Everything that needs a real compiler is gated on
   [Native.available ()] and reports itself skipped on machines
   without one; the downgrade tests run everywhere (a bogus TACO_CC is
   exactly the point). *)

open Helpers
open Taco
module T = Taco_tensor.Tensor
module F = Taco_tensor.Format
module Coo = Taco_tensor.Coo

let have_cc = Native.available ()

(* A gated test: a no-op (with a note) when there is no C compiler. *)
let cc_case name f =
  Alcotest.test_case name `Quick (fun () ->
      if have_cc then f ()
      else
        Printf.printf "  [skipped: C compiler %S unavailable]\n" (Native.compiler ()))

let float_bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x ->
          if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i))) then
            ok := false)
        a;
      !ok)

let tensors_bit_identical t1 t2 =
  T.dims t1 = T.dims t2
  && float_bits_equal (T.vals t1) (T.vals t2)
  && List.for_all
       (fun l ->
         match (T.level_data t1 l, T.level_data t2 l) with
         | T.Dense_data { size = s1 }, T.Dense_data { size = s2 } -> s1 = s2
         | T.Compressed_data c1, T.Compressed_data c2 ->
             c1.pos = c2.pos && c1.crd = c2.crd
         | T.Dense_data _, T.Compressed_data _ | T.Compressed_data _, T.Dense_data _ ->
             false)
       (List.init (T.order t1) Fun.id)

(* --- the three paper kernels, sequential and parallelized ------------ *)

let spgemm_sched ~parallel =
  let a = tensor "A" Format.csr in
  let b = tensor "B" Format.csr in
  let c = tensor "C" Format.csr in
  let open Index_notation in
  let stmt = assign a [ vi; vj ] (sum vk (Mul (access b [ vi; vk ], access c [ vk; vj ]))) in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = get (Schedule.reorder vk vj sched) in
  let w = workspace "w" Format.dense_vector in
  let e = Cin.Mul (Cin.Access (Cin.access b [ vi; vk ]), Cin.Access (Cin.access c [ vk; vj ])) in
  let sched = get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
  let sched = if parallel then getd (parallelize vi sched) else sched in
  (b, c, sched)

let spadd_sched ~parallel =
  let a = tensor "A" Format.csr in
  let b = tensor "B" Format.csr in
  let c = tensor "C" Format.csr in
  let open Index_notation in
  let stmt = assign a [ vi; vj ] (Add (access b [ vi; vj ], access c [ vi; vj ])) in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = if parallel then getd (parallelize vi sched) else sched in
  (b, c, sched)

let mttkrp_sched ~parallel =
  let a = tensor "A" Format.dense_matrix in
  let b = tensor "B" (Format.csf 3) in
  let c = tensor "C" Format.dense_matrix in
  let d = tensor "D" Format.dense_matrix in
  let open Index_notation in
  let stmt =
    assign a [ vi; vj ]
      (sum vk
         (sum vl (Mul (Mul (access b [ vi; vk; vl ], access c [ vl; vj ]), access d [ vk; vj ]))))
  in
  let sched = get (Schedule.of_index_notation stmt) in
  let sched = get (Schedule.reorder vj vk sched) in
  let sched = get (Schedule.reorder vj vl sched) in
  let w = workspace "w" Format.dense_vector in
  let e = Cin.Mul (Cin.Access (Cin.access b [ vi; vk; vl ]), Cin.Access (Cin.access c [ vl; vj ])) in
  let sched = get (Schedule.precompute_simple ~expr:e ~over:[ vj ] ~workspace:w sched) in
  let sched = if parallel then getd (parallelize vi sched) else sched in
  (a, b, c, d, sched)

let spgemm_inputs b c seed =
  [
    (b, random_tensor (seed + 11) [| 24; 18 |] 0.3 F.csr);
    (c, random_tensor (seed + 12) [| 18; 21 |] 0.3 F.csr);
  ]

(* Compile the same schedule under both backends and hold the native
   result to bit-identity with the closure one across several seeds. *)
let check_both ~name sched inputs_of =
  let closure = getd (compile ~name ~backend:`Closure sched) in
  let native = getd (compile ~name ~backend:`Native sched) in
  Alcotest.(check bool) "native backend actually used" true (backend_of native = `Native);
  List.iter
    (fun seed ->
      let inputs = inputs_of seed in
      let rc = getd (run closure ~inputs) in
      let rn = getd (run native ~inputs) in
      if not (tensors_bit_identical rc rn) then
        Alcotest.failf "%s (seed %d): native result diverges from closures" name seed)
    [ 1; 2; 3 ]

let test_spgemm_identity ~parallel () =
  let b, c, sched = spgemm_sched ~parallel in
  check_both
    ~name:(if parallel then "spgemm_nat_par" else "spgemm_nat")
    sched (spgemm_inputs b c)

let test_spadd_identity ~parallel () =
  let b, c, sched = spadd_sched ~parallel in
  check_both
    ~name:(if parallel then "spadd_nat_par" else "spadd_nat")
    sched
    (fun seed ->
      [
        (b, random_tensor (seed + 21) [| 30; 25 |] 0.25 F.csr);
        (c, random_tensor (seed + 22) [| 30; 25 |] 0.25 F.csr);
      ])

let test_mttkrp_identity ~parallel () =
  let _, b, c, d, sched = mttkrp_sched ~parallel in
  check_both
    ~name:(if parallel then "mttkrp_nat_par" else "mttkrp_nat")
    sched
    (fun seed ->
      [
        (b, random_tensor (seed + 31) [| 9; 7; 6 |] 0.3 (F.csf 3));
        (c, random_tensor (seed + 32) [| 6; 8 |] 1.0 F.dense_matrix);
        (d, random_tensor (seed + 33) [| 7; 8 |] 1.0 F.dense_matrix);
      ])

(* Chunked closure runs and the native OpenMP run must still agree: the
   chunk count fixes the closure merge, and the native backend renders
   parallel loops with the same ordered-append semantics. *)
let test_parallel_domains_identity () =
  let b, c, sched = spgemm_sched ~parallel:true in
  let closure = getd (compile ~name:"spgemm_nat_par" ~backend:`Closure sched) in
  let native = getd (compile ~name:"spgemm_nat_par" ~backend:`Native sched) in
  let inputs = spgemm_inputs b c 7 in
  let rn = getd (run native ~inputs) in
  List.iter
    (fun domains ->
      let rc = getd (run ~domains closure ~inputs) in
      if not (tensors_bit_identical rc rn) then
        Alcotest.failf "native diverges from the %d-domain closure run" domains)
    [ 1; 2; 3 ]

(* --- the assembly drain: mask scan or sort ----------------------------- *)

(* A = B·C with rows of 0, 1, 3, 4 and 64 nonzeros out of 64 columns:
   empty, one entry, one below the scan threshold (64 / 16 = 4), exactly
   at it, and full. Row i of A sums C rows 2i (the high half of its
   columns) and 2i+1 (the low half), so the workspace list of every row
   with two or more entries is out of order before the drain. *)
let drain_inputs b c =
  let cols = 64 in
  let sizes = [| 0; 1; 3; 4; cols |] in
  let rows = Array.length sizes in
  let bcoo = Coo.create [| rows; 2 * rows |] and ccoo = Coo.create [| 2 * rows; cols |] in
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        Coo.push bcoo [| i; 2 * i |] 1.5;
        Coo.push bcoo [| i; (2 * i) + 1 |] (-0.5)
      end;
      for q = 0 to n - 1 do
        let k = if q >= n / 2 then 2 * i else (2 * i) + 1 in
        Coo.push ccoo [| k; q * cols / n |] (0.25 *. float_of_int (q + 1))
      done)
    sizes;
  [ (b, T.pack bcoo F.csr); (c, T.pack ccoo F.csr) ]

let test_drain_threshold () =
  let b, c, sched = spgemm_sched ~parallel:false in
  let inputs = drain_inputs b c in
  let profiled = getd (compile ~name:"spgemm_drain" ~profile:true sched) in
  let checked = getd (compile ~name:"spgemm_drain" ~checked:true sched) in
  let native = getd (compile ~name:"spgemm_drain" ~backend:`Native sched) in
  Alcotest.(check bool) "native backend actually used" true (backend_of native = `Native);
  Kernel.profile_reset (kernel profiled);
  let rp = getd (run profiled ~inputs) in
  let rc = getd (run checked ~inputs) and rn = getd (run native ~inputs) in
  Alcotest.(check bool) "checked closures bit-identical" true (tensors_bit_identical rp rc);
  Alcotest.(check bool) "native bit-identical" true (tensors_bit_identical rp rn);
  Alcotest.(check (array int)) "row sizes" [| 0; 0; 1; 4; 8; 72 |]
    (match T.level_data rn 1 with T.Compressed_data { pos; _ } -> pos | T.Dense_data _ -> [||]);
  check_dense "matches the reference interpreter"
    (eval_cin (Schedule.stmt sched) inputs)
    (T.to_dense rn);
  match Kernel.profile_stats (kernel profiled) with
  | None -> Alcotest.fail "profiled kernel reports no stats"
  | Some st ->
      Alcotest.(check int) "rows of 0, 1 and 3 entries sorted" 3 st.Compile.sorts;
      Alcotest.(check int) "rows of 4 and 64 entries scanned" 2 st.Compile.mask_scans

(* --- build directory: a cleanup does not poison later builds ---------- *)

let test_build_after_cleanup () =
  let _, _, s1 = spadd_sched ~parallel:false in
  let k1 = getd (compile ~name:"spadd_before_cleanup" ~backend:`Native s1) in
  Alcotest.(check bool) "first build native" true (backend_of k1 = `Native);
  Native.cleanup ();
  let before = (Compile.backend_stats ()).Compile.downgrades in
  let _, _, s2 = spgemm_sched ~parallel:false in
  let k2 = getd (compile ~name:"spgemm_after_cleanup" ~backend:`Native s2) in
  Alcotest.(check bool) "build after cleanup native" true (backend_of k2 = `Native);
  Alcotest.(check int) "no downgrade" before (Compile.backend_stats ()).Compile.downgrades

(* --- generated exec C compiles under -Wall -Werror ------------------- *)

let test_exec_c_warning_clean () =
  let kernels =
    let _, _, s1 = spgemm_sched ~parallel:false in
    let _, _, s2 = spgemm_sched ~parallel:true in
    let _, _, s3 = spadd_sched ~parallel:false in
    let _, _, _, _, s4 = mttkrp_sched ~parallel:true in
    List.map
      (fun (name, sched) -> (name, Kernel.imp (kernel (getd (compile ~name sched)))))
      [
        ("spgemm_wal", s1); ("spgemm_wal_par", s2); ("spadd_wal", s3); ("mttkrp_wal_par", s4);
      ]
  in
  List.iter
    (fun (name, k) ->
      let src = Codegen_c.emit_exec k in
      let cfile = Filename.temp_file ("taco_wal_" ^ name) ".c" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove cfile with Sys_error _ -> ())
        (fun () ->
          Out_channel.with_open_bin cfile (fun oc -> Out_channel.output_string oc src);
          let cmd =
            Printf.sprintf "%s -O3 -Wall -Werror -fopenmp -x c -c -o /dev/null %s"
              (Filename.quote (Native.compiler ()))
              (Filename.quote cfile)
          in
          if Sys.command cmd <> 0 then
            Alcotest.failf "%s: emit_exec output does not compile under -Wall -Werror" name))
    kernels

(* --- cache: native builds are single-flighted across domains --------- *)

let test_single_flight () =
  Compile.cache_clear ();
  let _, _, sched = spgemm_sched ~parallel:false in
  let before = (Compile.cache_stats ()).Compile.misses in
  let compiled =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> getd (compile ~name:"spgemm_sf" ~backend:`Native sched)))
    |> List.map Domain.join
  in
  let after = (Compile.cache_stats ()).Compile.misses in
  Alcotest.(check int) "exactly one native build for four racing domains" 1
    (after - before);
  List.iter
    (fun c ->
      Alcotest.(check bool) "every domain got the native kernel" true
        (backend_of c = `Native))
    compiled

(* --- downgrade paths (run everywhere, no compiler needed) ------------ *)

let with_bogus_cc f =
  Unix.putenv "TACO_CC" "/definitely/not/a/compiler";
  (* An empty TACO_CC falls back to the default compiler. *)
  Fun.protect ~finally:(fun () -> Unix.putenv "TACO_CC" "") f

let test_bogus_compiler_falls_back () =
  with_bogus_cc @@ fun () ->
  let before = (Compile.backend_stats ()).Compile.downgrades in
  let b, c, sched = spadd_sched ~parallel:false in
  let native = getd (compile ~name:"spadd_fallback" ~backend:`Native sched) in
  Alcotest.(check bool) "served by closures" true (backend_of native = `Closure);
  let after = (Compile.backend_stats ()).Compile.downgrades in
  Alcotest.(check bool) "downgrade was counted" true (after > before);
  (* And it still computes: the fallback is a working executor, not a
     stub. *)
  let inputs =
    [
      (b, random_tensor 41 [| 12; 12 |] 0.3 F.csr);
      (c, random_tensor 42 [| 12; 12 |] 0.3 F.csr);
    ]
  in
  let closure = getd (compile ~name:"spadd_fallback" ~backend:`Closure sched) in
  let rc = getd (run closure ~inputs) in
  let rn = getd (run native ~inputs) in
  Alcotest.(check bool) "fallback result identical" true (tensors_bit_identical rc rn)

let test_compiler_id_in_cache_key () =
  (* The same structure under two TACO_CC values must not share a cache
     entry: a bogus-compiler downgrade must not be served back once a
     working compiler is configured. *)
  let _, _, sched = spadd_sched ~parallel:false in
  let k1 = with_bogus_cc (fun () -> getd (compile ~name:"spadd_key" ~backend:`Native sched)) in
  Alcotest.(check bool) "bogus entry downgraded" true (backend_of k1 = `Closure);
  if have_cc then
    let k2 = getd (compile ~name:"spadd_key" ~backend:`Native sched) in
    Alcotest.(check bool) "real compiler not served the stale downgrade" true
      (backend_of k2 = `Native)

let () =
  Alcotest.run "native"
    [
      ( "bit-identity",
        [
          cc_case "SpGEMM closure vs native" (test_spgemm_identity ~parallel:false);
          cc_case "SpAdd closure vs native" (test_spadd_identity ~parallel:false);
          cc_case "MTTKRP closure vs native" (test_mttkrp_identity ~parallel:false);
          cc_case "SpGEMM parallel (OpenMP) vs closure" (test_spgemm_identity ~parallel:true);
          cc_case "SpAdd parallel (OpenMP) vs closure" (test_spadd_identity ~parallel:true);
          cc_case "MTTKRP parallel (OpenMP) vs closure" (test_mttkrp_identity ~parallel:true);
          cc_case "native vs chunked closure runs" test_parallel_domains_identity;
        ] );
      ("codegen", [ cc_case "exec C is -Wall -Werror clean" test_exec_c_warning_clean ]);
      ("drain", [ cc_case "rows straddling the mask-scan threshold" test_drain_threshold ]);
      ("cache", [ cc_case "native builds single-flight across domains" test_single_flight ]);
      ("build dir", [ cc_case "native build after cleanup" test_build_after_cleanup ]);
      ( "fallback",
        [
          Alcotest.test_case "bogus TACO_CC downgrades to closures" `Quick
            test_bogus_compiler_falls_back;
          Alcotest.test_case "compiler id is part of the cache key" `Quick
            test_compiler_id_in_cache_key;
        ] );
    ]

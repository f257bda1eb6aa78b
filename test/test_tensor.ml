module F = Taco_tensor.Format
module L = Taco_tensor.Level
module T = Taco_tensor.Tensor
module D = Taco_tensor.Dense
module Coo = Taco_tensor.Coo
module Gen = Taco_tensor.Gen
module Suite = Taco_tensor.Suite
module Prng = Taco_support.Prng

let check_dense = Helpers.check_dense

(* ------------------------------------------------------------------ *)
(* Dense                                                               *)
(* ------------------------------------------------------------------ *)

let test_dense_get_set () =
  let d = D.create [| 2; 3 |] in
  D.set d [| 1; 2 |] 5.;
  D.add_at d [| 1; 2 |] 1.5;
  Alcotest.(check (float 0.)) "get" 6.5 (D.get d [| 1; 2 |]);
  Alcotest.(check (float 0.)) "other cells zero" 0. (D.get d [| 0; 0 |]);
  Alcotest.(check int) "nnz" 1 (D.nnz d);
  Alcotest.(check int) "size" 6 (D.size d)

let test_dense_row_major () =
  let d = D.init [| 2; 3 |] (fun c -> float_of_int ((c.(0) * 3) + c.(1))) in
  Alcotest.(check (array (float 0.))) "row-major layout"
    [| 0.; 1.; 2.; 3.; 4.; 5. |] (D.buffer d)

let test_dense_bounds () =
  let d = D.create [| 2; 2 |] in
  Alcotest.check_raises "out of bounds" (Invalid_argument "Dense.offset: out of bounds")
    (fun () -> ignore (D.get d [| 2; 0 |]));
  Alcotest.check_raises "rank mismatch" (Invalid_argument "Dense.offset: rank mismatch")
    (fun () -> ignore (D.get d [| 0 |]))

let test_dense_scalar () =
  let d = D.create [||] in
  Alcotest.(check int) "scalar size" 1 (D.size d);
  D.set d [||] 3.;
  Alcotest.(check (float 0.)) "scalar get" 3. (D.get d [||])

let test_dense_map2 () =
  let a = D.init [| 2; 2 |] (fun c -> float_of_int c.(0)) in
  let b = D.init [| 2; 2 |] (fun c -> float_of_int c.(1)) in
  let s = D.map2 ( +. ) a b in
  Alcotest.(check (float 0.)) "sum at (1,1)" 2. (D.get s [| 1; 1 |])

(* ------------------------------------------------------------------ *)
(* Formats                                                             *)
(* ------------------------------------------------------------------ *)

let test_format_accessors () =
  Alcotest.(check int) "csr order" 2 (F.order F.csr);
  Alcotest.(check bool) "csr level 0 dense" true (L.equal (F.level F.csr 0) L.Dense);
  Alcotest.(check bool) "csr level 1 compressed" true
    (L.equal (F.level F.csr 1) L.Compressed);
  Alcotest.(check int) "csc stores columns first" 1 (F.mode_of_level F.csc 0);
  Alcotest.(check int) "csc level of mode 0" 1 (F.level_of_mode F.csc 0);
  Alcotest.(check bool) "dense_matrix all dense" true (F.is_all_dense F.dense_matrix);
  Alcotest.(check bool) "csf all compressed" true (F.is_all_compressed (F.csf 3))

let test_format_invalid () =
  Alcotest.check_raises "bad permutation"
    (Invalid_argument "Format.make: mode_order is not a permutation") (fun () ->
      ignore (F.make [ L.Dense; L.Dense ] ~mode_order:[ 0; 0 ]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Format.make: levels and mode_order lengths differ") (fun () ->
      ignore (F.make [ L.Dense ] ~mode_order:[ 0; 1 ]))

(* ------------------------------------------------------------------ *)
(* COO                                                                 *)
(* ------------------------------------------------------------------ *)

let test_coo_duplicates_sum () =
  let c = Coo.create [| 3; 3 |] in
  Coo.push c [| 1; 2 |] 1.5;
  Coo.push c [| 1; 2 |] 2.5;
  Coo.push c [| 0; 0 |] 1.;
  let cols, vals = Coo.sorted_unique ~perm:[| 0; 1 |] c in
  Alcotest.(check int) "two unique entries" 2 (Array.length vals);
  Alcotest.(check (array int)) "first coordinate" [| 0; 0 |] [| cols.(0).(0); cols.(1).(0) |];
  Alcotest.(check (float 0.)) "summed value" 4. vals.(1)

let test_coo_permuted_sort () =
  let c = Coo.create [| 2; 2 |] in
  Coo.push c [| 0; 1 |] 1.;
  Coo.push c [| 1; 0 |] 2.;
  (* Column-major permutation sorts by column first. *)
  let cols, _ = Coo.sorted_unique ~perm:[| 1; 0 |] c in
  Alcotest.(check (array int)) "column 0 first" [| 1; 0 |] [| cols.(0).(0); cols.(1).(0) |]

let test_coo_bounds () =
  let c = Coo.create [| 2; 2 |] in
  Alcotest.check_raises "coordinate out of bounds"
    (Invalid_argument "Coo.push: coordinate out of bounds") (fun () ->
      Coo.push c [| 0; 5 |] 1.)

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

let all_formats_2d =
  [
    ("csr", F.csr);
    ("csc", F.csc);
    ("dcsr", F.dcsr);
    ("dense", F.dense_matrix);
    ("dense_then_dense_swapped", F.make [ L.Dense; L.Dense ] ~mode_order:[ 1; 0 ]);
    ("compressed_dense", F.of_levels [ L.Compressed; L.Dense ]);
  ]

let test_pack_roundtrip_formats () =
  let d =
    D.init [| 4; 5 |] (fun c ->
        if (c.(0) + (2 * c.(1))) mod 3 = 0 then float_of_int ((c.(0) * 5) + c.(1) + 1)
        else 0.)
  in
  List.iter
    (fun (name, fmt) ->
      let t = T.of_dense d fmt in
      Helpers.get (T.validate t) |> ignore;
      check_dense (name ^ " roundtrip") d (T.to_dense t))
    all_formats_2d

let test_pack_get () =
  let prng = Prng.create 3 in
  let coo = Gen.random_coo prng ~dims:[| 6; 7 |] ~nnz:15 in
  let reference = Coo.to_dense coo in
  List.iter
    (fun (name, fmt) ->
      let t = T.pack coo fmt in
      D.iteri
        (fun coord expected ->
          if T.get t (Array.copy coord) <> expected then
            Alcotest.fail (Printf.sprintf "%s: get mismatch" name))
        reference)
    all_formats_2d

let test_pack_empty () =
  let t = T.zero [| 3; 4 |] F.csr in
  Alcotest.(check int) "no nonzeros" 0 (T.nnz t);
  check_dense "empty tensor" (D.create [| 3; 4 |]) (T.to_dense t)

let test_pack_csf_3d () =
  let prng = Prng.create 4 in
  let coo = Gen.random_coo prng ~dims:[| 3; 4; 5 |] ~nnz:10 in
  let t = T.pack coo (F.csf 3) in
  Helpers.get (T.validate t) |> ignore;
  check_dense "csf roundtrip" (Coo.to_dense coo) (T.to_dense t);
  Alcotest.(check int) "stored equals nnz for csf" 10 (T.stored t)

let test_csr_arrays () =
  let coo = Coo.create [| 2; 4 |] in
  Coo.push coo [| 0; 1 |] 10.;
  Coo.push coo [| 0; 3 |] 20.;
  Coo.push coo [| 1; 2 |] 30.;
  let t = T.pack coo F.csr in
  let pos, crd, vals = T.csr_arrays t in
  Alcotest.(check (array int)) "pos" [| 0; 2; 3 |] pos;
  Alcotest.(check (array int)) "crd" [| 1; 3; 2 |] crd;
  Alcotest.(check (array (float 0.))) "vals" [| 10.; 20.; 30. |] vals

let test_of_csr_validates () =
  Alcotest.(check bool) "invalid pos rejected" true
    (match T.of_csr ~rows:2 ~cols:2 [| 0; 2; 1 |] [| 0; 1 |] [| 1.; 2. |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "unsorted crd rejected" true
    (match T.of_csr ~rows:1 ~cols:3 [| 0; 2 |] [| 2; 1 |] [| 1.; 2. |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_repack () =
  let prng = Prng.create 5 in
  let t = Gen.random prng ~dims:[| 5; 5 |] ~nnz:8 F.csr in
  let u = T.repack t F.csc in
  Alcotest.(check bool) "csc format" true (F.equal (T.format u) F.csc);
  check_dense "repack preserves values" (T.to_dense t) (T.to_dense u)

let test_equal () =
  let prng = Prng.create 6 in
  let t = Gen.random prng ~dims:[| 4; 4 |] ~nnz:5 F.csr in
  let u = T.repack t F.dcsr in
  Alcotest.(check bool) "equal across formats" true (T.equal t u)

(* ------------------------------------------------------------------ *)
(* Generators and the Table I suite                                    *)
(* ------------------------------------------------------------------ *)

let test_gen_exact_nnz () =
  let prng = Prng.create 7 in
  let t = Gen.random prng ~dims:[| 30; 40 |] ~nnz:100 F.csr in
  Alcotest.(check int) "stored = requested" 100 (T.stored t)

let test_gen_density () =
  let prng = Prng.create 8 in
  let t = Gen.random_density prng ~dims:[| 50; 50 |] ~density:0.02 F.csr in
  Alcotest.(check int) "density 2% of 2500" 50 (T.stored t)

let test_gen_overflow_dims () =
  (* Component count overflows 63-bit ints; falls back to rejection. *)
  let prng = Prng.create 9 in
  let coo =
    Gen.random_coo prng ~dims:[| 1 lsl 21; 1 lsl 21; 1 lsl 21 |] ~nnz:50
  in
  Alcotest.(check int) "entries drawn" 50 (Coo.length coo)

let test_suite_matrices () =
  Alcotest.(check int) "11 matrices" 11 (List.length Suite.matrices);
  let pwtk = List.nth Suite.matrices 9 in
  Alcotest.(check string) "pwtk name" "pwtk" pwtk.Suite.name;
  let scaled = Suite.scaled_matrix_entry ~scale:4 pwtk in
  Alcotest.(check int) "scaled rows" (217918 / 4) scaled.Suite.rows;
  Alcotest.(check int) "scaled nnz" (11524432 / 16) scaled.Suite.nnz

let test_suite_generate () =
  let e = List.hd Suite.matrices in
  let t = Suite.generate_matrix ~seed:1 ~scale:32 e in
  Helpers.get (T.validate t) |> ignore;
  let scaled = Suite.scaled_matrix_entry ~scale:32 e in
  Alcotest.(check int) "rows" scaled.Suite.rows (T.dims t).(0);
  let stored = T.stored t in
  (* The band may collide with the uniform fill; within 10%. *)
  if abs (stored - scaled.Suite.nnz) > scaled.Suite.nnz / 10 then
    Alcotest.failf "nnz %d too far from target %d" stored scaled.Suite.nnz

let test_suite_tensor_standins () =
  Alcotest.(check int) "3 tensors" 3 (List.length Suite.tensor_standins);
  let fb = List.hd Suite.tensor_standins in
  Alcotest.(check string) "facebook full size" "Facebook" fb.Suite.t_name;
  Alcotest.(check int) "facebook nnz published" 737_934 fb.Suite.t_nnz

let prop_pack_roundtrip =
  Helpers.qcheck_case ~count:30 "pack/unpack roundtrip on random matrices"
    QCheck.(pair (0 -- 1000) (0 -- 5))
    (fun (seed, fmt_idx) ->
      let _, fmt = List.nth all_formats_2d fmt_idx in
      let prng = Prng.create seed in
      let nnz = Prng.int prng 20 in
      let coo = Gen.random_coo prng ~dims:[| 6; 8 |] ~nnz in
      let t = T.pack coo fmt in
      T.validate t = Ok () && D.equal ~eps:0. (Coo.to_dense coo) (T.to_dense t))

let prop_get_matches_dense =
  Helpers.qcheck_case ~count:30 "random access agrees with dense"
    QCheck.(0 -- 1000)
    (fun seed ->
      let prng = Prng.create seed in
      let t = Gen.random prng ~dims:[| 5; 5 |] ~nnz:(Prng.int prng 12) F.dcsr in
      let d = T.to_dense t in
      let ok = ref true in
      D.iteri (fun c v -> if T.get t (Array.copy c) <> v then ok := false) d;
      !ok)

(* ------------------------------------------------------------------ *)
(* Equivalence battery: the linear-time constructions against simple   *)
(* references                                                          *)
(* ------------------------------------------------------------------ *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let identical t1 t2 =
  T.dims t1 = T.dims t2
  && F.equal (T.format t1) (T.format t2)
  && bits_equal (T.vals t1) (T.vals t2)
  && List.for_all
       (fun l ->
         match (T.level_data t1 l, T.level_data t2 l) with
         | T.Dense_data { size = a }, T.Dense_data { size = b } -> a = b
         | T.Compressed_data a, T.Compressed_data b -> a.pos = b.pos && a.crd = b.crd
         | T.Dense_data _, T.Compressed_data _ | T.Compressed_data _, T.Dense_data _ -> false)
       (List.init (T.order t1) Fun.id)

(* Reference packer: a stable comparison sort of the entries by their
   level-order coordinates, duplicates summed in insertion order, then
   each level built from the ranges of entries that share a prefix. *)
let reference_pack dims fmt entries =
  let perm = Array.of_list (F.mode_order fmt) in
  let key (c, _) = Array.map (fun m -> c.(m)) perm in
  let sorted = List.stable_sort (fun a b -> compare (key a) (key b)) entries in
  let uniq =
    List.fold_left
      (fun acc e ->
        match acc with
        | (k, sum) :: rest when k = key e -> (k, sum +. snd e) :: rest
        | _ -> (key e, snd e) :: acc)
      [] sorted
    |> List.rev |> Array.of_list
  in
  let segs = ref [ (0, Array.length uniq) ] in
  let levels =
    Array.init (Array.length perm) (fun l ->
        let dim = dims.(perm.(l)) in
        let children = ref [] in
        let coord q = (fst uniq.(q)).(l) in
        let lvl =
          match F.level fmt l with
          | L.Dense ->
              List.iter
                (fun (lo, hi) ->
                  let q = ref lo in
                  for c = 0 to dim - 1 do
                    let start = !q in
                    while !q < hi && coord !q = c do
                      incr q
                    done;
                    children := (start, !q) :: !children
                  done)
                !segs;
              T.Dense_data { size = dim }
          | L.Compressed ->
              let pos = ref [ 0 ] and crd = ref [] and n = ref 0 in
              List.iter
                (fun (lo, hi) ->
                  let q = ref lo in
                  while !q < hi do
                    let c = coord !q and start = !q in
                    while !q < hi && coord !q = c do
                      incr q
                    done;
                    crd := c :: !crd;
                    incr n;
                    children := (start, !q) :: !children
                  done;
                  pos := !n :: !pos)
                !segs;
              T.Compressed_data
                { pos = Array.of_list (List.rev !pos); crd = Array.of_list (List.rev !crd) }
        in
        segs := List.rev !children;
        lvl)
  in
  let vals = List.map (fun (lo, hi) -> if lo < hi then 0. +. snd uniq.(lo) else 0.) !segs in
  T.of_parts ~dims ~format:fmt ~levels ~vals:(Array.of_list vals)

let battery_formats =
  [
    F.csr;
    F.csc;
    F.dcsr;
    F.dense_matrix;
    F.of_levels [ L.Compressed; L.Dense ];
    F.csf 3;
    F.of_levels [ L.Dense; L.Compressed; L.Compressed ];
    F.sparse_vector;
  ]

(* Values chosen so that the order of a duplicate sum shows in the bits
   (1e16 + 1 - 1e16), with signed and explicit zeros. *)
let battery_values = [| 1.; 0.1; -0.; 0.; 1e16; -1e16; 2.5; -3. |]

let battery_value prng = battery_values.(Prng.int prng (Array.length battery_values))

(* Dense levels stay small (they materialize every position); compressed
   ones sometimes get an extent far above the entry count, which takes
   the comparison-sort fallback. Coordinates come from three values per
   mode, so duplicates are common; a quarter of the cases are empty. *)
let battery_case prng fmt =
  let order = F.order fmt in
  let dims = Array.make order 1 in
  for l = 0 to order - 1 do
    dims.(F.mode_of_level fmt l) <-
      (match F.level fmt l with
      | L.Dense -> 1 + Prng.int prng 6
      | L.Compressed -> (
          match Prng.int prng 3 with
          | 0 -> 1 + Prng.int prng 6
          | 1 -> 1 + Prng.int prng 40
          | _ -> 1_000_000))
  done;
  let n = if Prng.int prng 4 = 0 then 0 else Prng.int prng 50 in
  let pools = Array.map (fun d -> Array.init 3 (fun _ -> Prng.int prng d)) dims in
  let entries =
    List.init n (fun _ ->
        (Array.map (fun pool -> pool.(Prng.int prng 3)) pools, battery_value prng))
  in
  (dims, entries)

let prop_pack_matches_reference =
  Helpers.qcheck_case ~count:300 "pack = comparison-sort reference"
    QCheck.(pair (0 -- 100_000) (0 -- (List.length battery_formats - 1)))
    (fun (seed, f) ->
      let fmt = List.nth battery_formats f in
      let dims, entries = battery_case (Prng.create seed) fmt in
      let coo = Coo.create dims in
      List.iter (fun (c, v) -> Coo.push coo c v) entries;
      identical (T.pack coo fmt) (reference_pack dims fmt entries))

let dense_formats =
  [
    F.dense_vector;
    F.dense_matrix;
    F.make [ L.Dense; L.Dense ] ~mode_order:[ 1; 0 ];
    F.dense 3;
    F.make [ L.Dense; L.Dense; L.Dense ] ~mode_order:[ 2; 0; 1 ];
  ]

let prop_dense_direct_matches_coo =
  Helpers.qcheck_case ~count:200 "direct zero/of_dense = COO path (incl. -0.)"
    QCheck.(pair (0 -- 100_000) (0 -- (List.length dense_formats - 1)))
    (fun (seed, f) ->
      let fmt = List.nth dense_formats f in
      let prng = Prng.create seed in
      let dims = Array.init (F.order fmt) (fun _ -> 1 + Prng.int prng 5) in
      let d = D.init dims (fun _ -> battery_value prng) in
      identical (T.of_dense d fmt) (T.pack (Coo.of_dense d) fmt)
      && identical (T.zero dims fmt) (T.pack (Coo.create dims) fmt))

(* The general transpose: every nonzero through a coordinate list. *)
let coo_transpose t =
  let dims = T.dims t in
  let coo = Coo.create [| dims.(1); dims.(0) |] in
  T.iteri_stored (fun c v -> if v <> 0. then Coo.push coo [| c.(1); c.(0) |] v) t;
  T.pack coo (T.format t)

let prop_transpose_matches_coo =
  Helpers.qcheck_case ~count:200 "Ops.transpose = COO transpose (explicit zeros)"
    QCheck.(pair (0 -- 100_000) bool)
    (fun (seed, csc) ->
      let fmt = if csc then F.csc else F.csr in
      let prng = Prng.create seed in
      let dims = [| 1 + Prng.int prng 12; 1 + Prng.int prng 12 |] in
      let coo = Coo.create dims in
      for _ = 1 to Prng.int prng 60 do
        Coo.push coo [| Prng.int prng dims.(0); Prng.int prng dims.(1) |] (battery_value prng)
      done;
      let t = T.pack coo fmt in
      identical (Taco_ops.Ops.transpose t) (coo_transpose t))

let () =
  Alcotest.run "tensor"
    [
      ( "dense",
        [
          Alcotest.test_case "get/set/add_at" `Quick test_dense_get_set;
          Alcotest.test_case "row-major layout" `Quick test_dense_row_major;
          Alcotest.test_case "bounds" `Quick test_dense_bounds;
          Alcotest.test_case "order-0 scalar" `Quick test_dense_scalar;
          Alcotest.test_case "map2" `Quick test_dense_map2;
        ] );
      ( "format",
        [
          Alcotest.test_case "accessors" `Quick test_format_accessors;
          Alcotest.test_case "invalid formats" `Quick test_format_invalid;
        ] );
      ( "coo",
        [
          Alcotest.test_case "duplicates summed" `Quick test_coo_duplicates_sum;
          Alcotest.test_case "permuted sort" `Quick test_coo_permuted_sort;
          Alcotest.test_case "bounds" `Quick test_coo_bounds;
        ] );
      ( "pack",
        [
          Alcotest.test_case "roundtrip across formats" `Quick test_pack_roundtrip_formats;
          Alcotest.test_case "random access" `Quick test_pack_get;
          Alcotest.test_case "empty tensor" `Quick test_pack_empty;
          Alcotest.test_case "3d csf" `Quick test_pack_csf_3d;
          Alcotest.test_case "csr arrays" `Quick test_csr_arrays;
          Alcotest.test_case "of_csr validation" `Quick test_of_csr_validates;
          Alcotest.test_case "repack" `Quick test_repack;
          Alcotest.test_case "logical equality" `Quick test_equal;
          prop_pack_roundtrip;
          prop_get_matches_dense;
        ] );
      ( "reference",
        [ prop_pack_matches_reference; prop_dense_direct_matches_coo; prop_transpose_matches_coo ]
      );
      ( "generators",
        [
          Alcotest.test_case "exact nnz" `Quick test_gen_exact_nnz;
          Alcotest.test_case "density target" `Quick test_gen_density;
          Alcotest.test_case "overflowing dims" `Quick test_gen_overflow_dims;
          Alcotest.test_case "table I entries" `Quick test_suite_matrices;
          Alcotest.test_case "table I generation" `Quick test_suite_generate;
          Alcotest.test_case "frostt stand-ins" `Quick test_suite_tensor_standins;
        ] );
    ]

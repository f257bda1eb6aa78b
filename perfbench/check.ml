(* The correctness gate: references that never go through Lower or
   Compile, and the comparison of program outputs against them.

   Small statements are checked against Cin_eval (the dense reference
   interpreter of concrete index notation) run on the unscheduled
   statement. Where dense evaluation is too costly, or the semiring is
   not (+, x), a plain-OCaml reference below computes the same result
   once, in set-up.

   Float tolerance: two values agree when they are equal (infinities
   included) or |a - b| <= atol + rtol * max(|a|, |b|), with atol = 1e-12
   and rtol = 1e-9 by default. PageRank uses rtol = 1e-6: the program
   and the reference may stop one power iteration apart at the same
   convergence threshold. *)

open Taco

type reference =
  | Dense_ref of { dims : int array; vals : float array }
      (** every entry, row-major *)
  | Csr_ref of { rows : int; cols : int; pos : int array; crd : int array; vals : float array }
      (** nonzero entries only, sorted within each row *)

let atol = 1e-12

let default_rtol = 1e-9

let close ?(rtol = default_rtol) a b =
  a = b
  || Float.is_finite a && Float.is_finite b
     && abs_float (a -. b) <= atol +. (rtol *. Float.max (abs_float a) (abs_float b))

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let dims_str d = String.concat "x" (Array.to_list (Array.map string_of_int d))

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let check_dense ~rtol ~dims ~vals t =
  if Tensor.dims t <> dims then fail "dims %s, expected %s" (dims_str (Tensor.dims t)) (dims_str dims)
  else if not (Format.is_all_dense (Tensor.format t)) then
    fail "result stored as %s, expected dense" (Format.to_string (Tensor.format t))
  else begin
    let got = Tensor.vals t in
    if Array.length got <> Array.length vals then
      fail "%d values, expected %d" (Array.length got) (Array.length vals)
    else
      let bad = ref (-1) in
      Array.iteri (fun q v -> if !bad < 0 && not (close ~rtol got.(q) v) then bad := q) vals;
      if !bad < 0 then Ok ()
      else fail "entry %d is %.17g, expected %.17g" !bad got.(!bad) vals.(!bad)
  end

let check_csr ~rtol ~rows ~cols ~pos ~crd ~vals t =
  if Tensor.dims t <> [| rows; cols |] then
    fail "dims %s, expected %dx%d" (dims_str (Tensor.dims t)) rows cols
  else if not (Format.equal (Tensor.format t) Format.csr) then
    fail "result stored as %s, expected csr" (Format.to_string (Tensor.format t))
  else begin
    let tpos, tcrd, tvals = Tensor.csr_arrays t in
    let err = ref None in
    let i = ref 0 in
    while !err = None && !i < rows do
      (* Walk the row's stored nonzeros against the reference's, in
         order; explicit zeros in the result are not entries. *)
      let q = ref pos.(!i) in
      let p = ref tpos.(!i) in
      while !err = None && !p < tpos.(!i + 1) do
        let v = tvals.(!p) in
        if v <> 0. then begin
          if !q >= pos.(!i + 1) then
            err := Some (Printf.sprintf "row %d: extra entry at column %d" !i tcrd.(!p))
          else if tcrd.(!p) <> crd.(!q) then
            err :=
              Some
                (Printf.sprintf "row %d: entry at column %d, expected column %d" !i tcrd.(!p)
                   crd.(!q))
          else if not (close ~rtol v vals.(!q)) then
            err :=
              Some
                (Printf.sprintf "row %d col %d is %.17g, expected %.17g" !i tcrd.(!p) v
                   vals.(!q));
          incr q
        end;
        incr p
      done;
      if !err = None && !q <> pos.(!i + 1) then
        err := Some (Printf.sprintf "row %d: %d entries missing" !i (pos.(!i + 1) - !q));
      incr i
    done;
    match !err with None -> Ok () | Some e -> Error e
  end

let check ?(rtol = default_rtol) reference t =
  match reference with
  | Dense_ref { dims; vals } -> check_dense ~rtol ~dims ~vals t
  | Csr_ref { rows; cols; pos; crd; vals } -> check_csr ~rtol ~rows ~cols ~pos ~crd ~vals t

(* ------------------------------------------------------------------ *)
(* Building references                                                 *)
(* ------------------------------------------------------------------ *)

(* CSR from per-row (column, value) lists, dropping zeros. *)
let csr_of_rows ~rows ~cols (row : int -> (int * float) list) =
  let pos = Array.make (rows + 1) 0 in
  let entries = ref [] and n = ref 0 in
  for i = 0 to rows - 1 do
    List.iter
      (fun ((_, v) as e) ->
        if v <> 0. then begin
          entries := e :: !entries;
          incr n
        end)
      (List.sort (fun (a, _) (b, _) -> compare a b) (row i));
    pos.(i + 1) <- !n
  done;
  let entries = Array.of_list (List.rev !entries) in
  Csr_ref { rows; cols; pos; crd = Array.map fst entries; vals = Array.map snd entries }

let of_dense ~format d =
  let dims = Dense.dims d in
  if Format.is_all_dense format then Dense_ref { dims; vals = Array.copy (Dense.buffer d) }
  else if Format.equal format Format.csr then
    let rows = dims.(0) and cols = dims.(1) in
    let buf = Dense.buffer d in
    csr_of_rows ~rows ~cols (fun i ->
        List.init cols (fun j -> (j, buf.((i * cols) + j))))
  else invalid_arg ("Check.of_dense: unsupported result format " ^ Format.to_string format)

(* Rows of a CSR tensor as (column, value) arrays. *)
let csr_row t =
  let pos, crd, vals = Tensor.csr_arrays t in
  fun i -> Array.init (pos.(i + 1) - pos.(i)) (fun q -> (crd.(pos.(i) + q), vals.(pos.(i) + q)))

(* Row-wise dense accumulation: the shape of every sparse-result
   reference below. [fill i add] adds row i's contributions. *)
let accumulate_rows ~rows ~cols fill =
  let acc = Array.make cols 0. in
  let seen = Array.make cols false in
  let touched = ref [] in
  let add j v =
    if not seen.(j) then begin
      seen.(j) <- true;
      touched := j :: !touched
    end;
    acc.(j) <- acc.(j) +. v
  in
  csr_of_rows ~rows ~cols (fun i ->
      touched := [];
      fill i add;
      let row = List.map (fun j -> (j, acc.(j))) !touched in
      List.iter
        (fun j ->
          acc.(j) <- 0.;
          seen.(j) <- false)
        !touched;
      row)

(* A = B * C, all CSR (Gustavson's row-wise product). *)
let spgemm b c =
  let rows = (Tensor.dims b).(0) and cols = (Tensor.dims c).(1) in
  let brow = csr_row b and crow = csr_row c in
  accumulate_rows ~rows ~cols (fun i add ->
      Array.iter
        (fun (k, bv) -> Array.iter (fun (j, cv) -> add j (bv *. cv)) (crow k))
        (brow i))

(* A = B0 + B1 + ..., all CSR. *)
let spadd ops =
  let d = Tensor.dims (List.hd ops) in
  let rowfs = List.map csr_row ops in
  accumulate_rows ~rows:d.(0) ~cols:d.(1) (fun i add ->
      List.iter (fun r -> Array.iter (fun (j, v) -> add j v) (r i)) rowfs)

(* A(i,j) = sum_{k,l} B(i,k,l) * C(l,j) * D(k,j); dense C, D, A. *)
let mttkrp b c d =
  let bd = Tensor.dims b and cd = Tensor.dims c in
  let rank = cd.(1) in
  let cv = Tensor.vals c and dv = Tensor.vals d in
  let out = Array.make (bd.(0) * rank) 0. in
  Tensor.iteri_stored
    (fun coord v ->
      let i = coord.(0) and k = coord.(1) and l = coord.(2) in
      for j = 0 to rank - 1 do
        out.((i * rank) + j) <- out.((i * rank) + j) +. (v *. cv.((l * rank) + j) *. dv.((k * rank) + j))
      done)
    b;
  Dense_ref { dims = [| bd.(0); rank |]; vals = out }

(* A(i,j) = B(i,j) * sum_k C(i,k) * D(k,j): B CSR, C and D dense, A
   with B's pattern. *)
let sddmm b c d =
  let rows = (Tensor.dims b).(0) and cols = (Tensor.dims b).(1) in
  let rank = (Tensor.dims c).(1) in
  let cv = Tensor.vals c and dv = Tensor.vals d in
  let brow = csr_row b in
  csr_of_rows ~rows ~cols (fun i ->
      Array.to_list
        (Array.map
           (fun (j, bv) ->
             let dot = ref 0. in
             for k = 0 to rank - 1 do
               dot := !dot +. (cv.((i * rank) + k) *. dv.((k * cols) + j))
             done;
             (j, bv *. !dot))
           (brow i)))

(* A(i,j) = sum_k B(i,j,k) * c(k); dense A. *)
let ttv b c =
  let bd = Tensor.dims b in
  let cv = Tensor.vals c in
  let out = Array.make (bd.(0) * bd.(1)) 0. in
  Tensor.iteri_stored
    (fun coord v ->
      let q = (coord.(0) * bd.(1)) + coord.(1) in
      out.(q) <- out.(q) +. (v *. cv.(coord.(2))))
    b;
  Dense_ref { dims = [| bd.(0); bd.(1) |]; vals = out }

(* y(i) = min_j (B(i,j) + x(j)) over B's stored entries; +inf for an
   empty row (the min-plus zero). *)
let spmv_min_plus b x =
  let rows = (Tensor.dims b).(0) in
  let xv = Tensor.vals x in
  let y = Array.make rows infinity in
  let brow = csr_row b in
  for i = 0 to rows - 1 do
    Array.iter (fun (j, v) -> y.(i) <- Float.min y.(i) (v +. xv.(j))) (brow i)
  done;
  Dense_ref { dims = [| rows |]; vals = y }

(* Cin_eval on the unscheduled statement: the dense reference
   interpreter, fed dense copies of the operands. *)
let cin_eval stmt ~result_format ~inputs =
  let dense_inputs = List.map (fun (tv, t) -> (tv, Tensor.to_dense t)) inputs in
  match Cin_eval.eval1 stmt ~inputs:dense_inputs with
  | Ok d -> of_dense ~format:result_format d
  | Error e -> failwith ("Cin_eval: " ^ e)

(* ------------------------------------------------------------------ *)
(* Graph references                                                    *)
(* ------------------------------------------------------------------ *)

let out_edges a =
  let n = (Tensor.dims a).(0) in
  let adj = Array.make n [] in
  Tensor.iteri_stored (fun c v -> if v <> 0. then adj.(c.(0)) <- (c.(1), v) :: adj.(c.(0))) a;
  adj

(* Power iteration with the same model as Graph.pagerank: transition
   P(j, i) = a(i, j) / outdeg(i), teleport, dangling mass spread
   uniformly, stop when the L1 change drops below [tol]. *)
let pagerank ?(damping = 0.85) ?(tol = 1e-12) a =
  let n = (Tensor.dims a).(0) in
  let adj = out_edges a in
  let outdeg = Array.map (fun l -> float_of_int (List.length l)) adj in
  let uniform = 1. /. float_of_int n in
  let rec go r iters =
    let pr = Array.make n 0. in
    Array.iteri
      (fun i l -> List.iter (fun (j, _) -> pr.(j) <- pr.(j) +. (r.(i) /. outdeg.(i))) l)
      adj;
    let dangling = ref 0. in
    Array.iteri (fun i ri -> if outdeg.(i) = 0. then dangling := !dangling +. ri) r;
    let base = ((1. -. damping) +. (damping *. !dangling)) *. uniform in
    let r' = Array.map (fun x -> base +. (damping *. x)) pr in
    let delta = ref 0. in
    Array.iteri (fun i x -> delta := !delta +. abs_float (x -. r.(i))) r';
    if !delta < tol || iters > 10_000 then r else go r' (iters + 1)
  in
  go (Array.make n uniform) 0

let bfs a ~src =
  let n = (Tensor.dims a).(0) in
  let adj = out_edges a in
  let levels = Array.make n (-1) in
  levels.(src) <- 0;
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    List.iter
      (fun (j, _) ->
        if levels.(j) < 0 then begin
          levels.(j) <- levels.(i) + 1;
          Queue.push j q
        end)
      adj.(i)
  done;
  levels

(* Shortest distances over positive weights (Bellman-Ford rounds). *)
let bellman_ford a ~src =
  let n = (Tensor.dims a).(0) in
  let adj = out_edges a in
  let d = Array.make n infinity in
  d.(src) <- 0.;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i l ->
        if d.(i) < infinity then
          List.iter
            (fun (j, w) ->
              if d.(i) +. w < d.(j) then begin
                d.(j) <- d.(i) +. w;
                changed := true
              end)
            l)
      adj
  done;
  d

(* Triangles of a symmetric 0/1 adjacency without self loops. *)
let triangles a =
  let adj = Array.map (fun l -> List.sort_uniq compare (List.map fst l)) (out_edges a) in
  let count = ref 0 in
  Array.iteri
    (fun i ns ->
      List.iter
        (fun j ->
          if j > i then
            List.iter (fun k -> if k > j && List.mem k adj.(i) then incr count) adj.(j))
        ns)
    adj;
  float_of_int !count

let check_floats ?(rtol = default_rtol) ~what got expected =
  if Array.length got <> Array.length expected then
    fail "%s: %d entries, expected %d" what (Array.length got) (Array.length expected)
  else
    let bad = ref (-1) in
    Array.iteri (fun q v -> if !bad < 0 && not (close ~rtol got.(q) v) then bad := q) expected;
    if !bad < 0 then Ok ()
    else fail "%s: entry %d is %.17g, expected %.17g" what !bad got.(!bad) expected.(!bad)

let check_ints ~what got expected =
  if got = expected then Ok ()
  else fail "%s: differs from the reference" what

(* ------------------------------------------------------------------ *)
(* Self-test                                                           *)
(* ------------------------------------------------------------------ *)

(* A copy of [t] with one stored value moved by one part in a million,
   and for CSR also a copy with one entry dropped: outputs the gate
   must refuse. *)
let perturbed t =
  let vals = Array.copy (Tensor.vals t) in
  let q = ref 0 in
  while !q < Array.length vals - 1 && vals.(!q) = 0. do incr q done;
  vals.(!q) <- vals.(!q) +. (1e-6 *. (1. +. abs_float vals.(!q)));
  let dims = Tensor.dims t in
  if Format.equal (Tensor.format t) Format.csr then begin
    let pos, crd, v = Tensor.csr_arrays t in
    let moved = Tensor.of_csr ~rows:dims.(0) ~cols:dims.(1) (Array.copy pos) (Array.copy crd) vals in
    (* Drop the first stored entry of the first non-empty row. *)
    let row = ref 0 in
    while !row < dims.(0) - 1 && pos.(!row + 1) = pos.(!row) do incr row done;
    let skip = pos.(!row) in
    let pos' = Array.mapi (fun r p -> if r > !row then p - 1 else p) pos in
    let drop a = Array.init (Array.length a - 1) (fun q -> if q < skip then a.(q) else a.(q + 1)) in
    [ moved; Tensor.of_csr ~rows:dims.(0) ~cols:dims.(1) pos' (drop crd) (drop v) ]
  end
  else [ Tensor.of_dense (Dense.of_buffer dims vals) (Tensor.format t) ]

(* The gate accepts [good] and refuses every perturbation of it. *)
let self_test check good =
  match check good with
  | Error e -> Error ("the gate refuses a correct output: " ^ e)
  | Ok () ->
      if List.exists (fun bad -> check bad = Ok ()) (perturbed good) then
        Error "the gate accepts a perturbed output"
      else Ok ()

let tensor_of_reference = function
  | Dense_ref { dims; vals } ->
      Tensor.of_dense (Dense.of_buffer dims (Array.copy vals)) (Format.dense (Array.length dims))
  | Csr_ref { rows; cols; pos; crd; vals } ->
      Tensor.of_csr ~rows ~cols (Array.copy pos) (Array.copy crd) (Array.copy vals)

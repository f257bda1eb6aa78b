module Util = Taco_support.Util

type level_data =
  | Dense_data of { size : int }
  | Compressed_data of { pos : int array; crd : int array }

type t = {
  dims : int array;
  format : Format.t;
  levels : level_data array;
  vals : float array;
}

let dims t = Array.copy t.dims

let order t = Array.length t.dims

let format t = t.format

let level_data t l =
  if l < 0 || l >= order t then invalid_arg "Tensor.level_data";
  t.levels.(l)

let vals t = t.vals

let stored t = Array.length t.vals

let validate t =
  let ( let* ) r f = Result.bind r f in
  let n = order t in
  let* () =
    if Array.length t.levels <> n then Error "level count differs from order" else Ok ()
  in
  let rec check l parent_positions =
    if l = n then
      if Array.length t.vals <> parent_positions then
        Error
          (Printf.sprintf "vals has %d entries, expected %d" (Array.length t.vals)
             parent_positions)
      else Ok ()
    else
      let dim = t.dims.(Format.mode_of_level t.format l) in
      match t.levels.(l) with
      | Dense_data { size } ->
          if size <> dim then Error (Printf.sprintf "dense level %d size mismatch" l)
          else check (l + 1) (parent_positions * size)
      | Compressed_data { pos; crd } ->
          if Array.length pos <> parent_positions + 1 then
            Error (Printf.sprintf "level %d pos has wrong length" l)
          else if pos.(0) <> 0 then Error (Printf.sprintf "level %d pos.(0) <> 0" l)
          else begin
            let ok = ref (Ok ()) in
            for p = 0 to parent_positions - 1 do
              if pos.(p) > pos.(p + 1) then
                ok := Error (Printf.sprintf "level %d pos not monotone at %d" l p);
              for k = pos.(p) to pos.(p + 1) - 1 do
                if crd.(k) < 0 || crd.(k) >= dim then
                  ok := Error (Printf.sprintf "level %d crd out of bounds at %d" l k);
                if k > pos.(p) && crd.(k - 1) >= crd.(k) then
                  ok :=
                    Error (Printf.sprintf "level %d crd not strictly sorted at %d" l k)
              done
            done;
            let* () = !ok in
            if Array.length crd < pos.(parent_positions) then
              Error (Printf.sprintf "level %d crd too short" l)
            else check (l + 1) pos.(parent_positions)
          end
  in
  check 0 1

let of_parts ~dims ~format ~levels ~vals =
  let t = { dims = Array.copy dims; format; levels; vals } in
  match validate t with Ok () -> t | Error msg -> invalid_arg ("Tensor.of_parts: " ^ msg)

let check_order dims fmt =
  if Format.order fmt <> Array.length dims then invalid_arg "Tensor.pack: format order mismatch"

let pack coo fmt =
  let dims = Coo.dims coo in
  check_order dims fmt;
  let perm = Array.of_list (Format.mode_order fmt) in
  let cols, in_vals = Coo.sorted_unique ~perm coo in
  let n = Array.length in_vals in
  (* Entries arrive sorted in level order, so each one's position at a
     level is a running count: [p.(k)] is entry k's position at the level
     just built, and positions never decrease with k. *)
  let p = Array.make n 0 in
  let count = ref 1 in
  let levels =
    Array.init (Array.length perm) (fun l ->
        let dim = dims.(perm.(l)) and col = cols.(perm.(l)) in
        match Format.level fmt l with
        | Level.Dense ->
            for k = 0 to n - 1 do
              p.(k) <- (p.(k) * dim) + col.(k)
            done;
            count := !count * dim;
            Dense_data { size = dim }
        | Level.Compressed ->
            let pos = Array.make (!count + 1) 0 and crd = Array.make n 0 in
            let u = ref 0 and last_parent = ref (-1) and last_c = ref (-1) in
            for k = 0 to n - 1 do
              let parent = p.(k) and c = col.(k) in
              if parent <> !last_parent || c <> !last_c then begin
                crd.(!u) <- c;
                pos.(parent + 1) <- pos.(parent + 1) + 1;
                incr u;
                last_parent := parent;
                last_c := c
              end;
              p.(k) <- !u - 1
            done;
            for q = 1 to !count do
              pos.(q) <- pos.(q) + pos.(q - 1)
            done;
            count := !u;
            Compressed_data { pos; crd = Array.sub crd 0 !u })
  in
  (* [0. +. v]: a stored -0. reads back as 0., as a summed cell would. *)
  let vals = Array.make !count 0. in
  for k = 0 to n - 1 do
    vals.(p.(k)) <- 0. +. in_vals.(k)
  done;
  { dims; format = fmt; levels; vals }

(* All-dense formats need no coordinates: every level is implicit, and
   the value array is the dense buffer with its modes in level order. *)
let all_dense_levels dims fmt =
  if Array.exists (fun d -> d <= 0) dims then invalid_arg "Tensor: non-positive dim";
  Array.init (Format.order fmt) (fun l -> Dense_data { size = dims.(Format.mode_of_level fmt l) })

let of_dense d fmt =
  let dims = Dense.dims d in
  check_order dims fmt;
  if not (Format.is_all_dense fmt) then pack (Coo.of_dense d) fmt
  else begin
    let levels = all_dense_levels dims fmt in
    let buf = Dense.buffer d in
    let n = Array.length dims in
    (* [0. +. x] normalizes -0. exactly as [pack] does. *)
    let vals =
      if Format.mode_order fmt = List.init n Fun.id then Array.map (fun x -> 0. +. x) buf
      else begin
        let stride = Array.make n 1 in
        for m = n - 2 downto 0 do
          stride.(m) <- stride.(m + 1) * dims.(m + 1)
        done;
        let out = Array.make (Array.length buf) 0. in
        let rec walk l pos off =
          if l = n then out.(pos) <- 0. +. buf.(off)
          else
            let m = Format.mode_of_level fmt l in
            for c = 0 to dims.(m) - 1 do
              walk (l + 1) ((pos * dims.(m)) + c) (off + (c * stride.(m)))
            done
        in
        walk 0 0 0;
        out
      end
    in
    { dims; format = fmt; levels; vals }
  end

let zero dims fmt =
  check_order dims fmt;
  if not (Format.is_all_dense fmt) then pack (Coo.create dims) fmt
  else
    let levels = all_dense_levels dims fmt in
    let size = Array.fold_left ( * ) 1 dims in
    { dims = Array.copy dims; format = fmt; levels; vals = Array.make size 0. }

let of_csr ~rows ~cols pos crd vals =
  of_parts ~dims:[| rows; cols |] ~format:Format.csr
    ~levels:[| Dense_data { size = rows }; Compressed_data { pos; crd } |]
    ~vals

let get t coord =
  if Array.length coord <> order t then invalid_arg "Tensor.get: rank mismatch";
  let n = order t in
  let rec walk l pos =
    if l = n then t.vals.(pos)
    else
      let c = coord.(Format.mode_of_level t.format l) in
      match t.levels.(l) with
      | Dense_data { size } ->
          if c < 0 || c >= size then invalid_arg "Tensor.get: out of bounds";
          walk (l + 1) ((pos * size) + c)
      | Compressed_data { pos = pa; crd } -> (
          match Util.binary_search crd pa.(pos) pa.(pos + 1) c with
          | Some k -> walk (l + 1) k
          | None -> 0.)
  in
  walk 0 0

let iteri_stored f t =
  let n = order t in
  let coord = Array.make n 0 in
  let rec walk l pos =
    if l = n then f coord t.vals.(pos)
    else
      let mode = Format.mode_of_level t.format l in
      match t.levels.(l) with
      | Dense_data { size } ->
          for c = 0 to size - 1 do
            coord.(mode) <- c;
            walk (l + 1) ((pos * size) + c)
          done
      | Compressed_data { pos = pa; crd } ->
          for k = pa.(pos) to pa.(pos + 1) - 1 do
            coord.(mode) <- crd.(k);
            walk (l + 1) k
          done
  in
  walk 0 0

let nnz t =
  let count = ref 0 in
  Array.iter (fun v -> if v <> 0. then incr count) t.vals;
  !count

let to_dense t =
  let d = Dense.create t.dims in
  iteri_stored (fun coord v -> Dense.set d coord v) t;
  d

let csr_arrays t =
  if not (Format.equal t.format Format.csr) then
    invalid_arg "Tensor.csr_arrays: tensor is not CSR";
  match t.levels with
  | [| Dense_data _; Compressed_data { pos; crd } |] -> (pos, crd, t.vals)
  | _ -> invalid_arg "Tensor.csr_arrays: malformed CSR"

let repack t fmt =
  let coo = Coo.create t.dims in
  iteri_stored (fun coord v -> if v <> 0. then Coo.push coo coord v) t;
  pack coo fmt

let split_rows t ~parts =
  if parts <= 0 then invalid_arg "Tensor.split_rows: parts must be positive";
  let mode0 = Format.mode_of_level t.format 0 in
  let dim0 = t.dims.(mode0) in
  (* Balance by cumulative nonzero count along the level-0 coordinate. *)
  let counts = Array.make dim0 0 in
  iteri_stored (fun c v -> if v <> 0. then counts.(c.(mode0)) <- counts.(c.(mode0)) + 1) t;
  let total = Array.fold_left ( + ) 0 counts in
  let boundaries = Array.make (parts + 1) dim0 in
  boundaries.(0) <- 0;
  let acc = ref 0 and next = ref 1 in
  for r = 0 to dim0 - 1 do
    acc := !acc + counts.(r);
    while !next < parts && !acc * parts >= total * !next do
      boundaries.(!next) <- r + 1;
      incr next
    done
  done;
  for p = !next to parts - 1 do
    boundaries.(p) <- dim0
  done;
  let part_of = Array.make dim0 (parts - 1) in
  for p = 0 to parts - 1 do
    for r = boundaries.(p) to boundaries.(p + 1) - 1 do
      part_of.(r) <- p
    done
  done;
  let coos = Array.init parts (fun _ -> Coo.create t.dims) in
  iteri_stored
    (fun c v -> if v <> 0. then Coo.push coos.(part_of.(c.(mode0))) (Array.copy c) v)
    t;
  Array.to_list (Array.map (fun coo -> pack coo t.format) coos)

let equal ?(eps = 1e-9) a b =
  a.dims = b.dims && Dense.equal ~eps (to_dense a) (to_dense b)

let pp fmt t =
  Stdlib.Format.fprintf fmt "tensor[%s] %s (%d stored, %d nonzero)"
    (Util.string_of_list string_of_int "x" (Array.to_list t.dims))
    (Format.to_string t.format) (stored t) (nnz t)

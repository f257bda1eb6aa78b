module Dyn = Taco_support.Dyn_array

type t = {
  dims : int array;
  coords : Dyn.Int.t array; (* one growable column per mode *)
  vals : Dyn.Float.t;
}

let create dims =
  if Array.exists (fun d -> d <= 0) dims then invalid_arg "Coo.create: non-positive dim";
  {
    dims = Array.copy dims;
    coords = Array.init (Array.length dims) (fun _ -> Dyn.Int.create ());
    vals = Dyn.Float.create ();
  }

let dims t = Array.copy t.dims

let order t = Array.length t.dims

let length t = Dyn.Float.length t.vals

let push t coord v =
  if Array.length coord <> order t then invalid_arg "Coo.push: rank mismatch";
  Array.iteri
    (fun m c ->
      if c < 0 || c >= t.dims.(m) then invalid_arg "Coo.push: coordinate out of bounds")
    coord;
  Array.iteri (fun m c -> Dyn.Int.push t.coords.(m) c) coord;
  Dyn.Float.push t.vals v

let entry t k = Array.map (fun col -> Dyn.Int.get col k) t.coords

let iter f t =
  for k = 0 to length t - 1 do
    f (entry t k) (Dyn.Float.get t.vals k)
  done

(* Counting sort pays while a mode's extent stays within a small multiple
   of the entry count: a pass costs one count array of [extent + 1] and
   two sweeps over the entries. Past [counting_max_extent] the count
   array would dwarf the data (a 1e9-long sparse vector holding a handful
   of entries), so a stable comparison sort takes over. Measured on
   random single-mode keys (OCaml 5.1, x86-64): one counting pass costs
   as much as a stable merge sort of the same entries at an extent of
   16 n (n = 100) to 32-64 n (n = 1e4 to 1e5); at 8 n it is still 1.7 to
   4.7 times faster. *)
let counting_max_extent n = (8 * n) + 256

(* Entry indices in ascending [perm]-lexicographic order of their
   coordinates, equal coordinates in insertion order: one stable
   counting pass per mode, least significant mode first. *)
let counting_order cols dims perm n =
  let idx = ref (Array.init n Fun.id) and tmp = ref (Array.make n 0) in
  for l = Array.length perm - 1 downto 0 do
    let key = cols.(perm.(l)) and extent = dims.(perm.(l)) in
    if extent > 1 then begin
      let count = Array.make (extent + 1) 0 in
      for e = 0 to n - 1 do
        let c = key.(e) + 1 in
        count.(c) <- count.(c) + 1
      done;
      for c = 1 to extent do
        count.(c) <- count.(c) + count.(c - 1)
      done;
      let src = !idx and dst = !tmp in
      for q = 0 to n - 1 do
        let e = src.(q) in
        let c = key.(e) in
        dst.(count.(c)) <- e;
        count.(c) <- count.(c) + 1
      done;
      idx := dst;
      tmp := src
    end
  done;
  !idx

let comparison_order cols perm n =
  let keys = Array.map (fun m -> cols.(m)) perm in
  let rec cmp l a b =
    if l = Array.length keys then 0
    else
      let c = Int.compare keys.(l).(a) keys.(l).(b) in
      if c <> 0 then c else cmp (l + 1) a b
  in
  let idx = Array.init n Fun.id in
  Array.stable_sort (cmp 0) idx;
  idx

let sorted_unique ~perm t =
  let n = length t in
  if Array.length perm <> order t then invalid_arg "Coo.sorted_unique: bad perm";
  let cols = Array.map Dyn.Int.unsafe_backing t.coords in
  let vals = Dyn.Float.unsafe_backing t.vals in
  let idx =
    if Array.for_all (fun m -> t.dims.(m) <= counting_max_extent n) perm then
      counting_order cols t.dims perm n
    else comparison_order cols perm n
  in
  (* Merge runs of equal coordinates, summing in insertion order. *)
  let same a b = Array.for_all (fun col -> col.(a) = col.(b)) cols in
  let first = Array.make n 0 and out_vals = Array.make n 0. in
  let u = ref 0 in
  for q = 0 to n - 1 do
    let e = idx.(q) in
    if q > 0 && same first.(!u - 1) e then out_vals.(!u - 1) <- out_vals.(!u - 1) +. vals.(e)
    else begin
      first.(!u) <- e;
      out_vals.(!u) <- vals.(e);
      incr u
    end
  done;
  let u = !u in
  (Array.map (fun col -> Array.init u (fun k -> col.(first.(k)))) cols, Array.sub out_vals 0 u)

let of_dense d =
  let t = create (Dense.dims d) in
  Dense.iteri (fun coord v -> if v <> 0. then push t (Array.copy coord) v) d;
  t

let to_dense t =
  let d = Dense.create t.dims in
  iter (fun coord v -> Dense.add_at d coord v) t;
  d

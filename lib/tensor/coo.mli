(** Coordinate-list buffers: the insertion format tensors are built in
    before being packed into a compressed format. *)

type t

val create : int array -> t

val dims : t -> int array

val order : t -> int

(** Number of entries pushed so far (duplicates included). *)
val length : t -> int

(** [push t coord v] appends an entry; coordinates are bounds-checked. *)
val push : t -> int array -> float -> unit

(** Entries sorted lexicographically by [perm]-permuted coordinates with
    duplicate coordinates summed in insertion order. Returns
    [(cols, vals)] column-major: [cols.(m).(k)] is the mode-[m] (logical,
    unpermuted) coordinate of entry [k]. Sorts by a stable counting sort
    per mode, least significant first, in time linear in the entries and
    the extents; a mode whose extent dwarfs the entry count switches to a
    comparison sort, so no count array outgrows the data. *)
val sorted_unique : perm:int array -> t -> int array array * float array

val of_dense : Dense.t -> t

val to_dense : t -> Dense.t

val iter : (int array -> float -> unit) -> t -> unit

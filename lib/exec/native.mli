(** Native execution backend: compile a lowered kernel's C rendering
    ({!Taco_lower.Codegen_c.emit_exec}) into a shared object with the
    system C compiler and call it through [dlopen].

    Strictly optional — {!load} reports every environmental failure
    (no compiler, compile error, read-only tmpdir, dlopen failure) as
    [Error reason] so {!Compile} can fall back to the closure executor
    with a counted, traced downgrade rather than failing the request.

    The compiler is [cc] or the [TACO_CC] environment variable; its
    availability is probed once per distinct compiler string. Build
    artifacts live in a per-process temp directory and are unlinked as
    soon as the shared object is mapped (set [TACO_NATIVE_KEEP=1] to
    keep them); {!cleanup} sweeps any leftovers. *)

module Imp = Taco_lower.Imp

(** Build-phase wall-clock costs of one {!load}. *)
type phases = { emit_ns : int64; cc_ns : int64; dlopen_ns : int64 }

type loaded = {
  l_name : string;
  l_fn : nativeint;
  l_handle : nativeint;
  l_arr_kinds : int array;
      (** marshalling kind per array parameter, in parameter order:
          0 int input, 1 float in-place, 2 int output (copied back) *)
  l_escapes : (string * Imp.dtype) list;
      (** kernel-allocated arrays handed back, in escape order *)
  l_phases : phases;
}

(** Call descriptor; field order is the layout contract with
    [native_stubs.c]. Scalars and arrays each appear in
    kernel-parameter order; [cs_kinds] aligns with [cs_arrays] and
    [cs_esc_kinds] with the loaded kernel's escape list.
    [cs_mem_limit]/[cs_deadline] use [Int64.max_int] for "none". *)
type spec = {
  cs_ints : int array;
  cs_floats : float array;
  cs_arrays : Obj.t array;
  cs_kinds : int array;
  cs_esc_kinds : int array;
  cs_mem_limit : int64;
  cs_deadline : int64;
}

(** Resolved compiler command ([TACO_CC] or ["cc"]). *)
val compiler : unit -> string

(** Identifier mixed into the kernel-cache key so entries built by one
    compiler are not served under another. *)
val compiler_id : unit -> string

(** Whether the resolved compiler answers [-dumpversion]; probed once
    per compiler string and cached. *)
val available : unit -> bool

(** Emit, compile, dlopen. Emits [native.emit]/[native.cc]/
    [native.dlopen] trace spans and records the same timings in
    [l_phases]. *)
val load : Imp.kernel -> (loaded, string) result

(** Invoke the kernel. Returns the entry point's return code (0 ok,
    1 allocation failure/budget, 2 deadline expired) and the escaped
    arrays ([int array]/[float array] values per [l_escapes]: the live
    prefix of each array the kernel returns, empty for its workspaces),
    empty on failure. Emits a [native.run] span. *)
val run : loaded -> spec -> int * Obj.t array

(** Remove any on-disk build artifacts and the per-process directory.
    Loaded kernels stay callable (the mapped inodes survive). Called on
    [Service.shutdown] and at process exit. *)
val cleanup : unit -> unit

(** Policy heuristics for invoking the workspace transformation
    (paper §V-C).

    These analyze a concrete index notation statement and propose
    [precompute] invocations. They are advisory: the paper leaves a full
    policy system as future work, to be built on the scheduling API. *)

open Var

type reason =
  | Simplify_merge
      (** More than three sparse operands merge at one loop into a sparse
          result: scatter into a dense workspace instead. *)
  | Avoid_insert
      (** An incrementing assignment scatters into a compressed result
          under a reduction loop: accumulate into a workspace. *)
  | Hoist_invariant
      (** Part of the innermost computation does not depend on an inner
          reduction loop: hoist it by precomputing a sub-product. *)

type suggestion = {
  reason : reason;
  expr : Cin.expr;  (** expression to precompute *)
  over : Index_var.t list;  (** workspace index variables (the set I) *)
  description : string;
}

val reason_to_string : reason -> string

(** Analyze the statement and return suggestions, highest value first.
    [sparse_threshold] is the merge-arity cutoff (default 3, per §V-C). *)
val suggest : ?sparse_threshold:int -> Cin.stmt -> suggestion list

(** A dense workspace for applying suggestion [s] to [stmt], named
    [ws_<hash>] after a digest of both: the same statement and
    suggestion always give the same name, on any domain. *)
val fresh_workspace : Cin.stmt -> suggestion -> Tensor_var.t

(** Apply the first applicable suggestion, creating a dense workspace
    with {!fresh_workspace}, until none remain or [max_rounds] is hit.
    Returns the transformed statement and the suggestions applied; two
    calls on the same statement return equal statements. *)
val apply_all : ?max_rounds:int -> Cin.stmt -> Cin.stmt * suggestion list

(** Serializability checking via TM commit stamps.

    TL2 gives every writing commit a unique global timestamp and every
    read-only commit the clock value it observed, so a valid serialization
    of all committed operations is: sort by stamp, writers before readers at
    equal stamps. This module replays the per-thread operation logs in that
    order against a sequential set model and reports the first divergence —
    a direct check of the paper's claim that a chain of hand-over-hand
    transactions behaves like one atomic operation (each multi-transaction
    operation is placed at its {e final} transaction's stamp). *)

type logged = {
  op : Workload.op;
  key : int;
  result : bool;
  earliest : int;
      (** equals [stamp] for point operations; strictly smaller for the
          doubly-linked-list strict fast-fail, which may linearize anywhere
          in [(earliest, stamp]] *)
  stamp : int;
}

val of_reply : Store.op -> Store.reply -> logged
(** The history entry of a point operation and its reply. A scan is not a
    point operation: it raises [Invalid_argument]. *)

val check : initial:int list -> logged array list -> (unit, string) Stdlib.result
(** [check ~initial logs] with one log per thread; [initial] is the
    structure's contents before the run. *)

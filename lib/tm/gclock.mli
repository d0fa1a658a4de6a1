(** The TL2 global version clock.

    Every writing transaction increments the clock at commit; the value it
    obtains is its unique commit timestamp ([wv]). Readers sample the clock
    at begin ([rv]) and only accept locations whose version is [<= rv]. *)

val sample : unit -> int
(** Current clock value; used as a transaction's read version. *)

val advance : unit -> int
(** Atomically increment the clock and return the {e new} value; used as a
    writing transaction's unique commit timestamp. *)

val set_for_testing : int -> unit
(** Set the clock to a given value. Only for unit tests; the caller puts
    back a value no smaller than any version already published. *)

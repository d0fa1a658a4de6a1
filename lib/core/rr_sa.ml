(** RR-SA: set-associative reservations — {!Rr_assoc} with
    {!Rr_config.t.assoc} ways. Threads map to ways, so concurrent
    [Reserve]/[Release] rarely share a list; in exchange [Revoke] must
    walk the hashed bucket in all [A] ways (O(A + T)). *)

type 'r t = 'r Rr_assoc.t

let name = "RR-SA"
let strict = true
let local_reserve = false

let create ?(config = Rr_config.default) ~hash ~equal () =
  Rr_assoc.create_t ~ways:config.Rr_config.assoc ~config ~hash ~equal

let register = Rr_assoc.register
let reserve = Rr_assoc.reserve
let release = Rr_assoc.release
let release_all = Rr_assoc.release_all
let get = Rr_assoc.get
let revoke = Rr_assoc.revoke

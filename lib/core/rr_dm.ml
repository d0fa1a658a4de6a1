(** RR-DM: direct-mapped reservations — {!Rr_assoc} with a single way.
    [Revoke] only walks the one bucket the reference hashes to, but threads
    reserving references with colliding hashes share that bucket list and
    can conflict. *)

type 'r t = 'r Rr_assoc.t

let name = "RR-DM"
let strict = true
let local_reserve = false

let create ?(config = Rr_config.default) ~hash ~equal () =
  Rr_assoc.create_t ~ways:1 ~config ~hash ~equal

let register = Rr_assoc.register
let reserve = Rr_assoc.reserve
let release = Rr_assoc.release
let release_all = Rr_assoc.release_all
let get = Rr_assoc.get
let revoke = Rr_assoc.revoke

(** RR-SO: shared-ownership reservations — {!Rr_own} with
    {!Rr_config.t.assoc} ownership arrays. Threads mapping to different
    ways can hold reservations on the same reference simultaneously;
    [Revoke] writes [-1] in every way (O(A)). *)

type 'r t = 'r Rr_own.t

let name = "RR-SO"
let strict = false
let local_reserve = false

let create ?(config = Rr_config.default) ~hash ~equal () =
  Rr_own.create_t ~ways:config.Rr_config.assoc ~config ~hash ~equal

let register = Rr_own.register
let reserve = Rr_own.reserve
let release = Rr_own.release
let release_all = Rr_own.release_all
let get = Rr_own.get
let revoke = Rr_own.revoke

(** RR-XO: exclusive-ownership reservations (paper Listing 3) —
    {!Rr_own} with a single ownership array. All methods are O(1); at most
    one thread can hold a reservation on any given hash bucket, so a
    concurrent [Reserve] of a colliding reference acts like a revocation
    (progress, not correctness, is affected). *)

type 'r t = 'r Rr_own.t

let name = "RR-XO"
let strict = false
let local_reserve = false

let create ?(config = Rr_config.default) ~hash ~equal () =
  Rr_own.create_t ~ways:1 ~config ~hash ~equal

let register = Rr_own.register
let reserve = Rr_own.reserve
let release = Rr_own.release
let release_all = Rr_own.release_all
let get = Rr_own.get
let revoke = Rr_own.revoke

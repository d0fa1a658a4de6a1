(* The clock word is the single most contended location in the system —
   every writing transaction CASes it at commit — so it gets its own cache
   lines; sharing a line with any other global would put that global's
   readers on the clock's invalidation storm. *)
let clock = Pad.atomic 0

let sample () = Atomic.get clock

let advance () = 1 + Atomic.fetch_and_add clock 1

let set_for_testing v = Atomic.set clock v
